"""Outside-in span tracing: wrap public module functions, record spans, derive self time.

The tracer replaces ``module.function`` attributes with timing wrappers for
the duration of a ``with`` block and puts the originals back on exit, so an
untraced run executes the unmodified program.  Library code calls its
collaborators through module attributes (``nn.conv2d_forward``,
``maskpool.build_pyramid``, module globals), so a wrapper installed on the
module sees every call.

Each call becomes one span: (id, parent id, name, site, start, end, self
time).  Self time is the span's duration minus the durations of its direct
child spans.  Spans stay in memory until ``write_jsonl`` at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    site: str | None
    start: float
    end: float
    self_s: float


@dataclass
class Hook:
    """Optional per-function extras: ``site(args, kwargs)`` labels the call,
    ``count(args, kwargs, result)`` returns {counter: amount} to add."""

    site: object = None
    count: object = None


@dataclass
class _Frame:
    id: int
    start: float
    child_s: float = 0.0


@dataclass
class Tracer:
    targets: list                      # of (module, [function names])
    hooks: dict = field(default_factory=dict)   # "module.function" -> Hook
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(float))

    def __post_init__(self):
        self._stack: list[_Frame] = []
        self._saved: list = []
        self._next_id = 0

    @staticmethod
    def qualname(module, name: str) -> str:
        return f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

    def names(self) -> list:
        return [self.qualname(m, n) for m, fns in self.targets for n in fns]

    # -- install / restore -------------------------------------------------

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module, fns in self.targets:
                for name in fns:
                    original = getattr(module, name)
                    self._saved.append((module, name, original))
                    setattr(module, name, self._wrap(self.qualname(module, name), original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        self._stack.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        hook = self.hooks.get(qualname, Hook())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(self._next_id, 0.0)
            self._next_id += 1
            parent = self._stack[-1].id if self._stack else None
            site = hook.site(args, kwargs) if hook.site else None
            self._stack.append(frame)
            frame.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                duration = end - frame.start
                if self._stack:
                    self._stack[-1].child_s += duration
                self.spans.append(Span(frame.id, parent, qualname, site, frame.start, end,
                                       duration - frame.child_s))
            if hook.count:
                for key, amount in hook.count(args, kwargs, result).items():
                    self.counters[key] += amount
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict:
        """{name: (calls, self_s)} for every target, zeros for functions never called."""
        out = {name: [0, 0.0] for name in self.names()}
        for s in self.spans:
            out[s.name][0] += 1
            out[s.name][1] += s.self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def site_self_s(self, name: str, sites) -> dict:
        out = {site: 0.0 for site in sites}
        for s in self.spans:
            if s.name == name and s.site in out:
                out[s.site] += s.self_s
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for s in self.spans:
                f.write(json.dumps(s.__dict__, sort_keys=True) + "\n")
