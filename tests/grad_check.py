"""Finite-difference gradient checker for the hand-written backwards in
``maskpool_lab.nn``, ``maskpool`` and ``detector``."""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def grad_check(forward, backward, x: Array, *, epsilon: float = 1e-3,
               grad_out: Array | None = None, exclude: Array | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic backward and central differences.

    ``forward(x)`` maps an array to an array; ``backward(x, grad_out)`` must
    return d(sum(forward(x) * grad_out))/dx.  The op is driven at float64 (all
    ops follow their input dtype) so the epsilon-sized differences are not
    drowned by float32 output quantization; the relative-error denominator is
    max(|analytic|, |numeric|, 1e-8).  Entries flagged in ``exclude`` (same
    shape as x) are skipped.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(forward(x))
    if grad_out is None:
        rng = rng or np.random.default_rng(0)
        grad_out = rng.standard_normal(y.shape)
    grad_out64 = np.asarray(grad_out, dtype=np.float64)
    analytic = np.asarray(backward(x, grad_out64), dtype=np.float64).reshape(-1)
    skip = np.zeros(x.size, dtype=bool) if exclude is None else np.asarray(exclude).astype(bool).reshape(-1)
    flat = x.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        if skip[i]:
            continue
        orig = flat[i]
        xp = x.copy()
        xp.reshape(-1)[i] = orig + epsilon
        xm = x.copy()
        xm.reshape(-1)[i] = orig - epsilon
        step = float(xp.reshape(-1)[i]) - float(xm.reshape(-1)[i])
        if step == 0.0:
            continue
        fp = float((np.asarray(forward(xp), dtype=np.float64) * grad_out64).sum())
        fm = float((np.asarray(forward(xm), dtype=np.float64) * grad_out64).sum())
        numeric = (fp - fm) / step
        a = float(analytic[i])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
