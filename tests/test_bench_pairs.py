"""scripts/bench_pairs.py: a failed benchmark run ends the script with a short
report, not a traceback."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_failed_run_names_itself_and_exits_1(tmp_path, capsys):
    tree = tmp_path / "change"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(
        "import sys\nprint('loading inputs', file=sys.stderr)\n"
        "print('ValueError: broken', file=sys.stderr)\nsys.exit(3)\n")
    with pytest.raises(SystemExit) as exit_info:
        load_script().run(tree, "swap", 4101, 12)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "swap change seed 4101: perfbench/run.py exited 3"
    assert "ValueError: broken" in err and "loading inputs" in err
