"""scripts/bench_pair.py folds only correct perfbench runs into its medians."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _SCRIPT)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def _fake_tree(tmp_path, correct, failed, status):
    """A tree whose perfbench/run.py prints one result line and exits."""
    run = tmp_path / "perfbench" / "run.py"
    run.parent.mkdir()
    line = json.dumps({"correct": correct, "attempted": 3, "failed": failed,
                       "metrics": {"wall_s": {"value": 0.5}}})
    run.write_text(f"import sys\nprint({line!r})\nsys.exit({status})\n")
    return tmp_path


@pytest.mark.parametrize("correct, failed, status", [
    (False, 1, 1),
    (True, 2, 0),
    (True, 0, 1),
])
def test_incorrect_run_stops_the_script(tmp_path, correct, failed, status):
    tree = _fake_tree(tmp_path, correct, failed, status)
    want = (f"incorrect run, parent side, pair 3 (suites, seed 7): correct "
            f"{correct}, failed {failed}, exit {status}; no BENCH file")
    with pytest.raises(SystemExit, match=re.escape(want)):
        bench_pair._perfbench(tree, "suites", 7, 1.0, 0,
                              "parent side, pair 3")


def test_correct_run_gives_its_metrics(tmp_path):
    tree = _fake_tree(tmp_path, True, 0, 0)
    got = bench_pair._perfbench(tree, "suites", 7, 1.0, 0, "change side")
    assert got == {"correct": True, "failed": 0, "metrics": {"wall_s": 0.5}}
