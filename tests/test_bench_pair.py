"""scripts/bench_pair.py folds only correct perfbench runs into its medians,
and runs the change side from an export of the checkout."""

import importlib.util
import json
import re
import subprocess
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


def test_change_side_is_exported_without_bytecode_caches(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "export"
    (repo / "pkg" / "__pycache__").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "pkg" / "mod.py").write_text("A = 1\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
    subprocess.run(git + ["add", "."], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-qm", "seed"], cwd=repo, check=True)
    (repo / "pkg" / "mod.py").write_text("A = 2\n")   # an uncommitted edit
    (repo / "pkg" / "new.py").write_text("B = 3\n")   # an untracked file
    (repo / "pkg" / "__pycache__" / "mod.cpython.pyc").write_bytes(b"\0")
    bench_pair._export_checkout(repo, dest)
    got = sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*")
                 if p.is_file())
    assert got == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "A = 2\n"
