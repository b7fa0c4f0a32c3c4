"""Benchmark this checkout against a parent revision in alternating pairs.

The parent revision's committed files are exported (``git archive``) into
a temporary directory, and this checkout's files that git tracks or would
track (committed, edited or new, but no ignored file such as a
``__pycache__``) are copied beside them, so that neither side runs from
bytecode caches the other lacks; then ``perfbench/run.py`` runs on both
trees, one after the other, pair by pair, the order flipping every pair so
that a drift in machine speed falls on both sides alike.  Each run is a fresh
``perfbench/run.py --trace 0`` of BENCHMARK.json's ``run_seconds`` and
reports the medians of its own repetitions; the pairs' values give per
side the median and quartiles of every end-to-end metric, and ``wins``
counts the pairs where this checkout was better.  Then one
``perfbench/run.py --trace 1`` run per side of each benchmarked workload,
at its seed, reports every per-layer metric of BENCHMARK.json, so that the
output names the layers that moved.  The exports are removed afterwards.

Run from the repository root:

    python3 scripts/bench_pair.py --parent HEAD~1 --out BENCH.json
    python3 scripts/bench_pair.py --parent main --out BENCH.json \\
        --workload thresholds --workload thresholds@5

A workload is ``NAME[@SEED]`` (seed 0 by default; another seed checks a
gain on inputs it was not tuned on), run in 10 pairs and traced once per
side.  Per-run numbers and each run's ``correct``/``failed`` are kept in
the output, beside the host, Python and numpy versions.  A run that is not
correct (``perfbench/run.py`` exits non-zero, or reports ``correct: false``
or failed operations) stops the script with a message naming the side,
workload, seed, pair and exit status, and no output file is written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
_SPEC = re.compile(r"^(?P<name>[a-z_]+)(?:@(?P<seed>\d+))?$")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _export_checkout(root: Path, dest: Path) -> None:
    """The files of the checkout at ``root`` that git tracks or would track,
    as they are on disk, under ``dest``."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=root, check=True,
        capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = root / name
        if src.is_file():  # a tracked file deleted on disk is listed too
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _perfbench(tree: Path, workload: str, seed: int, seconds: float,
               trace: int, where: str) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``tree``; a run
    that is not correct, or failed an operation, stops the script, naming
    ``where`` (the side and the pair)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"bench_pair: no result from {tree} ({workload}, "
                         f"seed {seed}, exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    if proc.returncode or not result["correct"] or result["failed"]:
        raise SystemExit(f"bench_pair: incorrect run, {where} ({workload}, "
                         f"seed {seed}): correct {result['correct']}, "
                         f"failed {result['failed']}, exit "
                         f"{proc.returncode}; no BENCH file written")
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _compare(runs: dict, declared: list[dict]) -> dict:
    out = {}
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        sides = {side: [r["metrics"][name] for r in runs[side]]
                 for side in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"unit": m["unit"], "better": m["better"],
                     "parent": _summary(sides["parent"]),
                     "change": _summary(sides["change"]),
                     "wins": wins, "pairs": len(sides["change"]),
                     "parent_runs": sides["parent"],
                     "change_runs": sides["change"]}
    return out


def _progress(workload: str, k: int, runs: dict, declared: list[dict]
              ) -> str:
    """The line reporting pair k (from 0): each side's last run, every
    declared end-to-end metric."""
    def last(side: str) -> str:
        metrics = runs[side][-1]["metrics"]
        return side + "".join(f" {m['name']} {metrics[m['name']]:.4f}"
                              for m in declared)

    return f"{workload} pair {k + 1}/{PAIRS}: " + "; ".join(
        map(last, ("parent", "change")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True,
                    help="revision to compare this checkout against")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workload", action="append", default=[],
                    help="NAME[@SEED]; repeatable (default: every "
                         "workload of BENCHMARK.json at seed 0)")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = []
    for item in args.workload or [w["name"] for w in bench["workloads"]]:
        match = _SPEC.match(item)
        if not match:
            ap.error(f"bad workload {item!r}: expected NAME[@SEED]")
        specs.append((match["name"], int(match["seed"] or 0)))

    parent_sha = _git("rev-parse", args.parent)
    head_sha = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain"))
    report = {
        "parent": parent_sha,
        "change": head_sha + ("+working-tree" if dirty else ""),
        "host": {"machine": platform.machine(),
                 "processor": platform.processor(),
                 "cpus": os.cpu_count(),
                 "system": platform.platform(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "protocol": {"seconds": seconds, "order": "alternating, "
                     "parent first in even pairs",
                     "runner": "perfbench/run.py --trace 0 per run; "
                     "values are per-run medians",
                     "layers": "one perfbench/run.py --trace 1 run per "
                     "side and workload"},
        "workloads": {},
        "layers": {},
    }
    tmp = Path(tempfile.mkdtemp(prefix="bench-pair-"))
    try:
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        _export(parent_sha, trees["parent"])
        _export_checkout(ROOT, trees["change"])
        for name, seed in specs:
            runs = {"parent": [], "change": []}
            for k in range(PAIRS):
                order = ("parent", "change") if k % 2 == 0 else \
                    ("change", "parent")
                for side in order:
                    runs[side].append(_perfbench(
                        trees[side], name, seed, seconds, 0,
                        f"{side} side, pair {k + 1}"))
                print(_progress(f"{name}@{seed}", k, runs,
                                bench["end_to_end"]), file=sys.stderr)
            report["workloads"][f"{name}@{seed}"] = {
                "metrics": _compare(runs, bench["end_to_end"]),
                "correct": {side: [r["correct"] for r in runs[side]]
                            for side in runs},
                "failed": {side: [r["failed"] for r in runs[side]]
                           for side in runs},
            }
            layers = report["layers"][f"{name}@{seed}"] = {}
            for side in ("parent", "change"):
                traced = _perfbench(trees[side], name, seed, seconds, 1,
                                    f"{side} side, traced run")
                layers[side] = {"correct": traced["correct"],
                                "failed": traced["failed"],
                                **traced["metrics"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
