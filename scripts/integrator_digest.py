"""Hash every trajectory and every Ψ solve the benchmark's workloads produce.

For each workload (``thresholds``, ``trajectories`` and ``suites``, the
serial form of ``suites_pool``) and seed, this builds the perfbench inputs,
runs the workload with the integrator's entry and ``thresholds.beta_iterate``
wrapped, and hashes the bytes of every output in order: each trajectory's
nodes, x and x′ arrays, each Ψ solve's ω sequence, Ψ and limit profile, or
the type name and message of the exception a call raised.  It prints two
lines per workload and seed, ``NAME@SEED integrate <sha256> <trajectories>``
and ``NAME@SEED beta_iterate <sha256> <solves>``.  Ψ's in-process cache is
cleared before each run, so that each run records every solve it needs.

The integrator's entry is ``integrator._integrate_many``, whose outputs are
recorded in submission order, one entry per trajectory: an older tree's
group of k problems that share one (n, k) output is recorded as k
contiguous one-dimensional outputs, and its exception once per problem,
so that such a revision is compared like with like.

Run from the repository root:

    python3 scripts/integrator_digest.py              # this checkout
    python3 scripts/integrator_digest.py --tree DIR   # another checkout
    python3 scripts/integrator_digest.py --parent HEAD~1

``--parent REV`` exports the committed files of REV (``git archive``) into
a temporary directory, digests both trees, each in its own interpreter,
prints both columns, and exits 1 if any line differs.  Seeds are 0-5
unless ``--seed`` (repeatable) names others.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("thresholds", "trajectories", "suites")


def digest(outputs: list) -> str:
    """sha256 over each output's bytes: its three arrays' dtype, shape and
    contents, or an exception's type name and message."""
    h = hashlib.sha256()
    for out in outputs:
        if isinstance(out, BaseException):
            h.update(f"raise {type(out).__name__}: {out}\n".encode())
            continue
        for arr in out:
            arr = np.asarray(arr)
            h.update(f"{arr.dtype.str} {arr.shape}\n".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _per_trajectory(group: tuple, out) -> list:
    """The entries of one group's output: a copy of each trajectory's
    nodes, x and x′, or its exception once per problem of the group (one
    problem, or a tuple of them on an older tree)."""
    if isinstance(out, BaseException):
        return [out] * (len(group[0]) if isinstance(group[0], tuple) else 1)
    ts, xs, vs = out
    xs, vs = xs.reshape(ts.size, -1), vs.reshape(ts.size, -1)
    return [(np.array(ts), np.array(xs[:, c]), np.array(vs[:, c]))
            for c in range(xs.shape[1])]


def _recording(integrator, outputs: list):
    """A wrapper of ``integrator._integrate_many`` that appends each
    group's entries to ``outputs`` in submission order."""
    inner = integrator._integrate_many

    def lockstep(groups):
        groups = list(groups)
        for group, out in zip(groups, inner(groups)):
            outputs.extend(_per_trajectory(group, out))
            yield out
    return lockstep


def _solving(thresholds, solves: list):
    """A wrapper of ``thresholds.beta_iterate`` that appends each solve's
    ω sequence, Ψ and limit profile, or the exception it raised, to
    ``solves``."""
    inner = thresholds.beta_iterate

    def solve(*args, **kwargs):
        try:
            res = inner(*args, **kwargs)
        except Exception as exc:
            solves.append(exc)
            raise
        solves.append((np.array(res.omega_sequence), np.array([res.psi]),
                       res.limit_profile))
        return res
    return solve


def _record(workload: str, seed: int, tmp: Path) -> tuple:
    """Every integration's and every Ψ solve's output of one workload run,
    each in order."""
    import semicycles.integrator as integrator
    import semicycles.thresholds as thresholds
    import workloads

    outputs, solves = [], []
    wrappers = {"_integrate_many": (integrator._integrate_many,
                                    _recording(integrator, outputs)),
                "beta_iterate": (thresholds.beta_iterate,
                                 _solving(thresholds, solves))}
    spec = workloads.WORKLOADS[workload]
    state = spec.setup(seed, tmp, 1)
    thresholds._psi_cached.cache_clear()
    # every package module that imported an entry calls it by its own name
    homes = [(m, attr) for key, m in sys.modules.items()
             if key.startswith("semicycles")
             for attr, (inner, _) in wrappers.items()
             if getattr(m, attr, None) is inner]
    for mod, attr in homes:
        setattr(mod, attr, wrappers[attr][1])
    try:
        spec.run(state)
    finally:
        for mod, attr in homes:
            setattr(mod, attr, wrappers[attr][0])
    return outputs, solves


def _digest_tree(tree: Path, seeds: list[int]) -> list[str]:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    lines = []
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        os.environ["SEMICYCLE_CACHE_DIR"] = tmp
        for workload in WORKLOADS:
            for seed in seeds:
                outputs, solves = _record(workload, seed, Path(tmp))
                for entry, recorded in (("integrate", outputs),
                                        ("beta_iterate", solves)):
                    lines.append(f"{workload}@{seed} {entry} "
                                 f"{digest(recorded)} {len(recorded)}")
    return lines


def _in_subprocess(tree: Path, seeds: list[int]) -> list[str]:
    argv = [sys.executable, __file__, "--tree", str(tree)]
    for seed in seeds:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"integrator_digest: {tree} failed:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    where = ap.add_mutually_exclusive_group()
    where.add_argument("--tree", type=Path, default=ROOT,
                       help="checkout to digest (default: this one)")
    where.add_argument("--parent",
                       help="revision to compare this checkout against")
    ap.add_argument("--seed", type=int, action="append",
                    help="repeatable (default: 0 to 5)")
    args = ap.parse_args(argv)
    seeds = args.seed or list(range(6))
    if args.parent is None:
        print("\n".join(_digest_tree(args.tree.resolve(), seeds)))
        return 0
    # the export bench_pair.py makes, from the script beside this one
    from bench_pair import _export, _git

    rev = _git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="digest-parent-") as tmp:
        _export(rev, Path(tmp))
        parent = _in_subprocess(Path(tmp), seeds)
    change = _in_subprocess(ROOT, seeds)
    differ = 0
    for p_line, c_line in zip(parent, change):
        same = p_line == c_line
        differ += not same
        print(f"{'same' if same else 'DIFF'} parent {p_line}")
        print(f"{'':4} change {c_line}")
    print(f"{differ} of {len(change)} digests differ from {rev[:12]}")
    return 1 if differ or len(parent) != len(change) else 0


if __name__ == "__main__":
    sys.exit(main())
