"""Hash every trajectory and every Ψ solve the benchmark's workloads produce.

For each workload (``thresholds``, ``trajectories`` and ``suites``, the
serial form of ``suites_pool``) and seed, this builds the perfbench inputs,
runs the workload with the integrator's entry and ``thresholds.beta_iterate``
wrapped, and hashes the bytes of every output in order: each trajectory's
nodes, x and x′ arrays, each Ψ solve's ω sequence, Ψ and limit profile, or
the type name and message of the exception a call raised.  After the run it
scans each recorded trajectory (``integrator._zero_scan`` at the default
tol) and hashes its zero times, their degenerate flags and its extremum
times, and it hashes ϑ (``thresholds.theta``) at each distinct Δ of the
recorded Ψ solves.  It prints four lines per workload and seed,
``NAME@SEED integrate <sha256> <trajectories>``, ``NAME@SEED beta_iterate
<sha256> <solves>``, ``NAME@SEED scans <sha256> <trajectories>`` and
``NAME@SEED theta <sha256> <distinct Δ>``.  Ψ's in-process cache is
cleared before each run, so that each run records every solve it needs.

The integrator's entry is ``integrator._integrate_many``, whose outputs are
recorded in submission order, one entry per trajectory.  It must return a
list, as it does from commit 106893f on, so ``--parent`` and ``--tree``
need a tree at or after that commit.

Run from the repository root:

    python3 scripts/integrator_digest.py              # this checkout
    python3 scripts/integrator_digest.py --tree DIR   # another checkout
    python3 scripts/integrator_digest.py --parent HEAD~1

``--parent REV`` exports the committed files of REV (``git archive``) into
a temporary directory, digests both trees, each in its own interpreter,
prints both columns and how many digests of each kind differ, and exits 1
if any line differs.  Seeds are 0-5 unless ``--seed`` (repeatable) names
others.

``--parent REV --values`` measures instead how far the values moved, for a
change that moves them at rounding level: per workload and seed it prints
the largest max |Δx|/max|x| and max |Δx′|/max|x′| over the paired
trajectories, the largest |ΔΨ| over the paired solves, the largest |Δt|
of the paired zeros and of the paired extrema and the largest |Δϑ| over
the paired Δ, and exits 1 only if the two trees' outputs do not pair up
(another count, node grid, degenerate flag, Δ or exception).  It reads
each tree's outputs from that tree's own interpreter, which ``--values``
without ``--parent`` runs: it writes the tree's outputs, pickled, on
stdout.

    python3 scripts/integrator_digest.py --parent HEAD~1 --values
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import pickle
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


def _recording(integrator, outputs: list):
    """A wrapper of ``integrator._integrate_many`` that appends a copy of
    each group's nodes, x and x′, or its exception, to ``outputs`` in
    submission order, and returns the outputs' list."""
    inner = integrator._integrate_many

    def lockstep(groups):
        got = inner(groups)
        outputs.extend(out if isinstance(out, BaseException)
                       else tuple(np.array(a) for a in out) for out in got)
        return got
    return lockstep


def _solving(thresholds, solves: list, deltas: list):
    """A wrapper of ``thresholds.beta_iterate`` that appends each solve's
    ω sequence, Ψ and limit profile, or the exception it raised, to
    ``solves``, and its Δ to ``deltas``."""
    inner = thresholds.beta_iterate

    def solve(*args, **kwargs):
        deltas.append(args[1] if len(args) > 1 else kwargs["delta"])
        try:
            res = inner(*args, **kwargs)
        except Exception as exc:
            solves.append(exc)
            raise
        solves.append((np.array(res.omega_sequence), np.array([res.psi]),
                       res.limit_profile))
        return res
    return solve


def _scans(outputs: list) -> list:
    """Each recorded trajectory's zero times, their degenerate flags and
    its extremum times (``integrator._zero_scan`` at the default tol), or
    the exception the scan raised; an integration's exception stands for
    its scan."""
    import semicycles.integrator as integrator

    scans = []
    for out in outputs:
        if isinstance(out, BaseException):
            scans.append(out)
            continue
        try:
            zeros, extrema = integrator._zero_scan(
                integrator.Trajectory(*out, problem=None),
                integrator._SCAN_TOL)
        except Exception as exc:
            scans.append(exc)
            continue
        scans.append((np.array([t for t, _ in zeros], dtype=float),
                      np.array([d for _, d in zeros], dtype=bool),
                      np.array(extrema, dtype=float)))
    return scans


def _thetas(deltas: list) -> list:
    """ϑ at each distinct Δ of ``deltas``, in order of first appearance:
    (Δ, ϑ) as two one-element arrays, or the exception ``theta`` raised."""
    import semicycles.thresholds as thresholds

    thetas = []
    for delta in dict.fromkeys(deltas):
        try:
            thetas.append((np.array([delta], dtype=float),
                           np.array([thresholds.theta(delta)])))
        except Exception as exc:
            thetas.append(exc)
    return thetas


def _record(workload: str, seed: int, tmp: Path) -> tuple:
    """Every integration's and every Ψ solve's output of one workload run,
    each in order, and each solve's Δ."""
    import semicycles.integrator as integrator
    import semicycles.thresholds as thresholds
    import workloads

    outputs, solves, deltas = [], [], []
    wrappers = {"_integrate_many": (integrator._integrate_many,
                                    _recording(integrator, outputs)),
                "beta_iterate": (thresholds.beta_iterate,
                                 _solving(thresholds, solves, deltas))}
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
    return outputs, solves, deltas


def _values(outputs: list, solves: list) -> tuple:
    """What ``--values`` compares: each trajectory's three arrays, each
    solve's Ψ, and an exception as its type name and message."""
    def plain(out):
        return (f"{type(out).__name__}: {out}"
                if isinstance(out, BaseException) else out)
    return ([plain(out) for out in outputs],
            [plain(s) if isinstance(s, BaseException) else float(s[1][0])
             for s in solves])


def _relative(got: np.ndarray, want: np.ndarray) -> float:
    """max |got − want| / max |want| (0 where both are all zero)."""
    scale = float(np.abs(want).max(initial=0.0))
    diff = float(np.abs(got - want).max(initial=0.0))
    return diff / scale if scale else (0.0 if diff == 0.0 else math.inf)


def value_changes(parent: tuple, change: tuple) -> tuple:
    """The largest relative change of x and of x′ over paired trajectories,
    the largest |ΔΨ| over paired solves (each pair from ``_values``), and a
    list of what does not pair up."""
    dx = dv = dpsi = 0.0
    unpaired = []
    for kind, old, new in (("trajectories", parent[0], change[0]),
                           ("solves", parent[1], change[1])):
        if len(old) != len(new):
            unpaired.append(f"{len(new)} {kind}, parent {len(old)}")
            continue
        for i, (a, b) in enumerate(zip(old, new)):
            if isinstance(a, str) or isinstance(b, str):
                if not (isinstance(a, str) and a == b):
                    unpaired.append(f"{kind} {i}: {str(b):.80} vs "
                                    f"{str(a):.80}")
            elif kind == "solves":
                dpsi = max(dpsi, abs(b - a))
            elif a[0].shape != b[0].shape or (a[0] != b[0]).any():
                unpaired.append(f"{kind} {i}: another node grid")
            else:
                dx = max(dx, _relative(b[1], a[1]))
                dv = max(dv, _relative(b[2], a[2]))
    return dx, dv, dpsi, unpaired


def _scan_values(scans: list) -> list:
    """What ``--values`` compares of the scans: each trajectory's three
    arrays, an exception as its type name and message."""
    return [f"{type(s).__name__}: {s}" if isinstance(s, BaseException)
            else s for s in scans]


def scan_changes(parent: list, change: list) -> tuple:
    """The largest |Δt| of the zeros and of the extrema over paired scans
    (each from ``_scan_values``), and a list of what does not pair up:
    another count of scans, of zeros or of extrema, another degenerate
    flag, or an exception on either side."""
    dz = de = 0.0
    if len(parent) != len(change):
        return dz, de, [f"{len(change)} scans, parent {len(parent)}"]
    unpaired = []
    for i, (a, b) in enumerate(zip(parent, change)):
        if isinstance(a, str) or isinstance(b, str):
            if not (isinstance(a, str) and a == b):
                unpaired.append(f"scans {i}: {str(b):.80} vs {str(a):.80}")
        elif a[0].shape != b[0].shape or a[2].shape != b[2].shape:
            unpaired.append(f"scans {i}: {b[0].size} zeros and {b[2].size} "
                            f"extrema, parent {a[0].size} and {a[2].size}")
        elif (a[1] != b[1]).any():
            unpaired.append(f"scans {i}: another degenerate flag")
        else:
            dz = max(dz, float(np.abs(b[0] - a[0]).max(initial=0.0)))
            de = max(de, float(np.abs(b[2] - a[2]).max(initial=0.0)))
    return dz, de, unpaired


def _theta_values(thetas: list) -> list:
    """What ``--values`` compares of ϑ: each (Δ, ϑ) as floats, an
    exception as its type name and message."""
    return [f"{type(t).__name__}: {t}" if isinstance(t, BaseException)
            else (float(t[0][0]), float(t[1][0])) for t in thetas]


def theta_changes(parent: list, change: list) -> tuple:
    """The largest |Δϑ| over the ϑ paired by Δ (each from
    ``_theta_values``), and a list of what does not pair up: another count
    of Δ, another Δ, or an exception on either side."""
    if len(parent) != len(change):
        return 0.0, [f"{len(change)} thetas, parent {len(parent)}"]
    dtheta, unpaired = 0.0, []
    for i, (a, b) in enumerate(zip(parent, change)):
        if isinstance(a, str) or isinstance(b, str) or a[0] != b[0]:
            if a != b:
                unpaired.append(f"theta {i}: {str(b):.80} vs {str(a):.80}")
        else:
            dtheta = max(dtheta, abs(b[1] - a[1]))
    return dtheta, unpaired


def _digest_tree(tree: Path, seeds: list[int], values: bool = False):
    """Each workload and seed's four digest lines or, with ``values``, its
    ``_values``, ``_scan_values`` and ``_theta_values`` under
    "workload@seed"."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    lines, found = [], {}
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        os.environ["SEMICYCLE_CACHE_DIR"] = tmp
        for workload in WORKLOADS:
            for seed in seeds:
                outputs, solves, deltas = _record(workload, seed, Path(tmp))
                scans, thetas = _scans(outputs), _thetas(deltas)
                for entry, recorded in (("integrate", outputs),
                                        ("beta_iterate", solves),
                                        ("scans", scans),
                                        ("theta", thetas)):
                    lines.append(f"{workload}@{seed} {entry} "
                                 f"{digest(recorded)} {len(recorded)}")
                found[f"{workload}@{seed}"] = (*_values(outputs, solves),
                                               _scan_values(scans),
                                               _theta_values(thetas))
    return found if values else lines


def _in_subprocess(tree: Path, seeds: list[int], values: bool = False):
    """``_digest_tree`` of ``tree`` in an interpreter of its own."""
    argv = [sys.executable, __file__, "--tree", str(tree)]
    argv += ["--values"] if values else []
    for seed in seeds:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True)
    if proc.returncode:
        raise SystemExit(f"integrator_digest: {tree} failed:\n"
                         f"{proc.stderr[-2000:].decode(errors='replace')}")
    return (pickle.loads(proc.stdout) if values
            else proc.stdout.decode().splitlines())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    where = ap.add_mutually_exclusive_group()
    where.add_argument("--tree", type=Path, default=ROOT,
                       help="checkout to digest (default: this one)")
    where.add_argument("--parent",
                       help="revision to compare this checkout against")
    ap.add_argument("--seed", type=int, action="append",
                    help="repeatable (default: 0 to 5)")
    ap.add_argument("--values", action="store_true",
                    help="with --parent: how far values moved, not hashes; "
                         "alone: this tree's values, pickled on stdout")
    args = ap.parse_args(argv)
    seeds = args.seed or list(range(6))
    if args.parent is None:
        found = _digest_tree(args.tree.resolve(), seeds, args.values)
        if args.values:
            pickle.dump(found, sys.stdout.buffer)
        else:
            print("\n".join(found))
        return 0
    # the export bench_pair.py makes, from the script beside this one
    from bench_pair import _export, _git

    rev = _git("rev-parse", args.parent)
    if args.values:
        return _compare_values(rev, seeds)
    with tempfile.TemporaryDirectory(prefix="digest-parent-") as tmp:
        _export(rev, Path(tmp))
        parent = _in_subprocess(Path(tmp), seeds)
    change = _in_subprocess(ROOT, seeds)
    for p_line, c_line in zip(parent, change):
        print(f"{'same' if p_line == c_line else 'DIFF'} parent {p_line}")
        print(f"{'':4} change {c_line}")
    kinds = differing(parent, change)
    differ = sum(d for d, _ in kinds.values())
    print(f"{differ} of {len(change)} digests differ from {rev[:12]} ("
          + ", ".join(f"{kind} {d} of {n}" for kind, (d, n) in kinds.items())
          + ")")
    return 1 if differ or len(parent) != len(change) else 0


def differing(parent: list, change: list) -> dict:
    """Per kind of digest line (``integrate``, ``beta_iterate``,
    ``scans``, ``theta``), how many of the paired lines differ and how many
    there are."""
    kinds = {}
    for p_line, c_line in zip(parent, change):
        count = kinds.setdefault(c_line.split()[1], [0, 0])
        count[0] += p_line != c_line
        count[1] += 1
    return kinds


def _compare_values(rev: str, seeds: list[int]) -> int:
    """``--values``: both trees' outputs, each from its own interpreter,
    compared one workload and seed at a time."""
    from bench_pair import _export

    with tempfile.TemporaryDirectory(prefix="digest-values-") as tmp:
        _export(rev, Path(tmp))
        parent = _in_subprocess(Path(tmp), seeds, values=True)
    change = _in_subprocess(ROOT, seeds, values=True)
    bad = 0
    for key, new in change.items():
        dx, dv, dpsi, unpaired = value_changes(parent[key], new)
        dz, de, scans_unpaired = scan_changes(parent[key][2], new[2])
        dtheta, thetas_unpaired = theta_changes(parent[key][3], new[3])
        unpaired += scans_unpaired + thetas_unpaired
        bad += bool(unpaired)
        print(f"{key} x {dx:.2e} x' {dv:.2e} psi {dpsi:.2e} "
              f"zeros {dz:.2e} extrema {de:.2e} theta {dtheta:.2e} "
              f"({len(new[0])} trajectories, {len(new[1])} solves)"
              + "".join(f"\n    UNPAIRED {u}" for u in unpaired[:5]))
    print(f"values against {rev[:12]}; {bad} runs do not pair up")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
