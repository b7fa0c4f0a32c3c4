"""Record every trajectory, Ψ solve, scan and ϑ the benchmark's workloads
produce, and hash the record or measure how far it moved.

For each workload (``thresholds``, ``trajectories`` and ``suites``, the
serial form of ``suites_pool``) and seed, this builds the perfbench inputs,
runs the workload with the integrator's entry and ``thresholds.beta_iterate``
wrapped, and records the outputs once, as ``{kind: [entry]}``.  An entry is
a tuple of arrays, or an exception written as ``"Type: message"``.  The
four kinds, each in order:

- ``integrate``: each trajectory's nodes, x and x′;
- ``beta_iterate``: each Ψ solve's ω sequence, Ψ and limit profile, with
  Ψ's in-process cache cleared before each run, so that each run records
  every solve it needs;
- ``scans``: each recorded trajectory's zero times, their degenerate flags
  and its extremum times (``integrator._zero_scan`` at the default tol);
  an integration's exception stands for its scan;
- ``theta``: Δ and ϑ (``thresholds.theta``) at each distinct Δ of the
  recorded Ψ solves, in order of first appearance.

It prints one line per workload, seed and kind, ``NAME@SEED KIND <sha256>
<entries>``, the sha256 over the bytes of every entry (each array's
dtype, shape and contents; an exception's type name and message).

The integrator's entry is ``integrator._integrate_many``, whose outputs are
recorded in submission order, one entry per trajectory.  It must return a
list, as it does from commit 106893f on, so ``--parent`` and ``--tree``
need a tree at or after that commit.

Run from the repository root:

    python3 scripts/integrator_digest.py              # this checkout
    python3 scripts/integrator_digest.py --tree DIR   # another checkout
    python3 scripts/integrator_digest.py --parent HEAD~1
    python3 scripts/integrator_digest.py --parent HEAD~1 --values

Records are made one workload and seed at a time, and each is dropped once
used, so memory holds one record, not all of them.  ``--values`` alone
writes each (``"workload@seed"``, record) on stdout as a pickle of its
own.  ``--parent REV`` exports the committed files of REV (``git
archive``) into a temporary directory and reads each tree's records that
way, from an interpreter of its own, loading each pickle as it arrives.
It then prints both trees' hash lines and how many of each kind differ,
and exits 1 if any line differs.  Seeds are 0-5 unless ``--seed``
(repeatable) names others.

``--parent REV --values`` measures instead how far the values moved, for a
change that moves them at rounding level.  It keeps the parent tree's
records and compares each of the change tree's as it arrives.
``KINDS`` says, per kind, which arrays two entries must share to pair up
(the node grid, the degenerate flags, Δ) and which it measures: x and x′
relative to the parent's largest |x| and |x′|; Ψ, the zero times, the
extremum times and ϑ absolute.  Per
workload and seed it prints the largest change of each measured array
over the paired entries.  It exits 1 only if some entries do not pair up;
each such one is an UNPAIRED line (another count of entries or of array
elements, another shared array, or an exception on either side).
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

# per kind: the noun its entries are counted in, the arrays (by index) two
# entries must share to pair, and the arrays measured, each as (name,
# index, relative to the parent's largest |value|)
KINDS = {
    "integrate": ("trajectories", {0: "node grid"},
                  (("x", 1, True), ("x'", 2, True))),
    "beta_iterate": ("solves", {}, (("psi", 1, False),)),
    "scans": ("scans", {1: "degenerate flag"},
              (("zeros", 0, False), ("extrema", 2, False))),
    "theta": ("thetas", {0: "Δ"}, (("theta", 1, False),)),
}


def _written(exc: BaseException) -> str:
    """An exception as an entry records it: its type name and message."""
    return f"{type(exc).__name__}: {exc}"


def digest(entries: list) -> str:
    """sha256 over each entry's bytes: its arrays' dtype, shape and
    contents, or the type name and message of a written exception."""
    h = hashlib.sha256()
    for entry in entries:
        if isinstance(entry, str):
            h.update(f"raise {entry}\n".encode())
            continue
        for arr in entry:
            arr = np.asarray(arr)
            h.update(f"{arr.dtype.str} {arr.shape}\n".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _recording(integrator, outputs: list):
    """A wrapper of ``integrator._integrate_many`` that appends a copy of
    each group's nodes, x and x′, or its written exception, to ``outputs``
    in submission order, and returns the outputs' list."""
    inner = integrator._integrate_many

    def lockstep(groups):
        got = inner(groups)
        outputs.extend(_written(out) if isinstance(out, BaseException)
                       else tuple(np.array(a) for a in out) for out in got)
        return got
    return lockstep


def _solving(thresholds, solves: list, deltas: list):
    """A wrapper of ``thresholds.beta_iterate`` that appends each solve's
    ω sequence, Ψ and limit profile, or the written exception it raised,
    to ``solves``, and its Δ to ``deltas``."""
    inner = thresholds.beta_iterate

    def solve(*args, **kwargs):
        deltas.append(args[1] if len(args) > 1 else kwargs["delta"])
        try:
            res = inner(*args, **kwargs)
        except Exception as exc:
            solves.append(_written(exc))
            raise
        solves.append((np.array(res.omega_sequence), np.array([res.psi]),
                       res.limit_profile))
        return res
    return solve


def _scans(outputs: list) -> list:
    """Each recorded trajectory's zero times, their degenerate flags and
    its extremum times (``integrator._zero_scan`` at the default tol), or
    the written exception the scan raised; an integration's exception
    stands for its scan."""
    import semicycles.integrator as integrator

    scans = []
    for out in outputs:
        if isinstance(out, str):
            scans.append(out)
            continue
        try:
            zeros, extrema = integrator._zero_scan(
                integrator.Trajectory(*out, problem=None),
                integrator._SCAN_TOL)
        except Exception as exc:
            scans.append(_written(exc))
            continue
        scans.append((np.array([t for t, _ in zeros], dtype=float),
                      np.array([d for _, d in zeros], dtype=bool),
                      np.array(extrema, dtype=float)))
    return scans


def _thetas(deltas: list) -> list:
    """ϑ at each distinct Δ of ``deltas``, in order of first appearance:
    (Δ, ϑ) as two one-element arrays, or the written exception ``theta``
    raised."""
    import semicycles.thresholds as thresholds

    thetas = []
    for delta in dict.fromkeys(deltas):
        try:
            thetas.append((np.array([delta], dtype=float),
                           np.array([thresholds.theta(delta)])))
        except Exception as exc:
            thetas.append(_written(exc))
    return thetas


def _record(workload: str, seed: int, tmp: Path) -> dict:
    """One workload run's entries of every kind in ``KINDS``."""
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
    return {"integrate": outputs, "beta_iterate": solves,
            "scans": _scans(outputs), "theta": _thetas(deltas)}


def _change(got: np.ndarray, want: np.ndarray, relative: bool) -> float:
    """max |got − want|, divided by max |want| if ``relative`` (0 where
    both are all zero)."""
    scale = float(np.abs(want).max(initial=0.0)) if relative else 1.0
    diff = float(np.abs(got - want).max(initial=0.0))
    return diff / scale if scale else (0.0 if diff == 0.0 else math.inf)


def changes(parent: dict, change: dict) -> tuple[dict, list]:
    """The largest change of each array ``KINDS`` measures, over the
    entries of two records that pair up, and a list of what does not."""
    moved, unpaired = {}, []
    for kind, (noun, shared, measured) in KINDS.items():
        moved.update((name, 0.0) for name, *_ in measured)
        old, new = parent[kind], change[kind]
        if len(old) != len(new):
            unpaired.append(f"{len(new)} {noun}, parent {len(old)}")
            continue
        for i, (a, b) in enumerate(zip(old, new)):
            if isinstance(a, str) or isinstance(b, str):
                why = None if a == b else f"{str(b):.80} vs {str(a):.80}"
            elif [x.shape for x in a] != [x.shape for x in b]:
                why = (f"sizes {[x.size for x in b]}, parent "
                       f"{[x.size for x in a]}")
            else:
                why = next((f"another {what}" for k, what in shared.items()
                            if (a[k] != b[k]).any()), None)
            if why:
                unpaired.append(f"{noun} {i}: {why}")
            elif not isinstance(a, str):
                for name, k, relative in measured:
                    moved[name] = max(moved[name],
                                      _change(b[k], a[k], relative))
    return moved, unpaired


def _digest_tree(tree: Path, seeds: list[int]):
    """Each workload and seed's key "workload@seed" and record, one at a
    time, so that only one record is alive."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        os.environ["SEMICYCLE_CACHE_DIR"] = tmp
        for workload in WORKLOADS:
            for seed in seeds:
                yield f"{workload}@{seed}", _record(workload, seed, Path(tmp))


def _lines(records: dict) -> list[str]:
    """The hash line of each record's every kind."""
    return [f"{key} {kind} {digest(entries)} {len(entries)}"
            for key, record in records.items()
            for kind, entries in record.items()]


def _in_subprocess(tree: Path, seeds: list[int]):
    """``_digest_tree`` of ``tree`` in an interpreter of its own, each
    (key, record) loaded from its pipe as it arrives."""
    argv = [sys.executable, __file__, "--tree", str(tree), "--values"]
    for seed in seeds:
        argv += ["--seed", str(seed)]
    # stderr goes to a file: a full stderr pipe would stall the child
    with tempfile.TemporaryFile() as err, subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err) as proc:
        try:
            while True:
                yield pickle.load(proc.stdout)
        except EOFError:
            pass
        if proc.wait():
            err.seek(0)
            raise SystemExit(f"integrator_digest: {tree} failed:\n"
                             f"{err.read()[-2000:].decode(errors='replace')}")


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
                         "alone: this tree's records, pickled on stdout")
    args = ap.parse_args(argv)
    seeds = args.seed or list(range(6))
    if args.parent is None:
        for key, record in _digest_tree(args.tree.resolve(), seeds):
            if args.values:
                pickle.dump((key, record), sys.stdout.buffer)
            else:
                print("\n".join(_lines({key: record})))
        return 0
    # the export bench_pair.py makes, from the script beside this one
    from bench_pair import _export, _git

    rev = _git("rev-parse", args.parent)
    # the hash lines keep no record, --values the parent's until paired
    if args.values:
        keep = dict
    else:
        def keep(records):
            return [line for key, record in records
                    for line in _lines({key: record})]
    with tempfile.TemporaryDirectory(prefix="digest-parent-") as tmp:
        _export(rev, Path(tmp))
        parent = keep(_in_subprocess(Path(tmp), seeds))
    change = _in_subprocess(ROOT, seeds)
    if args.values:
        bad = 0
        for key, new in change:
            moved, unpaired = changes(parent.pop(key), new)
            bad += bool(unpaired)
            print(f"{key} "
                  + " ".join(f"{name} {d:.2e}" for name, d in moved.items())
                  + f" ({len(new['integrate'])} trajectories, "
                  f"{len(new['beta_iterate'])} solves)"
                  + "".join(f"\n    UNPAIRED {u}" for u in unpaired[:5]))
        print(f"values against {rev[:12]}; {bad} runs do not pair up")
        return 1 if bad else 0
    change = keep(change)
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
    """Per kind of hash line (``integrate``, ``beta_iterate``, ``scans``,
    ``theta``), how many of the paired lines differ and how many there
    are."""
    kinds = {}
    for p_line, c_line in zip(parent, change):
        count = kinds.setdefault(c_line.split()[1], [0, 0])
        count[0] += p_line != c_line
        count[1] += 1
    return kinds


if __name__ == "__main__":
    sys.exit(main())
