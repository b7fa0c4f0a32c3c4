"""Hash every trajectory the benchmark's integrations produce.

For each workload (``trajectories`` and ``suites``, the serial form of
``suites_pool``) and seed, this builds the perfbench inputs, runs the
workload with the integrator's entry wrapped, and hashes the bytes of
every integration's output in order: the nodes, x and x′ arrays, or the
type name and message of the exception the integration raised.  It prints
one line per workload and seed: ``NAME@SEED <sha256> <integrations>``.

The entry is ``integrator._integrate_many``, whose groups' outputs are
recorded in submission order; a tree without it records each call of
``integrator._integrate_columns``, one integration each, so that an older
revision is compared like with like.

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
WORKLOADS = ("trajectories", "suites")


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


def _copy(out):
    return out if isinstance(out, BaseException) else \
        tuple(np.array(a) for a in out)


def _recording(integrator, outputs: list) -> tuple:
    """(name, wrapper) of the integrator's entry; the wrapper appends each
    integration's output to ``outputs``: each group's of
    ``_integrate_many`` in submission order, or, on a tree without it, each
    call's of ``_integrate_columns``."""
    if hasattr(integrator, "_integrate_many"):
        inner = integrator._integrate_many

        def lockstep(groups):
            for out in inner(groups):
                outputs.append(_copy(out))
                yield out
        return "_integrate_many", lockstep
    inner = integrator._integrate_columns

    def per_call(*args, **kwargs):
        try:
            out = inner(*args, **kwargs)
        except Exception as exc:
            outputs.append(exc)
            raise
        outputs.append(_copy(out))
        return out
    return "_integrate_columns", per_call


def _record(workload: str, seed: int, tmp: Path) -> list:
    """Every integration's output of one workload run, in order."""
    import semicycles.integrator as integrator
    import workloads

    outputs = []
    name, wrapper = _recording(integrator, outputs)
    inner = getattr(integrator, name)
    spec = workloads.WORKLOADS[workload]
    state = spec.setup(seed, tmp, 1)
    # every package module that imported the entry calls it by its own name
    homes = [m for key, m in sys.modules.items()
             if key.startswith("semicycles")
             and getattr(m, name, None) is inner]
    for mod in homes:
        setattr(mod, name, wrapper)
    try:
        spec.run(state)
    finally:
        for mod in homes:
            setattr(mod, name, inner)
    return outputs


def _digest_tree(tree: Path, seeds: list[int]) -> list[str]:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    lines = []
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        os.environ["SEMICYCLE_CACHE_DIR"] = tmp
        for workload in WORKLOADS:
            for seed in seeds:
                outputs = _record(workload, seed, Path(tmp))
                lines.append(f"{workload}@{seed} {digest(outputs)} "
                             f"{len(outputs)}")
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
