"""One repetition of one workload, in a fresh interpreter.

Started by run.py; prints one JSON line on stdout and exits 0, or exits 1
with a traceback on stderr.  The timed region is ``Workload.run``; set-up
time runs from the parent's launch timestamp (CLOCK_MONOTONIC, shared by
all processes of the machine) to the start of the timed region, so it
covers interpreter start, ``import semicycles`` and input generation.

    python3 perfbench/worker.py --workload W --seed N --rep K \
        --mode plain|traced|serial|setup --tmp DIR --launch T

Times are reported in reference seconds (see calibrate.py) and, under
"raw", in measured seconds.  ``--mode serial`` runs a pool workload with
one job; ``--mode setup`` stops when the inputs are ready and reports only
setup_s.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "serial", "setup"),
                    required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()

    import calibrate
    probe = calibrate.SpeedProbe()
    probe.start()
    import numpy
    import workloads
    from tracing import Tracer

    spec = workloads.WORKLOADS[args.workload]
    jobs = 1 if args.mode == "serial" else workloads.JOBS.get(args.workload, 1)
    state = spec.setup(args.seed, args.tmp, jobs)
    ready = time.monotonic()
    if args.mode == "setup":
        # set-up only: 50 more kernel runs give the speed of this process
        probe.stop()
        probe.sample(50)
        setup = ready - args.launch - probe.spent(args.launch, ready)[0]
        print(json.dumps({"setup_s": setup * probe.scale(),
                          "raw": {"setup_s": setup, "scale": probe.scale()}}))
        return 0
    tracer = None
    if args.mode == "traced":
        tracer = Tracer(f"{args.workload}-seed{args.seed}-rep{args.rep}")
        tracer.install()

    cpu0 = _cpu_s()
    start = time.monotonic()
    out = spec.run(state)
    end = time.monotonic()
    cpu1 = _cpu_s()
    probe.stop()
    if tracer is not None:
        tracer.uninstall()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    scale = probe.scale()
    probe_wall, probe_cpu = probe.spent(start, end)
    probe_setup, _ = probe.spent(args.launch, ready)
    wall = end - start - probe_wall
    cpu = cpu1 - cpu0 - probe_cpu
    setup = ready - args.launch - probe_setup

    checks = workloads.Checks()
    record = spec.check(state, out, checks, first=args.rep == 0)
    if args.seed == workloads.DEFAULT_SEED:
        workloads.compare_reference(spec, record, checks)
    result = {
        "wall_s": wall * scale,
        "cpu_s": cpu * scale,
        "setup_s": setup * scale,
        "peak_rss_mb": rss_kb / 1024.0,
        "raw": {"wall_s": wall, "cpu_s": cpu, "setup_s": setup,
                "scale": scale, "probe_samples": len(probe.samples)},
        "checks": len(checks.items),
        "failed_checks": checks.failed,
        "harness_checked": 0,
        "harness_failures": 0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.workload.startswith("suites"):
        result["digest"] = workloads.rows_digest(out)
        result["harness_checked"] = sum(r.checked for r in out)
        result["harness_failures"] = sum(r.failures for r in out)
    if tracer is not None:
        layers = tracer.layer_metrics(scale)
        layers.update(workloads.suite_layer_counts(
            out if args.workload.startswith("suites") else []))
        result["layers"] = layers
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
