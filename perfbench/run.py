"""Benchmark entry point for the semicycles package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs the workload once in
a fresh interpreter (perfbench/worker.py) with its own empty
SEMICYCLE_CACHE_DIR under ``.perfbench_tmp/``, so disk and lru caches start
cold every time.  Repetitions continue until the next one would end past
``--seconds`` (at least two, or two cycles with ``--trace 1``); each
end-to-end metric is the median over repetitions.  Each repetition is
followed by two set-up-only launches, so ``setup_s`` is a median over
three times as many set-ups.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced repetitions and reports its per-layer
metrics, including the tracing overhead (traced minus untraced wall_s
median).  With ``--trace 1`` on ``suites_pool`` each cycle also runs the
serial suites once, the base of ``harness.pool_speedup``.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  ``attempted`` counts the benchmark's checks plus the harness's
own instance checks over all repetitions; ``failed`` counts failed checks,
wrong outputs and repetitions that raised.  The exit status is 0 when every
check passed, 1 when one failed, 2 when the checkout is not usable (no
result line is printed then).  Per-repetition numbers go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MIN_PLAIN_REPS = 2
MIN_TRACE_CYCLES = 2
RUN_LIMIT_S = 150.0       # a run never starts a repetition past this


def _run_rep(workload: str, seed: int, rep: int, mode: str,
             timeout: float, tmp_root: Path, out_dir: Path) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=tmp_root))
    env = dict(os.environ, SEMICYCLE_CACHE_DIR=str(tmp / "cache"))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--rep", str(rep), "--mode", mode,
            "--tmp", str(tmp)]
    if mode == "traced":
        spans = out_dir / f"spans-{workload}-rep{rep}.json"
        argv += ["--trace-out", str(spans)]
    try:
        launch = time.monotonic()
        proc = subprocess.Popen(argv + ["--launch", repr(launch)], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            return {"mode": mode, "error": f"timed out after {timeout:.0f}s"}
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return {"mode": mode, "error": f"exit {proc.returncode}: {tail}"}
    result = json.loads(lines[-1])
    result["mode"] = mode
    return result


def _cycle(workload: str, trace: bool) -> list[str]:
    if not trace:
        # set-up is short and noisy, so it is sampled three times a cycle
        return ["plain", "setup", "setup"]
    # the serial repetition is the base of harness.pool_speedup and of the
    # pool's rows-identity check
    return (["serial"] if workload == "suites_pool" else []) + \
        ["plain", "traced"]


def _wall(reps: list[dict]) -> float:
    return statistics.median([r["wall_s"] for r in reps])


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _env(first: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": first.get("python", platform.python_version()),
            "numpy": first.get("numpy", "?"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": _commit(), "src_sha256": digest.hexdigest()[:16]}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout; see src_sha256)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "semicycles" / "__init__.py").is_file():
        print(f"perfbench: no src/semicycles under {ROOT}; run from the "
              f"root of a semicycles checkout", file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be ≥ 0", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    declared = bench["per_layer" if trace else "end_to_end"]

    tmp_root = ROOT / ".perfbench_tmp"
    out_dir = ROOT / ".perfbench_out"
    tmp_root.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)

    reps: list[dict] = []
    t0 = time.monotonic()
    k = 0
    while True:
        cycle_start = time.monotonic()
        for mode in _cycle(args.workload, trace):
            timeout = max(10.0, RUN_LIMIT_S + 20.0 - (time.monotonic() - t0))
            reps.append(_run_rep(args.workload, args.seed, k, mode, timeout,
                                 tmp_root, out_dir))
        k += 1
        elapsed = time.monotonic() - t0
        # the next cycle is assumed to take as long as the last one
        next_end = elapsed + (time.monotonic() - cycle_start)
        enough = k >= (MIN_TRACE_CYCLES if trace else MIN_PLAIN_REPS)
        if (enough and next_end > args.seconds) or next_end > RUN_LIMIT_S:
            break
    shutil.rmtree(tmp_root, ignore_errors=True)

    ok = [r for r in reps if "error" not in r]
    by_mode = {m: [r for r in ok if r["mode"] == m]
               for m in ("plain", "traced", "serial", "setup")}
    attempted = failed = 0
    failures: list[str] = []
    for r in reps:
        if "error" in r:
            attempted += 1
            failed += 1
            failures.append(f"{r['mode']} repetition: {r['error']}")
            continue
        if r["mode"] == "setup":
            continue
        attempted += r["checks"] + r["harness_checked"]
        failed += len(r["failed_checks"]) + r["harness_failures"]
        failures += [f"{r['mode']} {name}: {detail}"
                     for name, _, detail in r["failed_checks"]]
    digests = [r["digest"] for r in ok if "digest" in r]
    if len(digests) > 1:
        # serial and pool repetitions must give byte-identical rows
        mismatched = sum(d != digests[0] for d in digests[1:])
        attempted += len(digests) - 1
        failed += mismatched
        if mismatched:
            failures.append(f"suite rows differ in {mismatched} of "
                            f"{len(digests)} repetitions")

    plain = by_mode["plain"]
    if not plain:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    values: dict[str, list[float]] = {}
    if trace:
        traced = by_mode["traced"]
        for name in traced[0]["layers"] if traced else ():
            values[name] = [r["layers"][name] for r in traced]
        if traced:
            values["trace.overhead_s"] = [_wall(traced) - _wall(plain)]
        serial = by_mode["serial"]
        values["harness.pool_speedup"] = [
            _wall(serial) / _wall(plain) if serial else 0.0]
    else:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[name] = [r[name] for r in plain]
        values["setup_s"] = [r["setup_s"] for r in plain + by_mode["setup"]]

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            failures.append(f"metric {m['name']} was not measured")
            failed += 1
            attempted += 1
            continue
        metrics[m["name"]] = {"value": statistics.median(values[m["name"]]),
                              "unit": m["unit"]}

    env = _env(plain[0])
    summary = (f"perfbench workload={args.workload} seed={args.seed} "
               f"trace={args.trace} repetitions: " + ", ".join(
                   f"{m}={len(v)}" for m, v in by_mode.items() if v)
               + f" elapsed={time.monotonic() - t0:.1f}s")
    print(summary)
    print("env " + " ".join(f"{key}={val}" for key, val in env.items()))
    for name, metric in metrics.items():
        vals = values[name]
        q1, q3 = _quartiles(vals)
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}"
              + (f"  (median of {len(vals)}; q1 {q1:.6g}, q3 {q3:.6g})"
                 if len(vals) > 1 else ""))
    if not trace:
        raw = {key: statistics.median([r["raw"][key] for r in plain])
               for key in ("wall_s", "cpu_s", "scale")}
        raw["setup_s"] = statistics.median([r["raw"]["setup_s"]
                                  for r in plain + by_mode["setup"]])
        print(f"  measured (not speed-corrected) medians: wall "
              f"{raw['wall_s']:.4f} s, cpu {raw['cpu_s']:.4f} s, setup "
              f"{raw['setup_s']:.4f} s; reference s per measured s "
              f"{raw['scale']:.4f}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':48s} {frac:.6g}  (base: {failed} failed of "
          f"{attempted} operations = benchmark checks + harness instance "
          f"checks + rows-identity checks, over {len(reps)} repetitions)")
    for line in failures:
        print(f"FAIL {line}")
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "env": env, "repetitions": reps,
                    "metrics": metrics}, indent=1))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
