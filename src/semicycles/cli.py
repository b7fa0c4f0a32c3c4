"""Command-line front end: subcommand dispatch and artifact emission.

Subcommands and their default output columns (CSV: ',' separator, '.'
decimal, one header row; floats printed with shortest round-trip repr):

* thresholds — ``--delta LO:HI:STEP`` alone gives ``delta,theta,psi,
  threshold`` at ρ = 1 (threshold = theta + psi); adding ``--rho`` gives
  the long-form grid ``delta,rho,theta,psi``.  Grids are cached on disk
  keyed by their parameters (see SEMICYCLE_CACHE_DIR below); an entry
  that cannot be read, was made by another package version or algorithm
  tag, or does not match its request is recomputed and overwritten, and a
  cache that cannot be used costs one stderr line, not the table.
* simulate — integrates a JSON problem file; ``t,x,dx`` at the solver
  nodes, optional ``--svg`` polyline plot.
* classify — integrates and classifies; JSON with verdict, evidence
  triples, and the extracted semicycles.
* spectrum — characteristic roots for one constant delay;
  ``branch,re,im,residual,semicycle`` (semicycle blank for real roots).
* repro — closed-form benchmark vs. the integrator;
  ``t,closed_form,integrated,error``.
* harness — one randomized suite; the suite's row schema plus a summary
  line on stderr.  Exits 1 if any instance check failed.

Numeric flags must be finite and positive (non-negative for ``--epsilon``
and ``--seed``); a bad value is a parse error.  ``main(argv)`` parses and
runs one invocation; argparse holds every default and every check.

Exit status: 0 on success, 1 on domain/numeric errors (stderr names the
originating operation), 2 on parse errors (malformed JSON reports line
and column; bad flags and values are rejected by argparse, naming the
flag).  Outputs are written
atomically (temp file then rename) and are byte-identical across runs
for a fixed seed and configuration.  ``--jobs N`` fans table cells and
harness instances out through ``harness._fan_out``, the package's one
process pool, to at most N workers; assembly stays ordered.  A table's
first cell runs in-process, so a ``--grid`` Ψ refuses fails before any
worker starts, with the line a serial run prints.

Sizes are refused before anything is allocated: a table of more than
``_MAX_CELLS`` cells (|Δ| × |ρ|) exits 1; ``--branches`` wider than
``_MAX_BRANCHES``, ``--instances`` above ``harness._MAX_INSTANCES`` and
``--jobs`` above ``harness._MAX_JOBS`` are parse errors naming the flag.

The env var SEMICYCLE_CACHE_DIR overrides the threshold-table cache
location (default ``~/.cache/semicycles``).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import classify
from .errors import DomainError, SemicycleError
from .harness import (_MAX_INSTANCES, _MAX_JOBS, SUITE_NAMES, _check_jobs,
                      _fan_out, run_suite)
from .integrator import _SCAN_TOL, integrate, problem_from_dict
from .repro import (
    EXAMPLE_NAMES,
    ExampleSpec,
    build_example_problem,
    closed_form,
    example_horizon,
)
from .spectral import char_roots
from .thresholds import psi, theta

__all__ = ["DEFAULT_SEED", "emit_threshold_table", "main", "run"]

# Fixed default seed so unseeded invocations are reproducible; any other
# value must be passed explicitly via --seed.
DEFAULT_SEED = 1729
# most cells one threshold table may have: about 100× the largest in use,
# the benchmark's 31 × 7 = 217 (the tests and README stay under 32)
_MAX_CELLS = 20_000
# most branches one --branches range may name: 100× the largest in use (6)
_MAX_BRANCHES = 600


# ----------------------------------------------------------------------
# small format helpers
# ----------------------------------------------------------------------

def _parse_range(text: str) -> tuple:
    """``LO:HI:STEP`` (or a bare value) → (lo, hi, step), all finite."""
    parts = [float(p) for p in text.split(":")]
    if len(parts) == 1:
        parts += [parts[0], 1.0]
    if len(parts) != 3 or not all(map(math.isfinite, parts)) \
            or not (parts[2] > 0 and parts[1] >= parts[0]):
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}: need finite LO:HI:STEP with STEP > 0 "
            f"and HI ≥ LO")
    return tuple(parts)


def _range_values(rng: tuple, others: int = 1) -> tuple:
    """The points of a ``LO:HI:STEP`` range; refused before any is built if
    they make more than ``_MAX_CELLS`` cells with ``others`` points on the
    table's other axis, and refused if two of them coincide once rounded."""
    lo, hi, step = rng
    span = (hi - lo) / step + 1e-9
    # a float test first: HI − LO may overflow to inf, which floor refuses
    if span >= _MAX_CELLS or (math.floor(span) + 1) * others > _MAX_CELLS:
        raise DomainError(f"threshold table of about {(span + 1) * others:.4g}"
                          f" cells is above the limit of {_MAX_CELLS}")
    n = math.floor(span) + 1
    # rounding keeps grid coordinates clean (0.1-steps print as 2.9,
    # not 2.9000000000000004) without disturbing determinism
    points = tuple(round(lo + k * step, 12) for k in range(n))
    if len(set(points)) < n:  # rows that repeat one cell
        raise DomainError(f"range {lo!r}:{hi!r}:{step!r} has points that "
                          f"coincide when rounded to 12 decimals")
    return points


def _parse_branches(text: str) -> tuple:
    """``N`` or ``A..B`` (integers, A ≤ B) → the branch indices."""
    a, dots, b = text.partition("..")
    try:
        lo = int(a)
        hi = int(b) if dots else lo
        if hi < lo:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad branches {text!r}: need an integer N or a range A..B of "
            f"integers with A ≤ B") from None
    if hi - lo >= _MAX_BRANCHES:
        raise argparse.ArgumentTypeError(
            f"bad branches {text!r}: {hi - lo + 1} branches, more than the "
            f"limit of {_MAX_BRANCHES}")
    return tuple(range(lo, hi + 1))


def _positive(kind, zero_ok: bool = False, limit=None):
    """argparse ``type=`` for a numeric flag: a finite ``kind`` above zero
    (at or above zero with ``zero_ok``), and at most ``limit`` if one is
    given.  Anything else is a parse error whose message names the flag."""
    bound = "non-negative" if zero_ok else "positive"

    def convert(text: str):
        value = kind(text)
        if not (value > 0 or zero_ok and value == 0) or math.isinf(value):
            raise argparse.ArgumentTypeError(
                f"must be finite and {bound}, got {text!r}")
        if limit is not None and value > limit:
            raise argparse.ArgumentTypeError(
                f"must be at most {limit}, got {text!r}")
        return value

    convert.__name__ = kind.__name__    # "invalid float value: 'x'"
    return convert


def _fmt(value) -> str:
    if isinstance(value, float):        # incl. numpy scalars
        return repr(float(value))
    return str(value)


def _csv(header: tuple, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(path: str | None, text: str) -> None:
    """Write to stdout, or atomically (temp + rename) to a file."""
    if path is None:
        sys.stdout.write(text)
        return
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."),
                               prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _ParseError(ValueError):
    """A file that holds no JSON document; the CLI exits 2 on it."""


def _read_json(path) -> object:
    """The JSON document in the file at ``path``, read as UTF-8.  Bytes
    that are not UTF-8, malformed JSON and nesting too deep for the parser
    raise ``_ParseError``."""
    raw = Path(path).read_bytes()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise _ParseError(f"JSON parse error: not UTF-8 ({exc.reason} at "
                          f"byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise _ParseError(f"JSON parse error at line {exc.lineno}, column "
                          f"{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise _ParseError("JSON parse error: nested too deeply") from None


def _load_problem(path: str):
    return problem_from_dict(_read_json(path))


def _originating_op(exc: BaseException) -> str | None:
    """Deepest public package function on the traceback, for diagnostics:
    a lambda, a comprehension or a function nested in another names no
    operation (``co_qualname``, which would show the nesting, is 3.11+)."""
    name = None
    tb = exc.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        code = tb.tb_frame.f_code
        fn = code.co_name
        if (mod.startswith("semicycles.") and mod != __name__
                and fn.isidentifier() and not fn.startswith("_")
                and not code.co_flags & inspect.CO_NESTED):
            name = f"{mod.rsplit('.', 1)[1]}.{fn}"
        tb = tb.tb_next
    return name


# ----------------------------------------------------------------------
# threshold tables with a disk cache
# ----------------------------------------------------------------------

# names the algorithms behind a stored ϑ and Ψ: change it whenever they can
# return other values for the same request, so that older entries are misses
_TABLE_ALGORITHM = "theta-series+psi-beta-iterate/3"


def _cache_dir() -> Path:
    override = os.environ.get("SEMICYCLE_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "semicycles"


def _psi_cell(task: tuple) -> float:
    rho, delta, grid_size = task
    return float(psi(rho, delta, grid_size=grid_size))


def _cached_table(path: Path, deltas: tuple, rhos: tuple,
                  grid_size: int) -> dict | None:
    """The table stored at ``path`` if it can be read, was made by this
    version and algorithm, and holds this request's grid with one ϑ per Δ
    and one Ψ per (Δ, ρ), each a finite float; None otherwise."""
    try:
        table = _read_json(path)
        if (table["version"] == __version__
                and table["algorithm"] == _TABLE_ALGORITHM
                # compared as written: JSON's true, 1 and -0.0 equal the
                # floats 1.0 and 0.0, but print otherwise
                and json.dumps([table["deltas"], table["rhos"]])
                == json.dumps([deltas, rhos])
                and table["grid"] == grid_size
                and len(table["theta"]) == len(deltas)
                and len(table["psi"]) == len(deltas)
                and all(len(row) == len(rhos) for row in table["psi"])
                and all(type(v) is float and math.isfinite(v)
                        for row in (table["theta"], *table["psi"])
                        for v in row)):
            return table
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return None


def _threshold_table(delta_values, rho_values, grid_size: int,
                     jobs: int) -> dict:
    """ϑ(Δ) and Ψ(ρ, Δ) over a grid, cached on disk keyed by (deltas,
    rhos, grid).  A hit replays the stored values exactly: JSON round-trips
    doubles losslessly, so emission bytes match a fresh run.  An unreadable
    or mismatched entry, one made by another version or algorithm
    included, is a miss and is rewritten, so a version or algorithm bump
    leaves one entry per request; a cache that cannot be written costs one
    stderr line."""
    _check_jobs(jobs)
    deltas = tuple(float(d) for d in delta_values)
    rhos = tuple(float(r) for r in rho_values)
    if not deltas or not rhos:
        raise DomainError("threshold table needs nonempty delta and rho "
                          "ranges")
    key_src = json.dumps({"deltas": deltas, "rhos": rhos, "grid": grid_size})
    key = hashlib.sha256(key_src.encode()).hexdigest()[:16]
    cache_dir = _cache_dir()
    cache_file = cache_dir / f"table-{key}.json"
    table = _cached_table(cache_file, deltas, rhos, grid_size)
    if table is not None:
        return table
    tasks = [(r, d, grid_size) for d in deltas for r in rhos]
    # a worker's error loses the traceback that names its operation, so the
    # first cell runs here: an argument psi refuses in every cell, such as
    # the grid, fails before any worker starts and names psi
    flat = [_psi_cell(tasks[0])] + _fan_out(_psi_cell, tasks[1:], jobs)
    table = {
        "version": __version__,
        "algorithm": _TABLE_ALGORITHM,
        "deltas": list(deltas),
        "rhos": list(rhos),
        "grid": grid_size,
        "theta": [theta(d) for d in deltas],
        "psi": [flat[i * len(rhos):(i + 1) * len(rhos)]
                for i in range(len(deltas))],
    }
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        _emit(str(cache_file), json.dumps(table))
    except OSError as exc:
        print(f"semicycles: threshold cache {cache_dir} not used: {exc}",
              file=sys.stderr)
    return table


def emit_threshold_table(delta_values, rho_values, out_path: str | None = None,
                         grid_size: int = 4096, jobs: int = 1) -> dict:
    """Materialize the grid as CSV columns delta,rho,theta,psi (stdout
    when out_path is None) and return the underlying table."""
    table = _threshold_table(delta_values, rho_values, grid_size, jobs)
    rows = [(d, r, table["theta"][i], table["psi"][i][j])
            for i, d in enumerate(table["deltas"])
            for j, r in enumerate(table["rhos"])]
    _emit(out_path, _csv(("delta", "rho", "theta", "psi"), rows))
    return table


# ----------------------------------------------------------------------
# subcommand bodies
# ----------------------------------------------------------------------

def _cmd_thresholds(args: argparse.Namespace) -> int:
    deltas = _range_values(args.delta)
    if args.rho is not None:
        emit_threshold_table(deltas, _range_values(args.rho, len(deltas)),
                             args.out, args.grid, args.jobs)
        return 0
    table = _threshold_table(deltas, (1.0,), args.grid, args.jobs)
    rows = [(d, table["theta"][i], table["psi"][i][0],
             table["theta"][i] + table["psi"][i][0])
            for i, d in enumerate(table["deltas"])]
    _emit(args.out, _csv(("delta", "theta", "psi", "threshold"), rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    problem = _load_problem(args.problem)
    traj = integrate(problem, args.horizon, step=args.step)
    rows = zip((float(t) for t in traj.ts), (float(x) for x in traj.xs),
               (float(v) for v in traj.vs))
    _emit(args.out, _csv(("t", "x", "dx"), rows))
    if args.svg is not None:
        _emit(args.svg, _svg_polyline(traj))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    problem = _load_problem(args.problem)
    traj = integrate(problem, args.horizon, step=args.step)
    outcome = classify(problem, traj, growth_factor=args.growth_factor,
                       tol=args.tol)
    doc = {
        "verdict": outcome.verdict,
        "evidence": [list(item) for item in outcome.evidence],
        "semicycles": [{"a": sc.a, "b": sc.b, "w": sc.w, "peak": sc.peak,
                        "sign": sc.sign} for sc in outcome.semicycles],
    }
    _emit(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    roots = char_roots(args.delay, 1 if args.sign == "+" else -1,
                       args.branches)
    rows = []
    for root in roots:
        oscillates = abs(root.value.imag) > 1e-12 * (1.0 + abs(root.value))
        rows.append((root.branch, root.value.real, root.value.imag,
                     root.residual,
                     root.semicycle if oscillates else ""))
    _emit(args.out,
          _csv(("branch", "re", "im", "residual", "semicycle"), rows))
    return 0


def _cmd_repro(args: argparse.Namespace) -> int:
    spec = ExampleSpec("sin_pi" if args.example == "sin" else args.example,
                       args.epsilon, args.periods)
    problem = build_example_problem(spec)
    traj = integrate(problem, example_horizon(spec), step=args.step)
    rows = []
    for t, x in zip(traj.ts, traj.xs):
        ref = closed_form(spec, float(t))
        rows.append((float(t), ref, float(x), abs(float(x) - ref)))
    _emit(args.out, _csv(("t", "closed_form", "integrated", "error"), rows))
    return 0


def _cmd_harness(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, seed=args.seed, count=args.instances,
                       jobs=args.jobs)
    _emit(args.out, _csv(report.columns, report.rows))
    print(f"suite={report.suite} seed={report.seed} "
          f"instances={report.instances} checked={report.checked} "
          f"failures={report.failures} worst={report.worst!r} "
          f"skipped={report.skipped}",
          file=sys.stderr)
    if not report.passed:
        print(f"semicycles harness: {report.suite}: {report.failures} "
              f"failing instance checks", file=sys.stderr)
        return 1
    return 0


def _svg_polyline(traj) -> str:
    """Direct path emission — one polyline, no plotting dependency: an
    800 × 320 view with a margin of 40 on every side."""
    ts = np.asarray(traj.ts, dtype=float)
    xs = np.asarray(traj.xs, dtype=float)
    lo, hi = float(xs.min()), float(xs.max())
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    lo, hi = lo - pad, hi + pad
    span_t = ts[-1] - ts[0]

    def sx(t):
        return 40.0 + (t - ts[0]) / span_t * 720.0

    def sy(x):
        return 280.0 - (x - lo) / (hi - lo) * 240.0

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 320">']
    if lo < 0.0 < hi:
        parts.append(f'  <line x1="40.000" y1="{sy(0.0):.3f}" '
                     f'x2="760.000" y2="{sy(0.0):.3f}" '
                     f'stroke="#999" stroke-width="1"/>')
    d = "M" + " L".join(f"{sx(t):.3f} {sy(x):.3f}" for t, x in zip(ts, xs))
    parts.append(f'  <path d="{d}" fill="none" stroke="#1a6" '
                 f'stroke-width="1.5"/>')
    parts.append("</svg>\n")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def run(args: argparse.Namespace) -> int:
    """Run one parsed invocation; returns the process exit status."""
    try:
        return args.handler(args)
    except _ParseError as exc:
        print(f"semicycles {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except SemicycleError as exc:
        op = _originating_op(exc) or args.subcommand
        print(f"semicycles {args.subcommand}: {op}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"semicycles {args.subcommand}: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    """The CLI's only configuration: every default and every check on a
    flag's value is written here once."""
    positive_int, positive_float = _positive(int), _positive(float)
    job_count = _positive(int, limit=_MAX_JOBS)
    parser = argparse.ArgumentParser(
        prog="semicycles",
        description="Oscillation thresholds, integration, classification, "
                    "spectra, benchmarks, and randomized verification for "
                    "second-order delay equations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    t = sub.add_parser("thresholds", help="threshold table over a grid")
    t.set_defaults(handler=_cmd_thresholds)
    t.add_argument("--delta", type=_parse_range, required=True,
                   metavar="LO:HI:STEP")
    t.add_argument("--rho", type=_parse_range, metavar="LO:HI:STEP")
    t.add_argument("--grid", type=positive_int, default=4096)
    t.add_argument("--jobs", type=job_count, default=1)
    t.add_argument("--out")

    s = sub.add_parser("simulate", help="integrate a JSON problem file")
    s.set_defaults(handler=_cmd_simulate)
    s.add_argument("--problem", required=True, metavar="PATH")
    s.add_argument("--horizon", type=positive_float, default=30.0)
    s.add_argument("--step", type=positive_float, default=0.01)
    s.add_argument("--svg", metavar="PATH")
    s.add_argument("--out")

    c = sub.add_parser("classify", help="verdict for a JSON problem file")
    c.set_defaults(handler=_cmd_classify)
    c.add_argument("--problem", required=True, metavar="PATH")
    c.add_argument("--horizon", type=positive_float, default=30.0)
    c.add_argument("--step", type=positive_float, default=0.01)
    c.add_argument("--growth-factor", type=positive_float, default=1.5)
    c.add_argument("--tol", type=positive_float, default=_SCAN_TOL)
    c.add_argument("--out")

    p = sub.add_parser("spectrum", help="characteristic roots, one delay")
    p.set_defaults(handler=_cmd_spectrum)
    p.add_argument("--delay", type=positive_float, required=True)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--branches", type=_parse_branches, default=(0, 1, 2),
                   metavar="N|A..B")
    p.add_argument("--out")

    r = sub.add_parser("repro", help="closed-form benchmark vs. integrator")
    r.set_defaults(handler=_cmd_repro)
    r.add_argument("example", choices=EXAMPLE_NAMES + ("sin",))
    r.add_argument("--epsilon", type=_positive(float, zero_ok=True),
                   default=0.0)
    r.add_argument("--periods", type=positive_int, default=3)
    r.add_argument("--step", type=positive_float, default=0.005)
    r.add_argument("--out")

    h = sub.add_parser("harness", help="one randomized verification suite")
    h.set_defaults(handler=_cmd_harness)
    h.add_argument("suite", choices=SUITE_NAMES)
    h.add_argument("--seed", type=_positive(int, zero_ok=True),
                   default=DEFAULT_SEED)
    h.add_argument("--instances", type=_positive(int, limit=_MAX_INSTANCES))
    h.add_argument("--jobs", type=job_count, default=1)
    h.add_argument("--out")

    return parser


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
