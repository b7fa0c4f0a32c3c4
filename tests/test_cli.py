"""CLI surface: column orders, anchor rows, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from semicycles import cli, harness, thresholds
from semicycles.analysis import Classification
from semicycles.cli import DEFAULT_SEED, main
from semicycles.errors import DomainError
from semicycles.harness import SUITE_NAMES
from semicycles.integrator import problem_to_dict
from semicycles.repro import ExampleSpec, build_example_problem

SQRT2 = math.sqrt(2.0)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SEMICYCLE_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture()
def problem_file(tmp_path):
    prob = build_example_problem(ExampleSpec("example3", 0.05, 10))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_to_dict(prob)))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_thresholds_anchor_rows(tmp_path):
    out = tmp_path / "thr.csv"
    assert main(["thresholds", "--delta", "0:3:0.1", "--out", str(out)]) == 0
    rows = {float(r["delta"]): r for r in _read_csv(str(out))}
    assert len(rows) == 31
    r0 = rows[0.0]
    assert math.isclose(float(r0["theta"]), math.pi / 2, abs_tol=1e-6)
    assert math.isclose(float(r0["psi"]), math.pi / 2, abs_tol=2e-3)
    assert math.isclose(float(r0["threshold"]), math.pi, abs_tol=2e-3)
    r29 = rows[2.9]
    assert math.isclose(float(r29["theta"]), SQRT2, abs_tol=1e-9)
    assert math.isclose(float(r29["psi"]), SQRT2, abs_tol=2e-3)
    assert math.isclose(float(r29["threshold"]), 2 * SQRT2, abs_tol=2e-3)


def test_threshold_grid_single_cells(tmp_path):
    out = tmp_path / "cell.csv"
    assert main(["thresholds", "--delta", "0", "--rho", "1",
                 "--out", str(out)]) == 0
    (row,) = _read_csv(str(out))
    assert list(row) == ["delta", "rho", "theta", "psi"]
    assert math.isclose(float(row["psi"]), math.pi / 2, abs_tol=2e-3)

    assert main(["thresholds", "--delta", "3", "--rho", "1",
                 "--out", str(out)]) == 0
    (row,) = _read_csv(str(out))
    assert math.isclose(float(row["psi"]), SQRT2, abs_tol=2e-3)


def test_threshold_grid_monotone_both_axes(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["thresholds", "--delta", "0:3:0.75", "--rho", "0.5:2.5:0.5",
                 "--grid", "1024", "--out", str(out)]) == 0
    rows = _read_csv(str(out))
    assert len(rows) == 25
    table = {(float(r["delta"]), float(r["rho"])): float(r["psi"])
             for r in rows}
    deltas = sorted({d for d, _ in table})
    rhos = sorted({r for _, r in table})
    for r in rhos:
        for lo, hi in zip(deltas, deltas[1:]):
            assert table[(hi, r)] <= table[(lo, r)] + 1e-9
    for d in deltas:
        for lo, hi in zip(rhos, rhos[1:]):
            assert table[(d, hi)] <= table[(d, lo)] + 1e-9


def test_cache_hit_replays_fresh_bytes(tmp_path):
    args = ["thresholds", "--delta", "0:2:1", "--rho", "0.5:1.5:0.5",
            "--grid", "512"]
    fresh, cached, refresh = (tmp_path / n for n in ("a.csv", "b.csv",
                                                     "c.csv"))
    assert main(args + ["--out", str(fresh)]) == 0
    cache_dir = tmp_path / "cache"
    assert any(cache_dir.glob("table-*.json"))
    assert main(args + ["--out", str(cached)]) == 0
    assert cached.read_bytes() == fresh.read_bytes()
    # wipe the cache: a recomputation must reproduce the same bytes
    for f in cache_dir.glob("table-*.json"):
        f.unlink()
    assert main(args + ["--out", str(refresh)]) == 0
    assert refresh.read_bytes() == fresh.read_bytes()


def _edit_entry(key, fn):
    def damage(text):
        table = json.loads(text)
        table[key] = fn(table[key])
        return json.dumps(table)
    return damage


@pytest.mark.parametrize("damage", [
    lambda text: text[:len(text) // 2],       # truncated mid-write
    lambda text: json.dumps(json.loads(text)["theta"]),
    _edit_entry("rhos", lambda rhos: rhos[:1]),
    _edit_entry("grid", lambda grid: grid * 2),
    _edit_entry("theta", lambda theta: theta[:-1]),
    _edit_entry("psi", lambda psi: psi[:-1]),
    _edit_entry("psi", lambda psi: [row[:-1] for row in psi]),
    _edit_entry("algorithm", lambda tag: tag + "-stale"),
    _edit_entry("version", lambda version: "0.0.0"),
], ids=["truncated", "list", "other_rhos", "other_grid", "short_theta",
        "short_psi", "short_psi_rows", "stale_algorithm", "stale_version"])
def test_damaged_cache_entry_is_recomputed(tmp_path, damage):
    args = ["thresholds", "--delta", "0:2:1", "--rho", "0.5:1.5:0.5",
            "--grid", "512"]
    fresh, again = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(fresh)]) == 0
    (entry,) = (tmp_path / "cache").glob("table-*.json")
    stored = entry.read_text()
    entry.write_text(damage(stored))
    assert main(args + ["--out", str(again)]) == 0
    assert again.read_bytes() == fresh.read_bytes()
    assert entry.read_text() == stored


@pytest.mark.parametrize("name, field", [("_TABLE_ALGORITHM", "algorithm"),
                                         ("__version__", "version")])
def test_cache_key_names_version_and_algorithm(tmp_path, monkeypatch, name,
                                               field):
    args = ["thresholds", "--delta", "0", "--rho", "1", "--grid", "512",
            "--out", str(tmp_path / "a.csv")]
    assert main(args) == 0
    old = getattr(cli, name)
    monkeypatch.setattr(cli, name, old + "-next")
    assert main(args) == 0
    stored = sorted(json.loads(f.read_text())[field]
                    for f in (tmp_path / "cache").glob("table-*.json"))
    assert stored == [old, old + "-next"]


# the tags of tables whose ϑ came from plain bisection, before ``_root``
# (/1), and from the series in numpy's vector power, before the plain-float
# one (/2)
_STALE_TABLE_ALGORITHMS = ("theta-series+psi-beta-iterate/1",
                           "theta-series+psi-beta-iterate/2")


def test_table_stored_under_bisection_tag_is_recomputed(tmp_path,
                                                        monkeypatch, capsys):
    """A table stored under an older tag is a miss, not replayed."""
    args = ["thresholds", "--delta", "0.5:1:0.5", "--grid", "512"]
    current = cli._TABLE_ALGORITHM
    cache_dir = tmp_path / "cache"
    for stale_tag in _STALE_TABLE_ALGORITHMS:
        assert current != stale_tag
        monkeypatch.setattr(cli, "_TABLE_ALGORITHM", stale_tag)
        assert main(args) == 0
        capsys.readouterr()
        (entry,) = cache_dir.glob("table-*.json")
        stale = json.loads(entry.read_text())
        stale["theta"] = [1.0] * len(stale["theta"])  # marks a replay
        entry.write_text(json.dumps(stale))
        monkeypatch.setattr(cli, "_TABLE_ALGORITHM", current)
        assert main(args) == 0
        replayed = capsys.readouterr().out
        assert json.loads(entry.read_text()) == stale
        assert len(list(cache_dir.glob("table-*.json"))) == 2
        for f in cache_dir.glob("table-*.json"):
            f.unlink()
        assert main(args) == 0
        assert replayed == capsys.readouterr().out
        for f in cache_dir.glob("table-*.json"):
            f.unlink()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_file"])
def test_unusable_cache_still_prints_the_table(tmp_path, monkeypatch, capsys,
                                               below):
    args = ["thresholds", "--delta", "0:0.2:0.1", "--grid", "512"]
    assert main(args) == 0
    fresh = capsys.readouterr().out
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    cache = blocker / below if below else blocker
    monkeypatch.setenv("SEMICYCLE_CACHE_DIR", str(cache))
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out == fresh
    assert err.count("\n") == 1 and str(cache) in err
    assert blocker.read_text() == ""


def test_repro_error_column_small(tmp_path):
    out = tmp_path / "repro.csv"
    assert main(["repro", "example3", "--epsilon", "0", "--periods", "3",
                 "--out", str(out)]) == 0
    rows = _read_csv(str(out))
    assert list(rows[0]) == ["t", "closed_form", "integrated", "error"]
    assert max(float(r["error"]) for r in rows) < 1e-6


def test_spectrum_frozen_table(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--delay", "4", "--sign", "+",
                 "--branches", "0..2", "--out", str(out)]) == 0
    rows = _read_csv(str(out))
    got = {(round(float(r["re"]), 2), round(float(r["im"]), 2))
           for r in rows}
    assert got == {(0.34, 0.37), (-0.21, 1.5), (-0.57, 3.05),
                   (-0.77, 4.63), (-0.92, 6.21)}
    assert all(float(r["residual"]) < 1e-10 for r in rows)
    assert all(r["semicycle"] != "" for r in rows)


def test_spectrum_real_root_leaves_semicycle_blank(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--delay", "1", "--sign", "-",
                 "--branches", "0", "--out", str(out)]) == 0
    rows = _read_csv(str(out))
    real = [r for r in rows if abs(float(r["im"])) < 1e-9]
    assert real and all(r["semicycle"] == "" for r in real)
    assert all(float(r["re"]) > 0 for r in real)


@pytest.mark.parametrize("argv, status, message", [
    (["--delay", "0.05", "--sign", "-"], 0, ""),
    (["--delay", "0.01"], 0, ""),
    (["--delay", "0.1", "--branches", "0..5"], 0, ""),
    (["--delay", "1e-160"], 1,
     "spectral.char_roots: root polish overflowed"),
    (["--delay", "5e-324", "--branches", "0"], 1,
     "spectral.char_roots: root polish left residual nan at branch 0"),
    (["--delay", "4", "--branches", "3..1"], 2, "bad branches '3..1'"),
    (["--delay", "4", "--branches", "1..x"], 2, "bad branches '1..x'"),
], ids=["large_roots_minus", "large_roots_plus", "six_branches",
        "overflow", "nan", "reversed_branches", "non_integer_branches"])
def test_spectrum_residual_is_relative_and_failures_are_named(
        tmp_path, capsys, argv, status, message):
    out = tmp_path / "spec.csv"
    try:
        code = main(["spectrum", *argv, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == status
    assert message in err and "Traceback" not in err
    if status:
        assert not out.exists()
        return
    rows = _read_csv(str(out))
    assert rows
    for r in rows:
        size2 = float(r["re"]) ** 2 + float(r["im"]) ** 2
        assert float(r["residual"]) <= 1e-10 * max(1.0, size2)


def test_simulate_csv_and_svg(tmp_path, problem_file):
    out, svg = tmp_path / "sim.csv", tmp_path / "sim.svg"
    assert main(["simulate", "--problem", problem_file, "--horizon", "12",
                 "--out", str(out), "--svg", str(svg)]) == 0
    rows = _read_csv(str(out))
    assert list(rows[0]) == ["t", "x", "dx"]
    assert float(rows[0]["t"]) == 0.0
    assert math.isclose(float(rows[0]["dx"]), SQRT2, rel_tol=1e-12)
    text = svg.read_text()
    assert text.startswith("<svg") and "<path" in text


def test_classify_json_document(tmp_path, problem_file):
    out = tmp_path / "verdict.json"
    assert main(["classify", "--problem", problem_file, "--horizon", "28",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] in Classification.VERDICTS
    assert doc["semicycles"], "expected extracted arcs"
    assert set(doc["semicycles"][0]) == {"a", "b", "w", "peak", "sign"}
    assert all(len(item) == 3 for item in doc["evidence"])


def test_hand_authored_problem_schema(tmp_path):
    # the documented schema, written by hand rather than via problem_to_dict
    doc = {
        "p": {"breakpoints": [0.0, 40.0], "segments": [[1.0]],
              "left": 1.0, "right": 1.0},
        "tau": {"breakpoints": [0.0, 40.0], "segments": [[1.0]],
                "left": 1.0, "right": 1.0},
        "start": 0.0,
        "history": {"breakpoints": [-1.0, 0.0], "segments": [[1.0]],
                    "left": 1.0, "right": 1.0},
        "initial_value": 1.0,
        "initial_slope": 0.0,
    }
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "verdict.json"
    assert main(["classify", "--problem", str(path), "--horizon", "40",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] in Classification.VERDICTS


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": [1,\n 2')
    assert main(["simulate", "--problem", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_schema_violation_exits_1_naming_operation(tmp_path, capsys):
    partial = tmp_path / "partial.json"
    partial.write_text('{"start": 0.0}')
    assert main(["simulate", "--problem", str(partial)]) == 1
    assert "problem_from_dict" in capsys.readouterr().err


def test_domain_error_names_originating_operation(problem_file, capsys):
    # far too short a window for any verdict
    assert main(["classify", "--problem", problem_file,
                 "--horizon", "2"]) == 1
    assert "classify" in capsys.readouterr().err


def test_non_finite_breakpoint_names_operation(tmp_path, capsys):
    data = problem_to_dict(build_example_problem(
        ExampleSpec("example3", 0.05, 10)))
    data["p"]["breakpoints"] = [0.0, math.nan]
    data["p"]["segments"] = [[1.0]]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    assert "NaN" in path.read_text()
    assert main(["classify", "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert "signals.signal_from_dict" in err and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, op", [
    (lambda d: d.update(start="abc"), "problem_from_dict"),
    (lambda d: d.update(start=[1]), "problem_from_dict"),
    (lambda d: d["p"].update(segments=5), "signal_from_dict"),
    (lambda d: [d], "problem_from_dict"),
], ids=["start_text", "start_list", "segments_number", "top_level_list"])
def test_malformed_problem_exits_1_naming_operation(tmp_path, capsys, edit,
                                                   op):
    data = problem_to_dict(build_example_problem(
        ExampleSpec("example3", 0.05, 10)))
    doc = edit(data) or data
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert op in err and "Traceback" not in err


def test_bad_range_is_a_parse_error():
    with pytest.raises(SystemExit) as exc:
        main(["thresholds", "--delta", "3:0:0.1"])
    assert exc.value.code == 2


def test_harness_reruns_and_jobs_are_byte_identical(tmp_path):
    a, b, c = (tmp_path / n for n in ("h1.csv", "h2.csv", "h3.csv"))
    base = ["harness", "wronskian", "--seed", "7", "--instances", "4"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


@pytest.mark.parametrize("argv, flag", [
    (["repro", "example2", "--step", "-0.01"], "--step"),
    (["repro", "example2", "--periods", "0"], "--periods"),
    (["thresholds", "--delta", "0", "--grid", "0"], "--grid"),
    (["harness", "decay", "--instances", "0"], "--instances"),
    (["harness", "decay", "--jobs", "0"], "--jobs"),
    (["repro", "example2", "--epsilon", "-1"], "--epsilon"),
    (["harness", "margins", "--seed", "-1"], "--seed"),
    (["classify", "--problem", "p.json", "--tol", "nan"], "--tol"),
    (["spectrum", "--delay", "inf"], "--delay"),
    (["thresholds", "--delta", "nan"], "--delta"),
    (["thresholds", "--delta", "0:inf:1"], "--delta"),
    (["nonsense"], "subcommand"),
], ids=["negative_step", "zero_periods", "zero_grid", "zero_instances",
        "zero_jobs", "negative_epsilon", "negative_seed", "nan_tol",
        "inf_delay", "nan_delta", "inf_range", "unknown_subcommand"])
def test_rejected_value_is_a_parse_error_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["thresholds", "--delta", "0"],
    ["harness", "decay"],
], ids=["thresholds", "harness"])
def test_worker_count_above_limit_is_a_parse_error(capsys, argv):
    limit = harness._MAX_JOBS
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", str(limit + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --jobs: must be at most {limit}" in err
    assert "Traceback" not in err
    # the default, every count in use and the limit itself parse
    parser = cli._build_parser()
    assert parser.parse_args(argv).jobs == 1
    for jobs in (1, 2, 4, limit):
        assert parser.parse_args(argv + ["--jobs", str(jobs)]).jobs == jobs


def test_grid_above_limit_exits_with_one_line(capsys):
    limit = thresholds._MAX_GRID
    assert main(["thresholds", "--delta", "1", "--grid",
                 str(limit + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"semicycles thresholds: thresholds.psi: grid_size {limit + 1} is "
        f"above the limit of {limit}"]


def test_parser_holds_the_defaults():
    args = cli._build_parser().parse_args(["harness", "margins"])
    assert args.seed == DEFAULT_SEED and args.instances is None
    assert args.handler is cli._cmd_harness


def test_module_entry_point_matches_main(capsys):
    argv = ["spectrum", "--delay", "1"]
    assert main(argv) == 0
    in_process = capsys.readouterr().out.encode()
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "semicycles", *argv],
                          env=env, capture_output=True)
    assert done.returncode == 0
    assert done.stdout == in_process


def test_repro_accepts_sin_alias(tmp_path):
    out = tmp_path / "sin.csv"
    assert main(["repro", "sin", "--periods", "1", "--out", str(out)]) == 0
    rows = _read_csv(str(out))
    assert max(float(r["error"]) for r in rows) < 1e-6


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_grid_above_limit_refused_before_any_worker(no_pool, capsys, jobs):
    limit = thresholds._MAX_GRID
    assert main(["thresholds", "--delta", "1", "--rho", "1:2:1", "--grid",
                 str(limit + 1), "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"semicycles thresholds: thresholds.psi: grid_size {limit + 1} is "
        f"above the limit of {limit}"]


def test_cache_hit_solves_nothing(tmp_path, monkeypatch):
    args = ["thresholds", "--delta", "0:1:0.5", "--rho", "0.5:1:0.5",
            "--grid", "512"]
    cold, hit = tmp_path / "cold.csv", tmp_path / "hit.csv"
    assert main(args + ["--out", str(cold)]) == 0

    def solve(*_):
        raise AssertionError("a cache hit solved a cell")

    monkeypatch.setattr(cli, "psi", solve)
    monkeypatch.setattr(cli, "_fan_out", solve)
    assert main(args + ["--out", str(hit)]) == 0
    assert cold.read_bytes() == hit.read_bytes()


@pytest.mark.parametrize("jobs", [0, harness._MAX_JOBS + 1, 2.0, True])
def test_threshold_table_refuses_worker_count_before_any_pool(no_pool, jobs):
    # cold, and again once the table is cached
    for _ in range(2):
        with pytest.raises(DomainError, match="workers; need an int"):
            cli.emit_threshold_table((0.0, 1.0), (1.0,), grid_size=64,
                                     jobs=jobs)
        cli.emit_threshold_table((0.0, 1.0), (1.0,), grid_size=64)


def test_range_values_refuses_cells_above_limit_before_building():
    limit = cli._MAX_CELLS
    assert len(cli._range_values((0.0, limit - 1.0, 1.0))) == limit
    assert len(cli._range_values((0.0, 99.0, 1.0), limit // 100)) == 100
    for rng, others in (((0.0, float(limit), 1.0), 1),
                        ((0.0, 100.0, 1.0), limit // 100),
                        ((0.0, 1e6, 1e-4), 1),
                        ((-1e308, 1e308, 1e-300), 1)):
        tracemalloc.start()
        with pytest.raises(DomainError, match=f"above the limit of {limit}"):
            cli._range_values(rng, others)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 10_000


@pytest.mark.parametrize("argv", [
    ["thresholds", "--delta", "0:1000000:0.0001"],
    ["thresholds", "--delta", "0:199:1", "--rho", "0:100:1"],
    ["thresholds", "--delta=-1e308:1e308:1e-300"],
], ids=["delta_cells", "delta_times_rho", "overflowing_range"])
def test_table_above_cell_limit_exits_with_one_line(no_pool, capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "semicycles thresholds: thresholds: threshold table of about ")
    assert lines[0].endswith(f"cells is above the limit of {cli._MAX_CELLS}")


def test_branch_range_above_limit_is_a_parse_error(capsys):
    limit = cli._MAX_BRANCHES
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--delay", "1", "--branches", f"5..{5 + limit}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert (f"argument --branches: bad branches '5..{5 + limit}': "
            f"{limit + 1} branches, more than the limit of {limit}") in err
    assert "Traceback" not in err
    parsed = cli._build_parser().parse_args(
        ["spectrum", "--delay", "1", "--branches", f"5..{4 + limit}"])
    assert len(parsed.branches) == limit


def test_instance_count_above_limit_is_a_parse_error(capsys):
    limit = harness._MAX_INSTANCES
    with pytest.raises(SystemExit) as exc:
        main(["harness", "decay", "--instances", str(limit + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --instances: must be at most {limit}" in err
    assert "Traceback" not in err
    parsed = cli._build_parser().parse_args(
        ["harness", "decay", "--instances", str(limit)])
    assert parsed.instances == limit


# argv pieces per subcommand for the property below: small in-range
# sizes, malformed and non-finite values, and sizes above a limit only
# where they are refused before any work
_RANGES = ("0", "0.5", "0:1:0.5", "1:1.5:0.25", "0.5:2:0.5", "3:0:1",
           "0:1:0", "1:2", "x", "nan", "0:inf:1", "0:1000000:0.0001")
_JOBS = ("1", "2", str(harness._MAX_JOBS + 1))
_FLAGS = {
    "thresholds": (("--delta", _RANGES), ("--rho", _RANGES + (None,)),
                   ("--grid", ("64", "128", "63", "0", "-5", "x",
                               str(thresholds._MAX_GRID + 1), None)),
                   ("--jobs", _JOBS + (None,))),
    "simulate": (("--horizon", ("2", "5", "0", "nan", "1e12", None)),
                 ("--step", ("0.01", "0.05", "-1", "1e-9", None)),
                 ("--svg", ("svg", None))),
    "classify": (("--horizon", ("5", "20", "inf", None)),
                 ("--step", ("0.01", "0.05", None)),
                 ("--growth-factor", ("1.5", "0", "2", None)),
                 ("--tol", ("1e-10", "1e-3", "1e-300", "0", "nan", None))),
    "spectrum": (("--delay", ("1", "4", "0.01", "0", "nan", "1e-300",
                              "1e300")),
                 ("--sign", ("+", "-", "*", None)),
                 ("--branches", ("0..2", "3", "-2..1", "5..1", "x",
                                 f"0..{cli._MAX_BRANCHES}", None))),
    "repro": (("--epsilon", ("0", "0.05", "-1", "nan", None)),
              ("--periods", ("1", "2", "0", "1000000000", None)),
              ("--step", ("0.005", "0.05", "0", None))),
    "harness": (("--seed", ("0", "7", "-1", str(2 ** 70), None)),
                ("--instances", ("1", "2", "0",
                                 str(harness._MAX_INSTANCES + 1))),
                ("--jobs", _JOBS + (None,))),
}
_POSITIONAL = {"repro": ("example2", "example3", "sin", "bogus"),
               "harness": SUITE_NAMES + ("bogus",)}
_PROBLEMS = ("good", "malformed", "schema", "missing")


def _problem_path(tmp: Path, kind: str) -> str:
    path = tmp / f"{kind}.json"
    if kind == "good":
        prob = build_example_problem(ExampleSpec("example3", 0.05, 2))
        path.write_text(json.dumps(problem_to_dict(prob)))
    elif kind == "malformed":
        path.write_text("{not json")
    elif kind == "schema":
        path.write_text(json.dumps({"p": 1}))
    return str(path)


@pytest.mark.parametrize("sub", sorted(_FLAGS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_exits_cleanly(capsys, sub, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [sub]
        if sub in _POSITIONAL:
            argv.append(data.draw(st.sampled_from(_POSITIONAL[sub])))
        if sub in ("simulate", "classify"):
            argv += ["--problem", _problem_path(
                tmp, data.draw(st.sampled_from(_PROBLEMS)))]
        for flag, values in _FLAGS[sub]:
            value = data.draw(st.sampled_from(values), label=flag)
            if value is not None:
                argv += [f"{flag}={tmp / value}" if flag == "--svg"
                         else f"{flag}={value}"]
        out = tmp / "out.txt"
        argv += ["--out", str(out)]
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        err = capsys.readouterr().err
        assert status in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if status == 0:
            assert out.exists(), argv
        elif not (sub == "harness" and "failing instance checks" in err):
            left = [p.name for p in tmp.iterdir() if p.name.startswith("out")]
            assert left == [], argv
