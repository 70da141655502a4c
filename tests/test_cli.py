"""Command-line contract tests: exit codes, schemas, determinism.

Each command runs in-process through main(argv) so stdout/stderr are
captured cheaply; one subprocess test covers the installed entry point.
Solver-backed commands use deliberately coarse grids to stay fast.
"""

import json
import math
import subprocess
import sys

import pytest

from bwexp.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SOLVER,
    EXIT_VERIFY,
    SWEEP_COLUMNS,
    _parse_alpha_grid,
    _parse_axis,
    _parse_n_range,
    main,
)
from bwexp.suites import SUITES

SMALL_FLAGS = [
    "--circle-points", "64", "--polygon-sides", "16",
    "--torus-points", "8", "--phases", "8", "--trials", "50",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parsing


def test_no_subcommand_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == EXIT_PARSE
    assert "error" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == EXIT_OK
    assert "bounds" in out and "sweep" in out


def test_alpha_syntax_rejected_at_parse_time(capsys):
    for bad in ("0.5", "0.5i", "i", "0.3+0.4j", "abc"):
        code, _, err = run_cli(
            capsys, ["bounds", "--n", "1", "--alpha", bad]
        )
        assert code == EXIT_PARSE, bad
        assert "RE+IMi" in err


def test_alpha_syntax_accepts_signs_and_exponents(capsys):
    # leading-dash values use the --alpha=VALUE form (argparse rule)
    for good in ("0.0+0.5i", "-0.2+0.6i", "1e-1+1e-1i", ".3-.4i"):
        code, _, _ = run_cli(capsys, ["bounds", "--n", "1",
                                      f"--alpha={good}"])
        assert code == EXIT_OK, good


def test_domain_errors_name_the_hypothesis(capsys):
    code, _, err = run_cli(
        capsys, ["bounds", "--n", "1", "--alpha", "0.5+0.0i"]
    )
    assert code == EXIT_DOMAIN
    assert "alpha_2 must be nonzero" in err

    code, _, err = run_cli(
        capsys, ["bounds", "--n", "1", "--alpha", "0.9+0.9i"]
    )
    assert code == EXIT_DOMAIN
    assert "alpha must satisfy |alpha| < 1" in err

    code, _, err = run_cli(
        capsys, ["bounds", "--n", "0", "--alpha", "0.0+0.5i"]
    )
    assert code == EXIT_DOMAIN
    assert "degree must be >= 1, got 0" in err

    code, _, err = run_cli(
        capsys, ["solve", "--n", "1", "--alpha", "0.0+0.5i", "--seed", "-1"]
    )
    assert code == EXIT_DOMAIN
    assert "seed must be >= 0, got -1" in err


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "3", "--alpha", "0.0+0.5i"],
    ["witness", "--n", "1", "--alpha", "0.0+0.5i"],
    ["solve", "--n", "1", "--alpha", "0.0+0.5i"] + SMALL_FLAGS,
    ["sweep", "--n-range", "1", "--alpha-grid", "im:0.5,re:0"] + SMALL_FLAGS,
    ["verify"],
], ids=lambda argv: argv[0])
def test_precision_below_floor_exits_domain(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--precision", "63"])
    assert code == EXIT_DOMAIN
    assert "precision must be >= 64" in err
    assert out == ""  # rejected before any row or suite runs


def test_precision_at_floor_is_accepted(capsys):
    code, out, _ = run_cli(
        capsys, ["bounds", "--n", "3", "--alpha", "0.0+0.5i", "--precision", "64"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["precision_bits"] == 64


def test_n_range_parser():
    assert _parse_n_range("2") == [2]
    assert _parse_n_range("1..3") == [1, 2, 3]
    with pytest.raises(ValueError):
        _parse_n_range("3..1")
    with pytest.raises(ValueError):
        _parse_n_range("one")


def test_axis_and_grid_parsers():
    assert _parse_axis("0") == [0.0]
    got = _parse_axis("0.1..0.9:5")
    assert got == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])
    assert _parse_axis("0.2..0.9:1") == [0.2]
    grid = _parse_alpha_grid("im:0.1..0.9:5,re:0")
    assert len(grid) == 5
    assert all(r == 0.0 for r, _ in grid)
    # documented cardinality: 3 degrees x 5 alphas = 15 sweep rows
    assert len(_parse_n_range("1..3")) * len(grid) == 15
    with pytest.raises(ValueError):
        _parse_alpha_grid("re:0")  # missing im axis
    with pytest.raises(ValueError):
        _parse_alpha_grid("q:3,re:0,im:0.5")


# ----------------------------------------------------------------- bounds


def test_bounds_json_matches_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, ["bounds", "--n", "1", "--alpha", "0.0+0.5i"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["n"] == 1
    assert report["alpha"] == {"re": 0.0, "im": 0.5}
    assert report["analytic_lower"] == pytest.approx(-1.0, abs=1e-15)
    assert report["analytic_upper"] == pytest.approx(
        8.0 + math.log(2.0), abs=1e-14
    )
    assert report["precision_bits"] == 256
    assert report["runtime_ms"] >= 0.0


def test_bounds_csv_headers_and_17_digit_floats(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bounds", "--n", "2", "--alpha", "0.3+0.4i", "--format", "csv"],
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == ("n,alpha_re,alpha_im,analytic_lower,analytic_upper,"
                        "precision_bits,runtime_ms")
    fields = lines[1].split(",")
    assert fields[0] == "2"
    assert fields[1] == "0.29999999999999999"  # %.17g of 0.3
    lo = 2.0 * math.log(2.0) - 4.0
    assert float(fields[3]) == pytest.approx(lo, abs=1e-15)


def test_bounds_out_file(tmp_path, capsys):
    target = tmp_path / "bounds.json"
    code, out, _ = run_cli(
        capsys,
        ["bounds", "--n", "1", "--alpha", "0.0+0.5i", "--out", str(target)],
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["n"] == 1


# ---------------------------------------------------------------- witness


def test_witness_report_schema_and_known_coefficients(capsys):
    code, out, _ = run_cli(
        capsys, ["witness", "--n", "1", "--alpha", "0.0+0.5i"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["n"] == 1
    assert report["vanishing_order"] == 2
    assert report["r"] == pytest.approx(2.0)  # default N/n
    coeffs = {
        (row["j"], row["k"]): complex(float(row["re"]), float(row["im"]))
        for row in report["coefficients"]
    }
    assert set(coeffs) == {(0, 0), (1, 0), (0, 1)}
    # the degree-1 interpolation weights are proportional to
    # (-2i, 0.8+0.4i, -0.8+1.6i); compare ratios so scaling drops out
    c0, c1, c2 = coeffs[(0, 0)], coeffs[(1, 0)], coeffs[(0, 1)]
    assert c1 / c0 == pytest.approx((0.8 + 0.4j) / (-2j), abs=1e-12)
    assert c2 / c0 == pytest.approx((-0.8 + 1.6j) / (-2j), abs=1e-12)
    # extended-precision fields arrive as decimal strings
    assert isinstance(report["max_residual"], str)
    assert float(report["max_residual"]) <= 1e-60
    assert isinstance(report["norm_K"]["grid_max"], str)
    assert set(report["circle_sup"]) == {"grid_max"}
    assert float(report["norm_K"]["certified_upper"]) >= float(
        report["norm_K"]["grid_max"]
    )
    assert report["witness_lower"] <= report["analytic_upper"] + 1e-6
    assert report["witness_lower"] >= 2.0 * math.log(2.0) - 2.0 - 1e-6


def test_degree_nine_certifies_at_the_default_precision(capsys):
    # at 256 bits the n = 9 witness's unit circle keeps fewer than 64 bits
    # above its rounding bound; the certificate evaluates that circle at
    # a higher precision instead of failing
    code, out, _ = run_cli(capsys, ["witness", "--n", "9", "--alpha", "0.3+0.4i"])
    assert code == EXIT_OK
    assert json.loads(out)["witness_lower"] == pytest.approx(64.0019853251688, abs=1e-9)
    argv = ["solve", "--n", "9", "--max-degree", "9", "--alpha", "0.3+0.4i"]
    code, out, _ = run_cli(capsys, argv + ["--circle-points", "256"] + SMALL_FLAGS[2:])
    assert code == EXIT_OK
    assert json.loads(out)["witness_lower"] == pytest.approx(64.0019853251688, abs=1e-9)


def test_witness_below_the_precision_floor_builds_at_the_floor(capsys):
    # at 256 bits the n = 10 witness is built at its 298-bit floor, and
    # the report prints the requested precision, as solve does
    code, out, _ = run_cli(capsys, ["witness", "--n", "10", "--alpha", "0.0+0.5i"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["precision_bits"] == 256
    assert report["witness_lower"] == pytest.approx(77.63738291120441, abs=1e-9)


@pytest.mark.parametrize("r", ["nan", "inf"])
def test_witness_radius_outside_the_hypothesis_is_a_domain_error(capsys, r):
    code, out, err = run_cli(
        capsys, ["witness", "--n", "1", "--alpha", "0.0+0.5i", "--r", r]
    )
    assert code == EXIT_DOMAIN
    assert "radius" in err
    assert out == ""


def test_witness_huge_radius_is_a_domain_error():
    # r max|a| is bounded before the circle's tables, which grow as its
    # square, are built; the run is capped at 1 GB of address space and a
    # timeout, so a missing bound fails here without exhausting memory
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from bwexp.cli import main\n"
        "sys.exit(main(['witness', '--n', '2', '--alpha', '0.0+0.5i', '--r', '1e300']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert proc.returncode == EXIT_DOMAIN, proc.stderr
    assert "r max|a| = 2.0e+300 exceeds" in proc.stderr


# ------------------------------------------------------------------ solve


def test_solve_deterministic_modulo_runtime(capsys):
    argv = ["solve", "--n", "1", "--alpha", "0.0+0.5i"] + SMALL_FLAGS
    code1, out1, err1 = run_cli(capsys, argv)
    code2, out2, err2 = run_cli(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert err1 == err2 == ""  # no coherence warnings
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("runtime_ms"), r2.pop("runtime_ms")
    assert r1 == r2
    assert r1["flags"] == []
    assert r1["lp_estimate"] == pytest.approx(2.2355737734393291, abs=1e-9)
    assert r1["oracle_lower"] <= r1["lp_estimate"] + 0.05
    assert r1["cfg"]["circle_points"] == 64
    assert r1["trials"] == 50 and r1["seed"] == 0


def test_solve_csv_row_shares_sweep_schema(capsys):
    argv = ["solve", "--n", "1", "--alpha", "0.0+0.5i",
            "--format", "csv"] + SMALL_FLAGS
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS + ("runtime_ms",))
    assert len(lines) == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "1", "--alpha", "0.0+0.5i"],
    ["sweep", "--n-range", "1", "--alpha-grid", "re:0,im:0.5"],
], ids=["solve", "sweep"])
def test_flag_defaults_are_the_solver_defaults(capsys, monkeypatch, argv):
    from dataclasses import asdict

    from bwexp.core import DEFAULT_BITS
    from bwexp.solver import DEFAULT_MAX_DEGREE, EnEstimate, LPConfig

    seen = []

    def record(n, alpha, cfg, **kwargs):
        seen.append((cfg, kwargs))
        return EnEstimate(n, alpha, 1.0, 0.5, 0.0, -1.0, 9.0, cfg,
                          kwargs["trials"], kwargs["seed"], kwargs["bits"])

    monkeypatch.setattr("bwexp.cli.en_bracket", record)
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    assert seen == [(LPConfig(), {"trials": 1000, "seed": 0, "bits": DEFAULT_BITS,
                                  "max_degree": DEFAULT_MAX_DEGREE})]
    if argv[0] == "solve":
        assert json.loads(out)["cfg"] == asdict(LPConfig())


def test_solve_grid_error_maps_to_remediation_exit(capsys, monkeypatch):
    from bwexp.solver import SolverGridError

    def explode(*args, **kwargs):
        raise SolverGridError("constraint grid too coarse at n=2")

    monkeypatch.setattr("bwexp.cli.en_bracket", explode)
    code, _, err = run_cli(
        capsys, ["solve", "--n", "2", "--alpha", "0.0+0.5i"] + SMALL_FLAGS
    )
    assert code == EXIT_SOLVER
    assert "remediation" in err and "--circle-points" in err


# ------------------------------------------------------------------ sweep


def sweep_argv(out_path, jobs=1):
    return [
        "sweep", "--n-range", "1", "--alpha-grid", "im:0.3..0.5:2,re:0",
        "--jobs", str(jobs), "--out", str(out_path),
    ] + SMALL_FLAGS


def test_sweep_csv_contract_and_parallel_byte_identity(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    code1, _, _ = run_cli(capsys, sweep_argv(serial, jobs=1))
    code2, _, _ = run_cli(capsys, sweep_argv(parallel, jobs=2))
    assert code1 == code2 == EXIT_OK
    assert serial.read_bytes() == parallel.read_bytes()

    lines = serial.read_text().strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)  # no error column when clean
    assert len(lines) == 3
    keys = []
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(SWEEP_COLUMNS)
        keys.append((int(fields[0]), float(fields[1]), float(fields[2])))
        lo, up = float(fields[3]), float(fields[4])
        wit, orc, lp = float(fields[5]), float(fields[6]), float(fields[7])
        assert lo <= up
        assert wit <= up + 1e-6 and orc <= up + 1e-6
        assert orc <= lp + 0.05
    assert keys == sorted(keys)


def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys):
    for jobs in (0, -2):
        code, _, err = run_cli(capsys, sweep_argv(tmp_path / "none.csv", jobs=jobs))
        assert code == EXIT_PARSE, jobs
        assert "--jobs: must be an int >= 1" in err
    assert not (tmp_path / "none.csv").exists()


def test_sweep_starts_no_more_workers_than_rows(tmp_path, capsys, monkeypatch):
    import multiprocessing

    started = []

    class RecordingPool:
        # records the process count and maps in this process, starting nothing
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    assert run_cli(capsys, sweep_argv(serial, jobs=1))[0] == EXIT_OK
    assert started == []
    assert run_cli(capsys, sweep_argv(pooled, jobs=64))[0] == EXIT_OK
    assert started == [2]  # two rows
    assert serial.read_bytes() == pooled.read_bytes()


def test_sweep_partial_failure_adds_error_column(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    argv = [
        "sweep", "--n-range", "1", "--alpha-grid", "im:0.0..0.5:2,re:0",
        "--out", str(out),
    ] + SMALL_FLAGS
    code, _, _ = run_cli(capsys, argv)
    assert code == EXIT_OK  # one row still succeeded
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS + ("error",))
    assert len(lines) == 3
    failed = lines[1].split(",")  # im=0.0 sorts first
    assert failed[2] == "0" and "alpha_2 must be nonzero" in failed[-1]
    good = lines[2].split(",")
    assert good[-1] == "" and good[7] != ""


def test_sweep_total_failure_exits_domain(tmp_path, capsys):
    out = tmp_path / "failed.csv"
    argv = [
        "sweep", "--n-range", "1", "--alpha-grid", "im:0,re:0",
        "--out", str(out),
    ] + SMALL_FLAGS
    code, _, err = run_cli(capsys, argv)
    assert code == EXIT_DOMAIN
    assert "every sweep row failed" in err


def test_sweep_grid_parse_errors_exit_one(capsys):
    for args in (
        ["--n-range", "3..1", "--alpha-grid", "im:0.5,re:0"],
        ["--n-range", "x", "--alpha-grid", "im:0.5,re:0"],
        ["--n-range", "1", "--alpha-grid", "re:0"],
        ["--n-range", "1", "--alpha-grid", "foo:1,re:0,im:0.5"],
    ):
        code, _, err = run_cli(capsys, ["sweep"] + args + SMALL_FLAGS)
        assert code == EXIT_PARSE, args
        assert "error" in err


def test_sweep_json_format(tmp_path, capsys):
    out = tmp_path / "rows.json"
    argv = [
        "sweep", "--n-range", "1", "--alpha-grid", "im:0.5,re:0",
        "--format", "json", "--out", str(out),
    ] + SMALL_FLAGS
    code, _, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    rows = json.loads(out.read_text())
    assert isinstance(rows, list) and len(rows) == 1
    assert rows[0]["n"] == 1
    assert set(SWEEP_COLUMNS) <= set(rows[0])


# ----------------------------------------------------------------- verify


def test_verify_quick_reports_every_suite(capsys):
    code, out, err = run_cli(capsys, ["verify", "--level", "quick"])
    assert code == EXIT_OK
    assert err == ""
    for name in ("endpoint-formulas", "interval-product-lemma",
                 "stirling-bounds", "annihilator-identity",
                 "closed-form-inequalities", "witness-vanishing",
                 "norm-refinement", "envelope-domination"):
        assert name in out, name
    assert "FAIL" not in out


def test_verify_quick_at_the_least_precision(capsys):
    # every suite reaches its verdicts at 64 bits: a circle whose grid
    # maximum is rounding noise there is evaluated again at more bits
    code, out, _ = run_cli(capsys, ["verify", "--level", "quick", "--precision", "64"])
    assert code == EXIT_OK
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == list(SUITES)
    assert all(r[2] == "0" and r[4] == "ok" for r in rows)


def test_verify_failure_exits_four(capsys, monkeypatch):
    # the real runner counts the verdicts of registered fake suites
    def passing(level, bits):
        yield from (None,) * 10

    def failing(level, bits):
        yield from (None, "x=1: exact 0.98 < bound 1.00", None, "x=3: second")

    monkeypatch.setattr("bwexp.suites.SUITES", {"passing": passing, "failing": failing})
    code, out, err = run_cli(capsys, ["verify"])
    assert code == EXIT_VERIFY
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(r[0], r[1], r[2], r[4]) for r in rows] == [
        ("passing", "10", "0", "ok"), ("failing", "4", "2", "FAIL")]
    assert err == "first failure: failing: x=1: exact 0.98 < bound 1.00\n"


def test_verify_rejects_unknown_level(capsys):
    code, _, _ = run_cli(capsys, ["verify", "--level", "exhaustive"])
    assert code == EXIT_PARSE


# ------------------------------------------------------------------- plot


SWEEP_FIXTURE = """n,alpha_re,alpha_im,analytic_lower,analytic_upper,witness_lower,oracle_lower,lp_estimate,precision_bits,seed
1,0,0.5,-1,8.6931471805599454,-0.3,1.82,2.2512941001620317,256,0
2,0,0.5,-2.6137056388801092,34.772588722239782,0.75,3.95,6.4325215198757905,256,0
3,0,0.5,-4.0563906222956647,77.004415767495722,3.1,7.2,13.328633820266035,256,0
"""


def test_plot_svg_from_csv(tmp_path, capsys):
    src = tmp_path / "sweep.csv"
    src.write_text(SWEEP_FIXTURE)
    out = tmp_path / "plot.svg"
    code, _, _ = run_cli(
        capsys, ["plot", "--input", str(src), "--out", str(out)]
    )
    assert code == EXIT_OK
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "polygon" in svg and "</svg>" in svg


def test_plot_csv_bracket_kind(tmp_path, capsys):
    src = tmp_path / "sweep.csv"
    src.write_text(SWEEP_FIXTURE)
    out = tmp_path / "plot.csv"
    code, _, _ = run_cli(
        capsys,
        ["plot", "--input", str(src), "--kind", "bracket", "--out", str(out)],
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("n,alpha_re,alpha_im,bracket_low,bracket_high,"
                        "oracle_lower")
    assert len(lines) == 4


def test_plot_reads_json_sweeps(tmp_path, capsys):
    rows = [{
        "n": 1, "alpha_re": 0.0, "alpha_im": 0.5,
        "analytic_lower": -1.0, "analytic_upper": 8.69,
        "witness_lower": -0.3, "oracle_lower": 1.82,
        "lp_estimate": 2.25, "precision_bits": 256, "seed": 0,
    }]
    src = tmp_path / "sweep.json"
    src.write_text(json.dumps(rows))
    out = tmp_path / "plot.svg"
    code, _, _ = run_cli(
        capsys, ["plot", "--input", str(src), "--out", str(out)]
    )
    assert code == EXIT_OK
    assert out.read_text().startswith("<svg")


def test_plot_malformed_inputs_exit_one(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    noise = tmp_path / "noise.csv"
    noise.write_text("just,some,words\n1,2,3\n")
    missing = tmp_path / "missing.csv"
    out = tmp_path / "plot.svg"
    for src in (empty, noise, missing):
        code, _, err = run_cli(
            capsys, ["plot", "--input", str(src), "--out", str(out)]
        )
        assert code == EXIT_PARSE, src.name
        assert "error" in err
    # rows whose payload is only errors are unusable too
    errors_only = tmp_path / "errors.csv"
    errors_only.write_text(
        ",".join(SWEEP_COLUMNS + ("error",)) +
        "\n1,0,0,,,,,,,,alpha_2 must be nonzero\n"
    )
    code, _, _ = run_cli(
        capsys, ["plot", "--input", str(errors_only), "--out", str(out)]
    )
    assert code == EXIT_PARSE
    # a good input still fails when --out has an unknown extension
    good = tmp_path / "good.csv"
    good.write_text(SWEEP_FIXTURE)
    code, _, err = run_cli(
        capsys, ["plot", "--input", str(good), "--out", str(tmp_path / "x.txt")]
    )
    assert code == EXIT_PARSE
    assert ".svg or .csv" in err


# ------------------------------------------------------------ entry point


def test_console_entry_point_roundtrip(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bwexp.cli", "bounds", "--n", "3",
         "--alpha=-0.2+0.6i"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)
    assert report["analytic_lower"] == pytest.approx(
        4.5 * math.log(3.0) - 9.0, abs=1e-12
    )
