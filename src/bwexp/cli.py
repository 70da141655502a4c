"""Batch command-line front end.

Subcommands: bounds (analytic endpoints only), witness (construction
report), solve (full bracket: analytic endpoints, witness, oracle and
LP), sweep (parameter grid to CSV or JSON), verify (invariant suites),
plot (SVG or plot-ready CSV from a sweep file).

Exit codes are a stable contract: 0 success, 1 parse or I/O error, 2
invalid math arguments (a named hypothesis is violated), 3 solver
remediation needed (a working-set LP ended with a nonzero HiGHS
status), 4 verification failure.

Every command is deterministic given its full flag set.  Sweep rows
come from one bracket per conjugate pair: e_n(alpha) = e_n(conj alpha)
(solver.en_bracket), so alpha and conj(alpha) share the bracket of
re + i|im|, computed once.  A share-nothing worker pool computes the
brackets, and the rows are assembled in sorted (n, alpha_re, alpha_im)
order, so --jobs never changes the output bytes.  A row whose alpha
violates a hypothesis names that alpha in its error.
Floats in CSV are printed with 17 significant digits ('.' decimal
separator); extended-precision fields in the witness report are printed
as full-precision decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re as _re
import sys
import time
from operator import attrgetter

from mpmath import mp

from .analytic_bounds import theorem2_bounds
from .construct import witness_certificate
from .core import DEFAULT_BITS, AlphaParam, make_alpha, require_alpha, require_bits
from .solver import DEFAULT_MAX_DEGREE, LPConfig, SolverGridError, en_bracket

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# Every bracket column and the EnEstimate attribute it reports.
_BRACKET_FIELDS = {
    "n": "n",
    "alpha_re": "alpha.re",
    "alpha_im": "alpha.im",
    "analytic_lower": "analytic_lower",
    "analytic_upper": "analytic_upper",
    "witness_lower": "witness_log_value",
    "oracle_lower": "oracle_log_value",
    "lp_estimate": "lp_log_value",
    "precision_bits": "precision_bits",
    "seed": "seed",
}
SWEEP_COLUMNS = tuple(_BRACKET_FIELDS)
_KEY_COLUMNS = ("n", "alpha_re", "alpha_im")
# the bracket's values: every column that is neither a key nor a run setting
_VALUE_COLUMNS = tuple(
    c for c in SWEEP_COLUMNS if c not in _KEY_COLUMNS + ("precision_bits", "seed")
)

# The LPConfig field behind each grid flag.
_GRID_FLAGS = (
    ("--circle-points", "circle_points", "constraint circle grid size"),
    ("--polygon-sides", "polygon_sides", "outer polygon directions per point"),
    ("--torus-points", "torus_points", "objective torus grid per axis"),
    ("--phases", "phase_samples", "objective phase samples"),
)

_ALPHA_PATTERN = _re.compile(
    r"^(?P<re>[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


class _Parser(argparse.ArgumentParser):
    """argparse with parse errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _alpha_flag(text: str):
    """Parse `RE+IMi` (explicit sign before the imaginary part)."""
    m = _ALPHA_PATTERN.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            f"alpha must look like RE+IMi (e.g. 0.3+0.4i, 0.0-0.5i), got {text!r}"
        )
    return float(m.group("re")), float(m.group("im"))


def _jobs_flag(text: str) -> int:
    """Parse a worker count, an int >= 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an int >= 1, got {text!r}")
    return int(text)


def _checked_alpha(re: float, im: float) -> AlphaParam:
    """Every command reports the theorem's bracket, so both hypotheses apply."""
    return require_alpha(make_alpha(re, im), theorem=True)


def _mp_str(x, bits: int) -> str:
    """Full-precision decimal string for an extended-precision value."""
    digits = int(bits * 0.30103) + 3
    with mp.workprec(bits):
        return mp.nstr(mp.mpf(x), digits, strip_zeros=True)


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(report, out: str | None) -> None:
    _emit(json.dumps(report, indent=2) + "\n", out)


def _csv_cells(row: dict, columns) -> list:
    """row's values in column order: floats to 17 digits, '' for a missing key."""
    values = (row.get(c, "") for c in columns)
    return ["%.17g" % v if isinstance(v, float) else v for v in values]


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(_csv_cells(r, columns) for r in rows)
    return buf.getvalue()


def _bracket_row(est) -> dict:
    """One bracket as a dict keyed by SWEEP_COLUMNS."""
    return {col: attrgetter(attr)(est) for col, attr in _BRACKET_FIELDS.items()}


def _parse_n_range(text: str):
    """'1..3' -> [1, 2, 3]; '2' -> [2]."""
    t = text.strip()
    m = _re.match(r"^(-?\d+)\.\.(-?\d+)$", t)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
    elif _re.match(r"^-?\d+$", t):
        lo = hi = int(t)
    else:
        raise ValueError(f"bad n range {text!r}; expected N or LO..HI")
    if lo > hi:
        raise ValueError(f"empty n range {text!r}")
    return list(range(lo, hi + 1))


def _parse_axis(text: str):
    """'0.1..0.9:5' -> 5 evenly spaced values; '0' -> [0.0].

    Each value is the exact (lo (count-1-i) + hi i)/(count-1), rounded
    once (a Python int / int is correctly rounded), so the endpoints are
    lo and hi, a symmetric axis holds exact negatives (conjugate pairs
    share a bracket) and its midpoint is 0.
    """
    t = text.strip()
    m = _re.match(r"^([^.]*(?:\.[^.]*)?)\.\.([^:]+):(\d+)$", t)
    if m:
        lo, hi, count = float(m.group(1)), float(m.group(2)), int(m.group(3))
        if count < 1:
            raise ValueError(f"axis count must be >= 1 in {text!r}")
        if not math.isfinite(lo) or not math.isfinite(hi):
            raise ValueError(f"axis endpoints must be finite in {text!r}")
        if count == 1:
            return [lo]
        (lp, lq), (hp, hq) = lo.as_integer_ratio(), hi.as_integer_ratio()
        return [(lp * hq * (count - 1 - i) + hp * lq * i) / (lq * hq * (count - 1))
                for i in range(count)]
    return [float(t)]


def _parse_alpha_grid(text: str):
    """'im:0.1..0.9:5,re:0' -> cross product of the re and im axes."""
    axes = {}
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        key, _, rest = clause.partition(":")
        key = key.strip()
        if key not in ("re", "im") or not rest:
            raise ValueError(f"bad alpha grid clause {clause!r}; expected re:... or im:...")
        axes[key] = _parse_axis(rest)
    if "re" not in axes or "im" not in axes:
        raise ValueError("alpha grid must set both re and im axes")
    return [(r, i) for r in axes["re"] for i in axes["im"]]


def _add_precision(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=int, default=DEFAULT_BITS,
                   help="working precision in bits (default %(default)s)")


def _add_output(p: argparse.ArgumentParser, default_format: str = "json") -> None:
    p.add_argument("--out", default="-", help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default=default_format,
                   help="output format (default %(default)s)")
    _add_precision(p)


def _add_point(p: argparse.ArgumentParser) -> None:
    """The flags of a single-(n, alpha) report: bounds, witness and solve."""
    p.add_argument("--n", type=int, required=True, help="polynomial degree (>= 1)")
    p.add_argument("--alpha", type=_alpha_flag, required=True,
                   help="curve exponent, RE+IMi (e.g. 0.0+0.5i)")
    _add_output(p)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    for flag, name, text in _GRID_FLAGS:
        p.add_argument(flag, dest=name, type=int, default=getattr(LPConfig, name),
                       help=f"{text} (default %(default)s)")
    p.add_argument("--trials", type=int, default=1000,
                   help="random-search trials (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="random-search seed (default %(default)s)")
    p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE,
                   help="LP size guard; raise to allow larger n (default %(default)s)")


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    a = _checked_alpha(*args.alpha)
    lo, up = theorem2_bounds(args.n, a, args.precision)
    values = {"analytic_lower": float(lo), "analytic_upper": float(up),
              "precision_bits": args.precision,
              "runtime_ms": (time.perf_counter() - t0) * 1000.0}
    if args.format == "json":
        _emit_json({"n": args.n, "alpha": {"re": a.re, "im": a.im}, **values}, args.out)
    else:
        row = {"n": args.n, "alpha_re": a.re, "alpha_im": a.im, **values}
        _emit(_csv_text(tuple(row), [row]), args.out)
    return EXIT_OK


def cmd_witness(args) -> int:
    t0 = time.perf_counter()
    a = _checked_alpha(*args.alpha)
    bits = args.precision
    w, normk, circle, lower = witness_certificate(
        args.n, a, r=args.r, grid=512, bits=bits
    )
    lo, up = theorem2_bounds(args.n, a, bits)
    head = {"r": float(w.r if args.r is None else args.r),
            "vanishing_order": w.order, "precision_bits": bits}
    tail = {"witness_lower": float(lower), "analytic_lower": float(lo),
            "analytic_upper": float(up),
            "runtime_ms": (time.perf_counter() - t0) * 1000.0}
    if args.format == "json":
        coeffs = sorted(w.p.coeffs.items(), key=lambda it: (it[0][0] + it[0][1], it[0][1]))
        _emit_json({
            "n": args.n,
            "alpha": {"re": a.re, "im": a.im},
            **head,
            "coefficients": [
                {"j": j, "k": k, "re": _mp_str(c.real, bits), "im": _mp_str(c.imag, bits)}
                for (j, k), c in coeffs
            ],
            "max_residual": _mp_str(w.max_residual, bits),
            "norm_K": {
                "grid_max": _mp_str(normk.grid_max, bits),
                "certified_upper": _mp_str(normk.certified_upper, bits),
            },
            "circle_sup": {"grid_max": _mp_str(circle.grid_max, bits)},
            **tail,
        }, args.out)
    else:
        row = {"n": args.n, "alpha_re": a.re, "alpha_im": a.im, **head,
               "max_residual": _mp_str(w.max_residual, bits),
               "norm_k_grid": _mp_str(normk.grid_max, bits),
               "norm_k_upper": _mp_str(normk.certified_upper, bits),
               "circle_grid": _mp_str(circle.grid_max, bits), **tail}
        _emit(_csv_text(tuple(row), [row]), args.out)
    return EXIT_OK


def _cfg_from_args(args) -> LPConfig:
    return LPConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(LPConfig)})


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    a = _checked_alpha(*args.alpha)
    cfg = _cfg_from_args(args)
    est = en_bracket(
        args.n, a, cfg,
        trials=args.trials, seed=args.seed, bits=args.precision,
        max_degree=args.max_degree,
    )
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    for flag in est.flags:
        print(f"warning: {flag}", file=sys.stderr)
    row = _bracket_row(est)
    if args.format == "json":
        _emit_json({
            "n": est.n,
            "alpha": {"re": a.re, "im": a.im},
            **{col: row[col] for col in _VALUE_COLUMNS + ("precision_bits",)},
            "cfg": dataclasses.asdict(cfg),
            "trials": est.trials,
            "seed": est.seed,
            "flags": list(est.flags),
            "runtime_ms": runtime_ms,
        }, args.out)
    else:
        row["runtime_ms"] = runtime_ms
        _emit(_csv_text(SWEEP_COLUMNS + ("runtime_ms",), [row]), args.out)
    return EXIT_OK


def _sweep_worker(task):
    """One (n, alpha) bracket as a sweep row; returns a dict, never raises."""
    n, re, im, cfg, trials, seed, bits, max_degree = task
    try:
        est = en_bracket(
            n, _checked_alpha(re, im), cfg,
            trials=trials, seed=seed, bits=bits, max_degree=max_degree,
        )
    except (ValueError, SolverGridError) as ex:
        return {"n": n, "alpha_re": re, "alpha_im": im, "error": str(ex)}
    row = _bracket_row(est)
    if est.flags:
        row["error"] = "; ".join(est.flags)
    return row


def _mirror_row(row: dict, re: float, im: float) -> dict:
    """The sweep row of alpha = re + i im from the row of re + i|im|.

    A hypothesis error names alpha, so it is stated for this alpha.
    """
    try:
        _checked_alpha(re, im)
    except ValueError as ex:
        row = {**row, "error": str(ex)}
    return {**row, "alpha_im": im}


def cmd_sweep(args) -> int:
    try:
        ns = _parse_n_range(args.n_range)
        alphas = _parse_alpha_grid(args.alpha_grid)
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_PARSE
    cfg = _cfg_from_args(args)  # validate before spawning workers
    points = [(n, re, im) for n in sorted(ns) for re, im in sorted(alphas)]
    pairs = sorted({(n, re, abs(im)) for n, re, im in points})
    tasks = [
        (*pair, cfg, args.trials, args.seed, args.precision, args.max_degree)
        for pair in pairs
    ]
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        from multiprocessing import Pool  # about 7 ms, paid only with --jobs > 1

        with Pool(processes=jobs) as pool:
            results = pool.map(_sweep_worker, tasks)
    else:
        results = [_sweep_worker(t) for t in tasks]
    brackets = dict(zip(pairs, results))
    rows = [_mirror_row(brackets[n, re, abs(im)], re, im) for n, re, im in points]

    any_error = any("error" in r for r in rows)
    if args.format == "csv":
        columns = SWEEP_COLUMNS + (("error",) if any_error else ())
        _emit(_csv_text(columns, rows), args.out)
    else:
        _emit_json(rows, args.out)
    if all("error" in r for r in rows):
        print("error: every sweep row failed", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_verify(args) -> int:
    from .suites import run_suites  # about 5 ms at start-up, paid only by verify

    results = run_suites(args.level, args.precision)
    name_w = max(len(r.name) for r in results)
    print(f"{'suite':{name_w}s}  {'cases':>6s}  {'failures':>8s}  "
          f"{'time_s':>7s}  status")
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{r.name:{name_w}s}  {r.cases:6d}  {r.failures:8d}  "
              f"{r.seconds:7.2f}  {status}")
    bad = [r for r in results if not r.ok]
    if bad:
        first = bad[0]
        print(f"first failure: {first.name}: {first.first_failure}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _read_sweep_rows(path: str):
    """Rows from a sweep CSV or JSON file; raises ValueError when malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise ValueError(f"cannot read {path!r}: {ex}") from ex
    if not text.strip():
        raise ValueError(f"sweep file {path!r} is empty")
    rows = []
    if text.lstrip().startswith(("[", "{")):
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("JSON sweep file must be a list of rows")
        raw_rows = data
    else:
        reader = csv.DictReader(io.StringIO(text))
        raw_rows = list(reader)
    for raw in raw_rows:
        # a JSON row may be any value; int(str(...)) reads "2" and 2, not 2.7
        try:
            if raw.get("error"):
                continue
            rows.append({
                "n": int(str(raw["n"])),
                **{key: float(raw[key]) for key in ("alpha_re", "alpha_im") + _VALUE_COLUMNS},
            })
        except (AttributeError, KeyError, TypeError, ValueError) as ex:
            raise ValueError(f"malformed sweep row {raw!r}") from ex
    if not rows:
        raise ValueError("sweep file has no usable rows")
    return rows


_SVG_W, _SVG_H = 720, 460
_MARGIN = 56
# kind: the sweep columns of the band's edges, the plot CSV's names for
# them, the band's legend, and the sweep columns drawn as points
_PLOT_KINDS = {
    "bounds": (("analytic_lower", "analytic_upper"), ("band_low", "band_high"),
               "analytic band", ("witness_lower", "oracle_lower", "lp_estimate")),
    "bracket": (("witness_lower", "lp_estimate"), ("bracket_low", "bracket_high"),
                "numeric bracket", ("oracle_lower",)),
}
_SERIES_COLORS = {"witness_lower": "#2a7f2a", "oracle_lower": "#b8860b",
                  "lp_estimate": "#b03030"}


def _svg_document(rows, kind: str) -> str:
    """Static SVG: per-n band plus overlaid point estimates."""
    (low_key, high_key), _, band_label, series = _PLOT_KINDS[kind]
    ns = sorted({r["n"] for r in rows})
    band = {
        n: (
            min(r[low_key] for r in rows if r["n"] == n),
            max(r[high_key] for r in rows if r["n"] == n),
        )
        for n in ns
    }
    ymin = min(v[0] for v in band.values())
    ymax = max(v[1] for v in band.values())
    for r in rows:
        for key in series:
            ymin = min(ymin, r[key])
            ymax = max(ymax, r[key])
    span = (ymax - ymin) or 1.0
    ymin -= 0.05 * span
    ymax += 0.05 * span
    x0, x1 = min(ns), max(ns)
    xspan = (x1 - x0) or 1

    def sx(n):
        return _MARGIN + (n - x0) / xspan * (_SVG_W - 2 * _MARGIN)

    def sy(v):
        return _SVG_H - _MARGIN - (v - ymin) / (ymax - ymin) * (_SVG_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    upper_pts = [f"{sx(n):.2f},{sy(band[n][1]):.2f}" for n in ns]
    lower_pts = [f"{sx(n):.2f},{sy(band[n][0]):.2f}" for n in reversed(ns)]
    parts.append(
        f'<polygon points="{" ".join(upper_pts + lower_pts)}" '
        f'fill="#c8d8f0" stroke="#4b6ea8" stroke-width="1"/>'
    )
    for key in series:
        for r in rows:
            parts.append(
                f'<circle cx="{sx(r["n"]):.2f}" cy="{sy(r[key]):.2f}" r="3.5" '
                f'fill="{_SERIES_COLORS[key]}"/>'
            )
    # axes
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>'
    )
    for n in ns:
        parts.append(
            f'<text x="{sx(n):.2f}" y="{_SVG_H - _MARGIN + 18}" '
            f'font-size="12" text-anchor="middle">{n}</text>'
        )
    for i in range(5):
        v = ymin + i * (ymax - ymin) / 4
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{sy(v):.2f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{v:.3g}</text>'
        )
    parts.append(
        f'<text x="{_SVG_W / 2:.0f}" y="{_SVG_H - 14}" font-size="13" '
        f'text-anchor="middle">degree n</text>'
    )
    legend = [("band", band_label, "#c8d8f0")] + [
        (key, key, _SERIES_COLORS[key]) for key in series
    ]
    ly = _MARGIN - 34
    lx = _MARGIN
    for _, label, color in legend:
        parts.append(
            f'<rect x="{lx}" y="{ly}" width="12" height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{lx + 16}" y="{ly + 10}" font-size="12">{label}</text>'
        )
        lx += 16 + 8 * len(label) + 24
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _plot_csv(rows, kind: str) -> str:
    edges, names, _, series = _PLOT_KINDS[kind]
    table = [{**r, **{name: r[key] for name, key in zip(names, edges)}} for r in rows]
    return _csv_text(_KEY_COLUMNS + names + series, table)


def cmd_plot(args) -> int:
    try:
        rows = _read_sweep_rows(args.input)
    except (ValueError, json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_PARSE
    rows.sort(key=lambda r: (r["n"], r["alpha_re"], r["alpha_im"]))
    if args.out.endswith(".svg"):
        text = _svg_document(rows, args.kind)
    elif args.out.endswith(".csv"):
        text = _plot_csv(rows, args.kind)
    else:
        print("error: --out must end in .svg or .csv", file=sys.stderr)
        return EXIT_PARSE
    _emit(text, args.out)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bwexp",
        description=(
            "Bracket the extremal growth constant e_n(alpha) for polynomials "
            "bounded on an exponential curve: analytic endpoints, a witness "
            "certificate, and a discretized LP estimate."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="analytic endpoint formulas only")
    _add_point(p)
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("witness", help="witness construction report")
    _add_point(p)
    p.add_argument("--r", type=float, default=None,
                   help="certificate radius (default N/n)")
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("solve", help="full bracket (endpoints, witness, oracle, LP) for one (n, alpha)")
    _add_point(p)
    _add_solver_flags(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("sweep", help="bracket a grid of (n, alpha) pairs")
    p.add_argument("--n-range", required=True, help="degree range, N or LO..HI")
    p.add_argument("--alpha-grid", required=True,
                   help="axes spec, e.g. 'im:0.1..0.9:5,re:0'")
    p.add_argument("--jobs", type=_jobs_flag, default=1, help="worker processes (>= 1)")
    _add_output(p, default_format="csv")
    _add_solver_flags(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="run every invariant suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick",
                   help="case-count level (default quick)")
    _add_precision(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("plot", help="SVG or plot-ready CSV from a sweep file")
    p.add_argument("--input", required=True, help="sweep CSV or JSON file")
    p.add_argument("--kind", choices=("bounds", "bracket"), default="bounds",
                   help="band source: analytic bounds or numeric bracket")
    p.add_argument("--out", required=True, help="output .svg or .csv file")
    p.set_defaults(handler=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        if "precision" in vars(args):
            require_bits(args.precision)
        return args.handler(args)
    except SolverGridError as ex:
        print(
            f"solver error: {ex}\nremediation: rerun with a smaller --n, or with "
            f"another --circle-points or --polygon-sides",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as ex:
        print(f"io error: {ex}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
