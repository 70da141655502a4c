"""The bwexp benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the benchmark seed (``inputs``) and
runs one pass over them (``run``) with the entry points it is handed,
which a traced pass replaces with timing wrappers.  Every operation's
output is checked after the pass, outside the timed region.

Reference values were recorded at the commit that added the benchmark.
They do not depend on the seed: the random search never beats its
deterministic candidates on these inputs, and the LP and witness take
no seed at all.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field

from mpmath import mp

from bwexp.analytic_bounds import theorem2_bounds
from bwexp.construct import build_witness, proof_lower_bound
from bwexp.core import DEFAULT_BITS, make_alpha
from bwexp.solver import LPConfig

# The discretized LP optimum is fixed by (n, alpha, LPConfig); 1e-6 in ln
# leaves room for a better-conditioned basis, not for a different answer.
LP_TOL = 1e-6
# e_n(alpha) = e_n(conj alpha); the LP measured 1.1e-10 apart at n = 3.
CONJ_TOL = 1e-6
# The witness lower bound moves with its K-norm certificate: a sharper
# certificate can raise it by at most the certificate's present gap over
# the grid maximum (0.062 nats at n = 3, 0.134 at n = 5), a looser one
# may not cost more than 0.05 nats.
WITNESS_BAND = (-0.05, 0.15)
# The witness must sit in [analytic_lower - 0.7, analytic_upper].
WINDOW_SLACK = 0.7
# The bidisk grid maximum is an attained value on a fixed grid.
BIDISK_RTOL = 1e-9
ORACLE_TOL = 1e-9

SOLVE_ALPHA = "0.0+0.5i"
SOLVE_DEGREES = (1, 2, 3)
# ln LP value and witness lower bound at the default LPConfig, alpha = 0.5i
SOLVE_REF = {
    1: (2.2512941001620317, -0.22386290795075245),
    2: (6.432521519750712, 0.7341775690341715),
    3: (13.32863382005165, 3.17103606777356),
}

SWEEP_N_RANGE = "1..3"
SWEEP_GRID = "im:-0.5..0.5:2,re:0"
SWEEP_CFG = LPConfig(circle_points=128, polygon_sides=32, torus_points=16, phase_samples=8)
# ln LP value and witness lower bound at SWEEP_CFG, alpha = +-0.5i
SWEEP_REF = {
    1: (2.250173611036861, -0.22386290795075245),
    2: (6.431400444422637, 0.7341775690341715),
    3: (13.328258221968905, 3.17103606777356),
}

CERT_ALPHA = (0.0, 0.5)
CERT_GRID = 512
CERT_DEGREES = (1, 2, 3, 4, 5)
# witness lower bound at grid 512, 256 bits, alpha = 0.5i
CERT_REF = {
    1: -0.22386290795075245,
    2: 0.7341775690341715,
    3: 3.17103606777356,
    4: 7.321385901666317,
    5: 13.377201762648394,
}
BIDISK_DEGREE = 2
BIDISK_GRID = 128
BIDISK_REF = 2.88625779909569  # torus grid max of the n = 2 witness


@dataclass
class PassResult:
    """One pass: wall time, operation count and one message per failed op.

    info holds figures that are reported but not gated by a bound.
    """

    wall_s: float
    attempted: int
    lower_gap_nats: float = math.nan
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _run_cli(main, argv):
    """Call bwexp.cli.main as the `bwexp` command does; return (code, stdout, secs)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(argv)
        secs = time.perf_counter() - t0
    return code, out.getvalue(), secs


def _check_bracket(row: dict, ref: tuple, slack: float) -> list:
    """Problems with one solve report or sweep row (empty when it passes)."""
    if row.get("flags") or row.get("error"):
        return [f"flags/error: {row.get('flags') or row.get('error')}"]
    problems = []
    lp, witness, oracle = row["lp_estimate"], row["witness_lower"], row["oracle_lower"]
    lo, up = row["analytic_lower"], row["analytic_upper"]
    if not lo - WINDOW_SLACK <= witness <= up:
        problems.append(f"witness {witness} outside [{lo} - {WINDOW_SLACK}, {up}]")
    if oracle > lp + slack + ORACLE_TOL:
        problems.append(f"oracle {oracle} > lp {lp} + slack {slack}")
    if abs(lp - ref[0]) > LP_TOL:
        problems.append(f"lp {lp!r} != reference {ref[0]!r} (tol {LP_TOL})")
    if not WITNESS_BAND[0] <= witness - ref[1] <= WITNESS_BAND[1]:
        problems.append(f"witness {witness!r} outside reference {ref[1]!r} + {WITNESS_BAND}")
    return problems


def _lower_gap(row: dict) -> float:
    return row["lp_estimate"] - max(row["witness_lower"], row["oracle_lower"])


def _mean(values) -> float:
    return statistics.fmean(values) if values else math.nan


class SolveDefault:
    """`bwexp solve` for n = 1, 2, 3 at alpha = 0.5i, default LPConfig."""

    name = "solve-default"

    def inputs(self, seed: int) -> list:
        return [
            (n, ["solve", "--n", str(n), "--alpha", SOLVE_ALPHA,
                 "--trials", "1000", "--seed", str(seed)])
            for n in SOLVE_DEGREES
        ]

    def run(self, inputs: list, calls: dict) -> PassResult:
        t0 = time.perf_counter()
        results = [(n, *_run_cli(calls["cli.main"], argv)) for n, argv in inputs]
        res = PassResult(time.perf_counter() - t0, len(inputs))

        gaps = []
        for n, code, out, secs in results:
            if n == 3:
                res.info["solve_n3_s"] = secs
            if code != 0:
                res.failures.append(f"solve n={n}: exit code {code}")
                continue
            row = json.loads(out)
            res.outputs.append(row)
            problems = _check_bracket(row, SOLVE_REF[n], LPConfig().slack())
            if problems:
                res.failures.append(f"solve n={n}: " + "; ".join(problems))
            else:
                gaps.append(_lower_gap(row))
        res.lower_gap_nats = _mean(gaps)
        return res


class SweepConj:
    """`bwexp sweep` over n = 1..3 and the conjugate pair alpha = +-0.5i."""

    name = "sweep-conj"

    def inputs(self, seed: int) -> list:
        return ["sweep", "--n-range", SWEEP_N_RANGE, "--alpha-grid", SWEEP_GRID,
                "--circle-points", str(SWEEP_CFG.circle_points),
                "--polygon-sides", str(SWEEP_CFG.polygon_sides),
                "--torus-points", str(SWEEP_CFG.torus_points),
                "--phases", str(SWEEP_CFG.phase_samples),
                "--trials", "200", "--seed", str(seed),
                "--jobs", "1", "--format", "json"]

    def run(self, argv: list, calls: dict) -> PassResult:
        code, out, wall = _run_cli(calls["cli.main"], argv)
        res = PassResult(wall, 2 * len(SWEEP_REF))  # one conjugate pair per degree
        if code != 0:
            res.failures = [f"sweep: exit code {code}"] * res.attempted
            return res
        rows = json.loads(out)
        res.outputs = rows
        gaps = []
        for n, ref in SWEEP_REF.items():
            pair = [r for r in rows if r["n"] == n]
            if len(pair) != 2:
                res.failures += [f"sweep n={n}: expected 2 rows, got {len(pair)}"] * 2
                continue
            pair_ok = not any(r.get("error") for r in pair) and abs(
                pair[0]["lp_estimate"] - pair[1]["lp_estimate"]
            ) <= CONJ_TOL
            for r in pair:
                problems = _check_bracket(r, ref, SWEEP_CFG.slack())
                if not pair_ok:
                    problems.append(f"conjugate pair LP values differ by more than {CONJ_TOL}")
                if problems:
                    res.failures.append(
                        f"sweep n={n} alpha={r['alpha_re']}{r['alpha_im']:+}i: "
                        + "; ".join(problems)
                    )
                else:
                    gaps.append(_lower_gap(r))
        res.lower_gap_nats = _mean(gaps)
        return res


class CertifyWitness:
    """Witness certificates for n = 1..5 and one bidisk norm, at alpha = 0.5i.

    The seed shuffles the order of the six operations.  No LP runs here,
    so solver changes should read as no change on this workload.
    """

    name = "certify-witness"

    def inputs(self, seed: int) -> list:
        alpha = make_alpha(*CERT_ALPHA)
        ops = [("certificate", n, alpha) for n in CERT_DEGREES]
        ops.append(("bidisk", BIDISK_DEGREE, build_witness(BIDISK_DEGREE, alpha).p))
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, inputs: list, calls: dict) -> PassResult:
        results = []
        t0 = time.perf_counter()
        for kind, n, arg in inputs:
            if kind == "certificate":
                out = calls["construct.witness_certificate"](n, arg, grid=CERT_GRID, bits=DEFAULT_BITS)
            else:
                out = calls["norms.norm_on_bidisk"](arg, BIDISK_GRID, DEFAULT_BITS)
            results.append((kind, n, arg, out))
        res = PassResult(time.perf_counter() - t0, len(inputs))

        gaps = []
        with mp.workprec(DEFAULT_BITS):
            for kind, n, arg, out in results:
                if kind == "bidisk":
                    problems = self._check_bidisk(out)
                    res.outputs.append({"op": kind, "n": n, "grid_max": float(out.grid_max)})
                else:
                    res.outputs.append({"op": kind, "n": n, "witness_lower": float(out[3])})
                    problems = self._check_certificate(n, arg, out)
                    if not problems:
                        normk = out[1]
                        gaps.append(float(mp.log(normk.certified_upper) - mp.log(normk.grid_max)))
                if problems:
                    res.failures.append(f"{kind} n={n}: " + "; ".join(problems))
        res.lower_gap_nats = _mean(gaps)
        return res

    @staticmethod
    def _check_certificate(n, alpha, out) -> list:
        _, normk, _, lower = out
        lower = float(lower)
        lo, up = (float(v) for v in theorem2_bounds(n, alpha, DEFAULT_BITS))
        floor = float(proof_lower_bound(n, DEFAULT_BITS))
        problems = []
        if not lo - WINDOW_SLACK <= lower <= up:
            problems.append(f"witness {lower} outside [{lo} - {WINDOW_SLACK}, {up}]")
        if lower < floor - 1e-6:
            problems.append(f"witness {lower} below the closed-form floor {floor}")
        if not normk.certified_upper >= normk.grid_max > 0:
            problems.append("K-norm certificate below its grid maximum")
        if not WITNESS_BAND[0] <= lower - CERT_REF[n] <= WITNESS_BAND[1]:
            problems.append(f"witness {lower!r} outside reference {CERT_REF[n]!r} + {WITNESS_BAND}")
        return problems

    @staticmethod
    def _check_bidisk(est) -> list:
        grid_max = float(est.grid_max)
        problems = []
        if abs(grid_max - BIDISK_REF) > BIDISK_RTOL * BIDISK_REF:
            problems.append(f"bidisk grid max {grid_max!r} != reference {BIDISK_REF!r}")
        if not est.certified_upper >= est.grid_max:
            problems.append("bidisk certificate below its grid maximum")
        return problems


WORKLOADS = {w.name: w for w in (SolveDefault(), CertifyWitness(), SweepConj())}
