"""Acceptance gate: nine end-to-end checks at production settings.

Each test pins its full case set, tolerances, and (where stated) a wall
clock budget.  Together they certify the analytic endpoint formulas,
the proof-chain inequalities and factorial estimates, the annihilator
identity, the high-precision witness construction, the discretized LP
solver, and the growth envelope.  Budgets are generous for CI jitter
but tight enough to catch asymptotic regressions.
"""

import math
import random
import time

import numpy as np
import pytest
from mpmath import mp

from bwexp.analytic_bounds import (
    annihilator,
    apply_annihilator,
    beta_log_lower,
    half_integer_product,
    lemma_product_exact,
    lemma_product_lower,
    stirling_ratio,
    theorem2_bounds,
)
from bwexp.cli import main
from bwexp.construct import build_witness, proof_lower_bound, witness_certificate
from bwexp.core import (
    Poly2,
    canonical_indices,
    compose_to_expsum,
    make_alpha,
    space_dimension,
)
from bwexp.norms import norm_on_circle
from bwexp.solver import LPConfig, en_bracket, en_lp_estimate
from bwexp.suites import suite_inequalities

STANDARD_ALPHAS = ((0.0, 0.5), (0.3, 0.4), (-0.2, 0.6), (0.1, 0.1))
A05 = make_alpha(0.0, 0.5)


def test_01_endpoint_formulas_match_independent_evaluation():
    """20 (n, alpha) pairs to 12 significant digits, under 1 second."""
    t0 = time.perf_counter()
    for n in range(1, 6):
        for re, im in STANDARD_ALPHAS:
            a = make_alpha(re, im)
            lo, up = theorem2_bounds(n, a, 256)
            with mp.workprec(512):
                n2 = mp.mpf(n) ** 2
                ref_lo = n2 * mp.log(n) / 2 - n2
                ref_up = n2 * mp.log(n) / 2 + 8 * n2 - n * mp.log(abs(mp.mpf(im)))
                assert abs(mp.mpf(lo) - ref_lo) <= abs(ref_lo) * mp.mpf("1e-12")
                assert abs(mp.mpf(up) - ref_up) <= abs(ref_up) * mp.mpf("1e-12")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"endpoint evaluation took {elapsed:.2f}s"


def test_02_witness_bracket_consistency():
    """Certified witness lower bound inside the analytic window.

    Same 20 pairs; r = N/n, 512-point grids, 256 bits.  The certified
    value must sit within [analytic_lower - 0.7, analytic_upper + 1e-6]
    and above the closed-form floor N ln(N/n) - N - 1e-6.
    """
    t0 = time.perf_counter()
    for n in range(1, 6):
        floor = proof_lower_bound(n, 256)
        for re, im in STANDARD_ALPHAS:
            a = make_alpha(re, im)
            lo, up = theorem2_bounds(n, a, 256)
            _, _, _, lower = witness_certificate(n, a, grid=512, bits=256)
            tag = f"n={n} alpha={re}+{im}i lower={float(lower):.6f}"
            assert lower >= mp.mpf(lo) - mp.mpf("0.7"), tag
            assert lower <= mp.mpf(up) + mp.mpf("1e-6"), tag
            assert lower >= floor - mp.mpf("1e-6"), tag
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"witness brackets took {elapsed:.2f}s"


def test_03_interval_product_randomized():
    """10^4 random (x, y, k, alpha): exact product >= stated bound."""
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    slack = 1 - mp.mpf(2) ** -100  # shared-rounding allowance only
    violations = 0
    for _ in range(10_000):
        x = rng.randint(-10, 10)
        y = rng.randint(x, 10)
        k = rng.randint(1, 20)
        im = 0.0
        while abs(im) < 1e-9:
            im = rng.uniform(-1.0, 1.0)
        a = make_alpha(rng.uniform(-1.0, 1.0), im)
        exact = lemma_product_exact(x, y, k, a, 128)
        lower = lemma_product_lower(x, y, k, a, 128)
        if exact < lower * slack:
            violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"interval-product scan took {elapsed:.2f}s"


def test_04_stirling_and_half_integer_factorials():
    """Stirling window for m <= 1000; half-integer identity for m <= 500."""
    with mp.workprec(256):
        top = mp.e * (1 + mp.mpf(2) ** -240)
        bot = mp.exp(mp.mpf(7) / 8) * (1 - mp.mpf(2) ** -240)
        for m in range(1, 1001):
            ratio = stirling_ratio(m, 256)
            assert bot <= ratio <= top, f"m={m}: ratio={mp.nstr(ratio, 20)}"
        for m in range(1, 501):
            prod = half_integer_product(m, 256)
            ref = mp.factorial(2 * m) / (mp.mpf(2) ** (2 * m) * mp.factorial(m))
            assert abs(prod - ref) <= ref * mp.mpf(2) ** -240, f"m={m}"
            assert prod >= (mp.mpf(m) / mp.e) ** m * (1 - mp.mpf(2) ** -240), f"m={m}"


def test_05_annihilator_isolation_and_floor():
    """Directional derivative isolates one coefficient to 2^-128 relative.

    For n <= 5, every target (l, m), and 20 random polynomials: applying
    the expanded annihilator to the curve restriction returns c_lm *
    beta_lm; and ln|beta_lm| respects its closed-form floor.
    """
    rng = np.random.default_rng(20240817)
    tol = mp.mpf(2) ** -128
    for re, im in ((0.0, 0.5), (0.3, 0.4)):
        a = make_alpha(re, im)
        for n in range(1, 6):
            idx = canonical_indices(n)
            anns = {t: annihilator(t[0], t[1], n, a, 256) for t in idx}
            with mp.workprec(256):
                for t in idx:
                    logbeta = mp.log(abs(anns[t].beta))
                    assert logbeta >= beta_log_lower(t[0], t[1], n, a, 256), (
                        f"n={n} target={tuple(t)}"
                    )
            for _ in range(20):
                vec = rng.standard_normal(2 * len(idx))
                coeffs = {
                    t: complex(vec[2 * i], vec[2 * i + 1])
                    for i, t in enumerate(idx)
                }
                p = Poly2(n, coeffs)
                f = compose_to_expsum(p, a, 256)
                with mp.workprec(256):
                    for t in idx:
                        got = apply_annihilator(anns[t], f, 256)
                        want = mp.mpc(coeffs[t]) * anns[t].beta
                        assert abs(got - want) <= tol * abs(want), (
                            f"n={n} target={tuple(t)}"
                        )


def test_06_closed_form_inequality_scan():
    """Four dimension-count inequalities for every n up to 10^4."""
    t0 = time.perf_counter()
    ns = np.arange(1, 10_001, dtype=np.float64)
    N = (ns * ns + 3 * ns) / 2
    logn = np.log(ns)
    assert np.all(N * np.log(N + ns) <= ns**2 * logn + 3.7 * ns**2)
    assert np.all(np.log(N + 1) <= 2 * ns**2)
    assert np.all(N * np.log(N / ns) - N >= 0.5 * ns**2 * logn - ns**2)
    sums = np.cumsum(ns * logn)
    assert np.all(sums >= 0.5 * ns**2 * logn - 0.25 * ns**2)
    # the library's own scan agrees (shared forms, extended precision)
    failures = [v for v in suite_inequalities("full", 64) if v is not None]
    assert not failures, failures
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"inequality scan took {elapsed:.2f}s"


def test_07_witness_vanishing_and_growth():
    """512-bit witness: tiny power-sum residuals, full-order growth law."""
    for n in range(1, 9):
        w = build_witness(n, A05, bits=512)
        N = space_dimension(n)
        assert w.order == N
        assert w.max_residual <= mp.mpf("1e-30"), f"n={n}"
        f = compose_to_expsum(w.p, A05, 512)
        base = norm_on_circle(f, 1, 512, 512)  # certified upper at r=1
        with mp.workprec(512):
            for r in (mp.mpf("1.5"), mp.mpf(2), mp.mpf(N) / n):
                # 2048 samples: at n=8, r=N/n the restriction swings
                # through ~66 cycles, so a 512-point grid can miss the
                # peak by more than the tolerance
                grown = norm_on_circle(f, r, 2048, 512, certify=False)
                gain = mp.log(grown.grid_max) - mp.log(base.certified_upper)
                assert gain >= N * mp.log(r) - mp.mpf("1e-6"), (
                    f"n={n} r={mp.nstr(r, 6)} gain={mp.nstr(gain, 10)}"
                )


def test_08_solver_coherence(tmp_path):
    """Estimator agreement, grid-refinement stability, parallel determinism.

    Default configuration at n <= 3: the random-search value never beats
    the LP value by more than 0.05; doubling the constraint circle never
    raises the LP value by more than 1e-6; and sweep files are byte
    identical at --jobs 1 vs --jobs 8.  Budget: five minutes.
    """
    t0 = time.perf_counter()
    default = LPConfig()
    lp_at_default = {}
    for n in (1, 2, 3):
        est = en_bracket(n, A05, default, trials=1000, seed=0)
        assert est.oracle_log_value <= est.lp_log_value + 0.05, f"n={n}"
        assert est.flags == (), f"n={n}: {est.flags}"
        assert est.analytic_lower - 0.7 <= est.witness_log_value
        lp_at_default[n] = est.lp_log_value

    doubled = LPConfig(circle_points=1024)
    for n in (1, 2, 3):
        refined = en_lp_estimate(n, A05, doubled)
        assert refined <= lp_at_default[n] + 1e-6, (
            f"n={n}: {refined} vs {lp_at_default[n]}"
        )

    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    flags = [
        "--n-range", "1..2", "--alpha-grid", "im:0.3..0.5:2,re:0",
        "--circle-points", "64", "--polygon-sides", "16",
        "--torus-points", "8", "--phases", "8", "--trials", "50",
    ]
    assert main(["sweep", *flags, "--jobs", "1", "--out", str(serial)]) == 0
    assert main(["sweep", *flags, "--jobs", "8", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"solver coherence took {elapsed:.2f}s"


def test_09_growth_envelope_domination():
    """|P| <= ||P||_K * exp(upper) * exp(n log+ max(|z|, |w|)) pointwise.

    For each n <= 3: 1000 random polynomials normalized by a certified
    K-norm upper bound against 1000 random points with |z|, |w| <= 3.
    """
    rng = np.random.default_rng(20240818)
    M = 512
    ts = np.exp(2j * np.pi * np.arange(M) / M)
    alpha = complex(0.0, 0.5)
    for n in (1, 2, 3):
        upper = float(theorem2_bounds(n, A05, 256)[1])
        idx = canonical_indices(n)
        exps = np.array([j + alpha * k for j, k in idx])
        # curve samples (e^t, e^{alpha t}) on |t| = 1, plus a first-order
        # tail so the K-norm estimate is a certified upper bound
        EK = np.exp(np.outer(ts, exps))
        lip = np.abs(exps) * np.exp(np.abs(exps))
        C = rng.standard_normal((1000, len(idx))) + 1j * rng.standard_normal(
            (1000, len(idx))
        )
        grid_k = np.abs(C @ EK.T).max(axis=1)
        cert_k = grid_k + (np.pi / M) * (np.abs(C) @ lip)

        zu, zth = rng.random(1000), rng.random(1000)
        wu, wth = rng.random(1000), rng.random(1000)
        zs = 3.0 * np.sqrt(zu) * np.exp(2j * np.pi * zth)
        ws = 3.0 * np.sqrt(wu) * np.exp(2j * np.pi * wth)
        mono = np.array([zs**j * ws**k for j, k in idx])
        values = np.abs(C @ mono)
        outer = np.maximum(1.0, np.maximum(np.abs(zs), np.abs(ws)))
        bound = math.exp(upper) * outer ** float(n)
        assert np.all(values <= cert_k[:, None] * bound[None, :]), f"n={n}"
