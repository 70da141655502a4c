"""Verification batteries: every module invariant as a pass/fail suite.

Each suite re-checks one family of identities or inequalities on a
deterministic case set (randomized cases use a fixed seed).  Suites
return counts instead of raising, so a batch run reports every family
before deciding the exit status.  Budgets: the quick level finishes in
seconds; the full level scales the case counts up (10^4 randomized
interval products, witnesses to degree 6 at 512 bits).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .analytic_bounds import (
    annihilator,
    apply_annihilator,
    beta_log_lower,
    half_integer_product,
    lemma_product_exact,
    lemma_product_lower,
    numeric_inequality_suite,
    stirling_ratio,
    theorem2_bounds,
)
from .construct import build_witness, required_witness_bits
from .core import (
    DEFAULT_BITS,
    AlphaParam,
    Poly2,
    canonical_indices,
    compose_to_expsum,
    make_alpha,
    space_dimension,
)
from .norms import norm_on_K, norm_on_circle

_SUITE_SEED = 20240815
STANDARD_ALPHAS = (
    (0.0, 0.5),
    (0.3, 0.4),
    (-0.2, 0.6),
    (0.1, 0.1),
)


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    cases: int
    failures: int
    first_failure: str | None
    seconds: float

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _random_alpha(rng) -> AlphaParam:
    """Draw alpha in the open unit disk with a nonzero imaginary part."""
    while True:
        re = rng.uniform(-0.95, 0.95)
        im = rng.uniform(-0.95, 0.95)
        if im != 0.0 and re * re + im * im < 0.9:
            return make_alpha(re, im)


def _random_poly(n: int, rng, bits: int) -> Poly2:
    idx = canonical_indices(n)
    with mp.workprec(bits):
        coeffs = {
            (jk.j, jk.k): mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for jk in idx
        }
    return Poly2(n, coeffs)


def suite_endpoint_formulas(level: str, bits: int) -> SuiteResult:
    """theorem2_bounds against a doubled-precision re-evaluation."""
    t0 = time.perf_counter()
    cases = failures = 0
    first = None
    for n in range(1, 6):
        for re, im in STANDARD_ALPHAS:
            a = make_alpha(re, im)
            lo, up = theorem2_bounds(n, a, bits)
            lo2, up2 = theorem2_bounds(n, a, 2 * bits)
            cases += 1
            with mp.workprec(2 * bits):
                scale = max(1, abs(lo2)) + max(1, abs(up2))
                bad = abs(lo - lo2) > mp.mpf("1e-12") * scale or abs(
                    up - up2
                ) > mp.mpf("1e-12") * scale
            if bad:
                failures += 1
                first = first or f"n={n} alpha={a}: endpoint drift beyond 1e-12"
    return SuiteResult(
        "endpoint-formulas", cases, failures, first, time.perf_counter() - t0
    )


def suite_interval_product(level: str, bits: int) -> SuiteResult:
    """Randomized exact-product >= closed-form-lower-bound checks."""
    t0 = time.perf_counter()
    count = 10_000 if level == "full" else 100
    rng = np.random.default_rng(_SUITE_SEED)
    failures = 0
    first = None
    with mp.workprec(bits):
        tiny = mp.mpf(2) ** (-bits // 2)
    for _ in range(count):
        k = int(rng.integers(1, 21))
        x = int(rng.integers(-10, 11))
        y = int(rng.integers(x, 11))
        a = _random_alpha(rng)
        exact = lemma_product_exact(x, y, k, a, bits)
        lower = lemma_product_lower(x, y, k, a, bits)
        with mp.workprec(bits):
            if exact < lower * (1 - tiny):
                failures += 1
                first = first or (
                    f"x={x} y={y} k={k} alpha={a}: exact {mp.nstr(exact, 10)} "
                    f"< bound {mp.nstr(lower, 10)}"
                )
    return SuiteResult(
        "interval-product-lemma", count, failures, first, time.perf_counter() - t0
    )


def suite_stirling(level: str, bits: int) -> SuiteResult:
    """Stirling ratio window and half-integer product identity."""
    t0 = time.perf_counter()
    m_max = 1000 if level == "full" else 200
    h_max = 500 if level == "full" else 100
    cases = failures = 0
    first = None
    with mp.workprec(bits):
        lo_win = mp.exp(mp.mpf(7) / 8)
        hi_win = mp.e
        for m in range(1, m_max + 1):
            cases += 1
            ratio = stirling_ratio(m, bits)
            with mp.workprec(bits):
                if ratio < lo_win * (1 - mp.mpf(2) ** (-bits // 2)) or ratio > hi_win:
                    failures += 1
                    first = first or f"m={m}: Stirling ratio {mp.nstr(ratio, 10)}"
        for m in range(1, h_max + 1):
            cases += 1
            prod = half_integer_product(m, bits)
            with mp.workprec(bits):
                direct = mp.factorial(2 * m) / (mp.mpf(2) ** (2 * m) * mp.factorial(m))
                floor = (mp.mpf(m) / mp.e) ** m
                tiny = mp.mpf(2) ** (-bits // 2) * direct
                if abs(prod - direct) > tiny or prod < floor * (1 - mp.mpf(2) ** (-bits // 2)):
                    failures += 1
                    first = first or f"m={m}: half-integer product off"
    return SuiteResult("stirling-bounds", cases, failures, first, time.perf_counter() - t0)


def suite_annihilator(level: str, bits: int) -> SuiteResult:
    """Annihilator isolation identity and the |beta| floor."""
    t0 = time.perf_counter()
    n_max = 5 if level == "full" else 2
    per = 20 if level == "full" else 5
    rng = np.random.default_rng(_SUITE_SEED + 1)
    cases = failures = 0
    first = None
    alphas = [make_alpha(re, im) for re, im in STANDARD_ALPHAS[:2]]
    for n in range(1, n_max + 1):
        for a in alphas:
            idx = canonical_indices(n)
            anns = {(jk.j, jk.k): annihilator(jk.j, jk.k, n, a, bits) for jk in idx}
            for (l, m), data in anns.items():
                cases += 1
                logb = beta_log_lower(l, m, n, a, bits)
                with mp.workprec(bits):
                    if mp.log(abs(data.beta)) < logb - mp.mpf(2) ** (-bits // 2):
                        failures += 1
                        first = first or f"n={n} (l,m)=({l},{m}) alpha={a}: beta floor"
            for _ in range(per):
                p = _random_poly(n, rng, bits)
                f = compose_to_expsum(p, a, bits)
                jk = idx[int(rng.integers(0, len(idx)))]
                data = anns[(jk.j, jk.k)]
                got = apply_annihilator(data, f, bits)
                cases += 1
                with mp.workprec(bits):
                    want = mp.mpc(p.coefficient(jk.j, jk.k)) * data.beta
                    tol = mp.mpf(2) ** (-min(128, bits // 2)) * abs(want)
                    if abs(got - want) > tol:
                        failures += 1
                        first = first or (
                            f"n={n} target=({jk.j},{jk.k}) alpha={a}: "
                            f"isolation residual {mp.nstr(abs(got - want), 5)}"
                        )
    return SuiteResult(
        "annihilator-identity", cases, failures, first, time.perf_counter() - t0
    )


def suite_inequalities(level: str, bits: int) -> SuiteResult:
    """Closed-form inequality scan (the n^2 ln n bookkeeping chain)."""
    t0 = time.perf_counter()
    n_max = 10_000 if level == "full" else 1000
    report = numeric_inequality_suite(n_max, bits)
    failures = 0 if report.ok else 1
    first = None
    if not report.ok:
        n_bad, name = report.violation
        first = f"n={n_bad}: {name}"
    return SuiteResult(
        "closed-form-inequalities", n_max, failures, first, time.perf_counter() - t0
    )


def suite_witness(level: str, bits: int) -> SuiteResult:
    """Witness vanishing order: residuals and the r^N growth law.

    Each degree's K circle and its three radii read one moment table:
    the K norm composes the same ExpSum as f, and norms keeps the latest
    table.
    """
    t0 = time.perf_counter()
    n_max = 6 if level == "full" else 3
    wbits = 512 if level == "full" else bits
    cases = failures = 0
    first = None
    a = make_alpha(*STANDARD_ALPHAS[0])
    for n in range(1, n_max + 1):
        use_bits = max(wbits, required_witness_bits(n))
        w = build_witness(n, a, use_bits)
        cases += 1
        if not w.ok:
            failures += 1
            first = first or f"n={n}: residual {mp.nstr(w.max_residual, 5)}"
            continue
        N = space_dimension(n)
        f = compose_to_expsum(w.p, a, use_bits)
        base = norm_on_K(w.p, a, 512, use_bits)
        for r in (1.5, 2.0, N / n):
            cases += 1
            circ = norm_on_circle(f, r, 512, use_bits, depth=0)
            with mp.workprec(use_bits):
                gain = mp.log(circ.grid_max) - mp.log(base.certified_upper)
                need = N * mp.log(r) - mp.mpf("1e-6")
                if gain < need:
                    failures += 1
                    first = first or (
                        f"n={n} r={r}: growth {mp.nstr(gain, 10)} < N ln r"
                    )
    return SuiteResult("witness-vanishing", cases, failures, first, time.perf_counter() - t0)


def suite_norm_refinement(level: str, bits: int) -> SuiteResult:
    """Grid max grows and stays below the certificate under refinement."""
    t0 = time.perf_counter()
    n_max = 3 if level == "full" else 2
    cases = failures = 0
    first = None
    rng = np.random.default_rng(_SUITE_SEED + 2)
    a = make_alpha(*STANDARD_ALPHAS[1])
    for n in range(1, n_max + 1):
        for _ in range(3):
            p = _random_poly(n, rng, bits)
            prev = None
            for M in (64, 128, 256):
                cases += 1
                est = norm_on_K(p, a, M, bits)
                with mp.workprec(bits):
                    tiny = mp.mpf(2) ** (-bits // 2) * est.certified_upper
                    if est.grid_max > est.certified_upper + tiny:
                        failures += 1
                        first = first or f"n={n} M={M}: grid above certificate"
                    if prev is not None and est.grid_max < prev - tiny:
                        failures += 1
                        first = first or f"n={n} M={M}: grid max shrank"
                    prev = est.grid_max
    return SuiteResult("norm-refinement", cases, failures, first, time.perf_counter() - t0)


def suite_envelope(level: str, bits: int) -> SuiteResult:
    """Growth envelope |P| <= ||P||_K e^{upper} e^{n log+ max(|z|,|w|)}."""
    t0 = time.perf_counter()
    n_max = 3
    per_poly = 300 if level == "full" else 50
    pts = 300 if level == "full" else 50
    rng = np.random.default_rng(_SUITE_SEED + 3)
    cases = failures = 0
    first = None
    a = make_alpha(*STANDARD_ALPHAS[0])
    for n in range(1, n_max + 1):
        idx = canonical_indices(n)
        _, up = theorem2_bounds(n, a, bits)
        upper = float(up)
        for _ in range(max(1, per_poly // 50)):
            c = rng.uniform(-1, 1, len(idx)) + 1j * rng.uniform(-1, 1, len(idx))
            coeffs = {}
            with mp.workprec(bits):
                for jk, cv in zip(idx, c):
                    coeffs[(jk.j, jk.k)] = mp.mpc(cv.real, cv.imag)
            p = Poly2(n, coeffs)
            normk = float(norm_on_K(p, a, 512, bits).certified_upper)
            z = rng.uniform(-3, 3, pts) + 1j * rng.uniform(-3, 3, pts)
            w = rng.uniform(-3, 3, pts) + 1j * rng.uniform(-3, 3, pts)
            vals = np.zeros(pts, dtype=np.complex128)
            for jk, cv in zip(idx, c):
                vals += cv * z**jk.j * w**jk.k
            mx = np.maximum(np.maximum(np.abs(z), np.abs(w)), 1.0)
            bound = normk * np.exp(upper) * mx ** n
            cases += pts
            bad = np.flatnonzero(np.abs(vals) > bound * (1 + 1e-12))
            if bad.size:
                failures += int(bad.size)
                i = int(bad[0])
                first = first or (
                    f"n={n} z={z[i]:.3f} w={w[i]:.3f}: "
                    f"|P|={abs(vals[i]):.3e} > {bound[i]:.3e}"
                )
    return SuiteResult("envelope-domination", cases, failures, first, time.perf_counter() - t0)


_SUITES = (
    suite_endpoint_formulas,
    suite_interval_product,
    suite_stirling,
    suite_annihilator,
    suite_inequalities,
    suite_witness,
    suite_norm_refinement,
    suite_envelope,
)


def run_suites(level: str = "quick", bits: int = DEFAULT_BITS) -> list[SuiteResult]:
    """Run every verification suite at the given level; never raises."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    return [s(level, bits) for s in _SUITES]
