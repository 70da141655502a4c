"""Verification batteries: every module invariant as a pass/fail suite.

Each suite re-checks one family of identities or inequalities on a
deterministic case set (randomized cases use a fixed seed).  A suite is
a generator suite_x(level, bits) that yields one verdict per case: a
message naming the case and what failed, or None when it passes.
SUITES registers it under the name `bwexp verify` prints; run_suites
alone counts the verdicts, keeps each suite's first failure and times
it.  A failed case never raises, so a batch run reports every family
before deciding the exit status.  Budgets: the quick level finishes in
seconds; the full level scales the case counts up (10^4 randomized
interval products, witnesses to degree 6 at 512 bits).
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .analytic_bounds import (
    INEQUALITIES,
    annihilator,
    apply_annihilator,
    beta_log_lower,
    half_integer_product,
    lemma_product_exact,
    lemma_product_lower,
    stirling_ratio,
    theorem2_bounds,
)
from .construct import witness_certificate
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


def suite_endpoint_formulas(level: str, bits: int) -> Iterator[str | None]:
    """theorem2_bounds against a doubled-precision re-evaluation."""
    for n in range(1, 6):
        for re, im in STANDARD_ALPHAS:
            a = make_alpha(re, im)
            lo, up = theorem2_bounds(n, a, bits)
            lo2, up2 = theorem2_bounds(n, a, 2 * bits)
            with mp.workprec(2 * bits):
                tol = mp.mpf("1e-12") * (max(1, abs(lo2)) + max(1, abs(up2)))
                bad = abs(lo - lo2) > tol or abs(up - up2) > tol
            yield f"n={n} alpha={a}: endpoint drift beyond 1e-12" if bad else None


def suite_interval_product(level: str, bits: int) -> Iterator[str | None]:
    """Randomized exact-product >= closed-form-lower-bound checks."""
    count = 10_000 if level == "full" else 100
    rng = np.random.default_rng(_SUITE_SEED)
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
            bad = exact < lower * (1 - tiny)
        yield (
            f"x={x} y={y} k={k} alpha={a}: exact {mp.nstr(exact, 10)} "
            f"< bound {mp.nstr(lower, 10)}"
        ) if bad else None


def suite_stirling(level: str, bits: int) -> Iterator[str | None]:
    """Stirling ratio window and half-integer product identity."""
    m_max = 1000 if level == "full" else 200
    h_max = 500 if level == "full" else 100
    with mp.workprec(bits):
        lo_win = mp.exp(mp.mpf(7) / 8) * (1 - mp.mpf(2) ** (-bits // 2))
    for m in range(1, m_max + 1):
        ratio = stirling_ratio(m, bits)
        with mp.workprec(bits):
            bad = ratio < lo_win or ratio > mp.e
        yield f"m={m}: Stirling ratio {mp.nstr(ratio, 10)}" if bad else None
    for m in range(1, h_max + 1):
        prod = half_integer_product(m, bits)
        with mp.workprec(bits):
            direct = mp.factorial(2 * m) / (mp.mpf(2) ** (2 * m) * mp.factorial(m))
            floor = (mp.mpf(m) / mp.e) ** m
            tiny = mp.mpf(2) ** (-bits // 2) * direct
            bad = abs(prod - direct) > tiny or prod < floor * (1 - mp.mpf(2) ** (-bits // 2))
        yield f"m={m}: half-integer product off" if bad else None


def suite_annihilator(level: str, bits: int) -> Iterator[str | None]:
    """Annihilator isolation identity and the |beta| floor."""
    n_max = 5 if level == "full" else 2
    per = 20 if level == "full" else 5
    rng = np.random.default_rng(_SUITE_SEED + 1)
    alphas = [make_alpha(re, im) for re, im in STANDARD_ALPHAS[:2]]
    for n in range(1, n_max + 1):
        for a in alphas:
            idx = canonical_indices(n)
            anns = {(jk.j, jk.k): annihilator(jk.j, jk.k, n, a, bits) for jk in idx}
            for (l, m), data in anns.items():
                logb = beta_log_lower(l, m, n, a, bits)
                with mp.workprec(bits):
                    bad = mp.log(abs(data.beta)) < logb - mp.mpf(2) ** (-bits // 2)
                yield f"n={n} (l,m)=({l},{m}) alpha={a}: beta floor" if bad else None
            for _ in range(per):
                p = _random_poly(n, rng, bits)
                f = compose_to_expsum(p, a, bits)
                jk = idx[int(rng.integers(0, len(idx)))]
                data = anns[(jk.j, jk.k)]
                got = apply_annihilator(data, f, bits)
                with mp.workprec(bits):
                    want = mp.mpc(p.coefficient(jk.j, jk.k)) * data.beta
                    tol = mp.mpf(2) ** (-min(128, bits // 2)) * abs(want)
                    miss = abs(got - want)
                yield (
                    f"n={n} target=({jk.j},{jk.k}) alpha={a}: "
                    f"isolation residual {mp.nstr(miss, 5)}"
                ) if miss > tol else None


def suite_inequalities(level: str, bits: int) -> Iterator[str | None]:
    """Closed-form inequality scan (the n^2 ln n bookkeeping chain).

    One case per n, failed by the first row of INEQUALITIES that fails;
    the scan stops there.  No precision context is held over a yield.
    """
    n_max = 10_000 if level == "full" else 1000
    klogk = mp.mpf(0)  # sum_{k<=n} k ln k
    for n in range(1, n_max + 1):
        with mp.workprec(bits):
            N = mp.mpf(space_dimension(n))
            n2 = mp.mpf(n) ** 2
            lnn = mp.log(n)
            klogk += n * lnn
            failed = [name for name, holds in INEQUALITIES if not holds(n, N, n2, lnn, klogk)]
        yield f"n={n}: {failed[0]}" if failed else None
        if failed:
            return


def suite_witness(level: str, bits: int) -> Iterator[str | None]:
    """Witness vanishing order: residuals and the r^N growth law.

    A degree is one residual case (build_witness raises on a miss, and
    then the degree has no further cases) and one case per radius, whose
    growth is measured against the K certificate of witness_certificate;
    the r = N/n circle is witness_certificate's too.  Every circle is
    scanned at w.bits, the witness's precision.  The residual check, the
    K circle and the radii read one moment table: all read w.f, and
    norms.moment_table keeps it; a circle that norm_on_circle evaluates
    again at more bits reads a table of its own.
    """
    n_max = 6 if level == "full" else 3
    wbits = 512 if level == "full" else bits
    a = make_alpha(*STANDARD_ALPHAS[0])
    for n in range(1, n_max + 1):
        try:
            w, normk, top, _ = witness_certificate(n, a, bits=wbits)
        except ValueError as ex:
            yield f"n={n}: {ex}"
            continue
        yield None
        N = w.order
        for r in (1.5, 2.0, N / n):
            circ = top if r == N / n else norm_on_circle(w.f, r, 512, w.bits, certify=False)
            with mp.workprec(w.bits):
                gain = mp.log(circ.grid_max) - mp.log(normk.certified_upper)
                need = N * mp.log(r) - mp.mpf("1e-6")
            yield f"n={n} r={r}: growth {mp.nstr(gain, 10)} < N ln r" if gain < need else None


def suite_norm_refinement(level: str, bits: int) -> Iterator[str | None]:
    """Grid max grows and stays below the certificate under refinement."""
    n_max = 3 if level == "full" else 2
    rng = np.random.default_rng(_SUITE_SEED + 2)
    a = make_alpha(*STANDARD_ALPHAS[1])
    for n in range(1, n_max + 1):
        for _ in range(3):
            p = _random_poly(n, rng, bits)
            prev = None
            for M in (64, 128, 256):
                est = norm_on_K(p, a, M, bits)
                with mp.workprec(bits):
                    tiny = mp.mpf(2) ** (-bits // 2) * est.certified_upper
                    above = est.grid_max > est.certified_upper + tiny
                    shrank = prev is not None and est.grid_max < prev - tiny
                prev = est.grid_max
                yield (
                    f"n={n} M={M}: grid above certificate" if above
                    else f"n={n} M={M}: grid max shrank" if shrank
                    else None
                )


def suite_envelope(level: str, bits: int) -> Iterator[str | None]:
    """Growth envelope |P| <= ||P||_K e^{upper} e^{n log+ max(|z|,|w|)} at each point."""
    n_max = 3
    per_poly = 300 if level == "full" else 50
    pts = 300 if level == "full" else 50
    rng = np.random.default_rng(_SUITE_SEED + 3)
    a = make_alpha(*STANDARD_ALPHAS[0])
    for n in range(1, n_max + 1):
        idx = canonical_indices(n)
        _, up = theorem2_bounds(n, a, bits)
        upper = float(up)
        for _ in range(max(1, per_poly // 50)):
            c = rng.uniform(-1, 1, len(idx)) + 1j * rng.uniform(-1, 1, len(idx))
            with mp.workprec(bits):
                p = Poly2(n, {(jk.j, jk.k): mp.mpc(cv.real, cv.imag) for jk, cv in zip(idx, c)})
            normk = float(norm_on_K(p, a, 512, bits).certified_upper)
            z = rng.uniform(-3, 3, pts) + 1j * rng.uniform(-3, 3, pts)
            w = rng.uniform(-3, 3, pts) + 1j * rng.uniform(-3, 3, pts)
            vals = np.zeros(pts, dtype=np.complex128)
            for jk, cv in zip(idx, c):
                vals += cv * z**jk.j * w**jk.k
            mx = np.maximum(np.maximum(np.abs(z), np.abs(w)), 1.0)
            bound = normk * np.exp(upper) * mx ** n
            over = np.abs(vals) > bound * (1 + 1e-12)
            for i in range(pts):
                yield (
                    f"n={n} z={z[i]:.3f} w={w[i]:.3f}: "
                    f"|P|={abs(vals[i]):.3e} > {bound[i]:.3e}"
                ) if over[i] else None


# Every suite under the name `bwexp verify` prints, in the order it runs.
SUITES = {
    "endpoint-formulas": suite_endpoint_formulas,
    "interval-product-lemma": suite_interval_product,
    "stirling-bounds": suite_stirling,
    "annihilator-identity": suite_annihilator,
    "closed-form-inequalities": suite_inequalities,
    "witness-vanishing": suite_witness,
    "norm-refinement": suite_norm_refinement,
    "envelope-domination": suite_envelope,
}


def run_suites(level: str = "quick", bits: int = DEFAULT_BITS) -> list[SuiteResult]:
    """Run every suite in SUITES at the given level: count its verdicts,
    keep its first failure message and time it."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    results = []
    for name, suite in SUITES.items():
        t0 = time.perf_counter()
        cases = failures = 0
        first = None
        for verdict in suite(level, bits):
            cases += 1
            if verdict is not None:
                failures += 1
                first = verdict if first is None else first
        results.append(SuiteResult(name, cases, failures, first, time.perf_counter() - t0))
    return results
