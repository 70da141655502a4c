"""Norm estimates: known values, one-sidedness, refinement, homogeneity."""

import os
import random
import subprocess
import sys
import warnings
from operator import mul

from mpmath import mp
import numpy as np
import pytest

from bwexp import ExpSum, MultiIndex, Poly2, canonical_indices, compose_to_expsum, eval_poly, make_alpha, norms, space_dimension
from bwexp.analytic_bounds import coeff_log_upper, theorem2_bounds
from bwexp.construct import build_witness
from bwexp.norms import (
    PrecisionError,
    _CircleGrid,
    _Moments,
    _window,
    bw_envelope,
    norm_on_bidisk,
    norm_on_circle,
    norm_on_K,
)

SEED = 20240814
BITS = 256
STANDARD_ALPHAS = ((0.0, 0.5), (0.3, 0.4), (-0.2, 0.6), (0.1, 0.1))


def random_poly(rng, n, scale=1.0):
    return Poly2(
        n,
        {
            jk: complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
            for jk in canonical_indices(n)
        },
    )


def test_norm_on_K_known_values():
    alpha = make_alpha(0.0, 0.5)
    with mp.workprec(BITS):
        est = norm_on_K(Poly2(1, {MultiIndex(1, 0): 1}), alpha, 1024)
        assert abs(est.grid_max - mp.e) <= mp.mpf("1e-6") * mp.e
        assert est.grid_max <= mp.e <= est.certified_upper

        est = norm_on_K(Poly2(1, {MultiIndex(0, 1): 1}), alpha, 1024)
        want = mp.exp(mp.mpf("0.5"))
        assert abs(est.grid_max - want) <= mp.mpf("1e-6") * want
        assert est.grid_max <= want <= est.certified_upper

        est = norm_on_K(Poly2(1, {MultiIndex(0, 0): 1}), alpha, 1024)
        assert est.grid_max == 1
        assert est.certified_upper == 1


def test_norm_on_K_m512_tolerance():
    # documented example: |grid_max - e| <= 1e-3 at M = 512
    est = norm_on_K(Poly2(1, {MultiIndex(1, 0): 1}), make_alpha(0.3, 0.4), 512)
    with mp.workprec(BITS):
        assert abs(est.grid_max - mp.e) <= mp.mpf("1e-3")


def test_norm_on_circle_known_values():
    with mp.workprec(BITS):
        est = norm_on_circle(ExpSum(((1, 1),)), 2, 1024)
        want = mp.exp(2)
        assert abs(est.grid_max - want) <= mp.mpf("1e-6") * want
        assert est.grid_max <= want <= est.certified_upper

        est = norm_on_circle(ExpSum(((1, 0),)), 3.5, 64)
        assert est.grid_max == 1
        assert est.certified_upper == 1
    for r in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius"):
            norm_on_circle(ExpSum(((1, 1),)), r, 64)
    with pytest.raises(ValueError):
        norm_on_circle(ExpSum(((1, 1),)), 1, 4)


def test_all_zero_coefficients_return_zero():
    # every coefficient 0 at working precision: both values are 0, and
    # the call returns (run in a subprocess, so a hang fails the test)
    code = (
        "from bwexp import MultiIndex, Poly2, make_alpha\n"
        "from bwexp.norms import norm_on_K\n"
        "est = norm_on_K(Poly2(1, {MultiIndex(1, 0): 0}), make_alpha(0, 0.5), 64)\n"
        "print(est.grid_max == 0 and est.certified_upper == 0)\n"
    )
    src = os.path.dirname(os.path.dirname(norms.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout.strip() == "True", out.stderr
    est = norm_on_circle(ExpSum(()), 1, 64)
    assert est.grid_max == 0 and est.certified_upper == 0


def test_grid_max_in_rounding_noise_raises():
    # e^{a t} - e^{(a + d) t} is about -d t on |t| = 1 for tiny a: at
    # d = 2^-230 and 256 bits the rounding bound of the working-precision
    # evaluation exceeds 2^-64 of the grid maximum, so no attained value
    # is reported; at d = 2^-100 it is far below and the estimate stands
    with mp.workprec(BITS):
        near = [ExpSum(((1, a), (-1, a + a * mp.mpf(2) ** -30)))
                for a in (mp.mpf(2) ** -200, mp.mpf(2) ** -70)]
    with pytest.raises(PrecisionError, match="increase precision") as raised:
        norm_on_circle(near[0], 1, 64, BITS)
    # the precision the error names clears the bound: grid_max is within
    # 2^-64 of an attained value (here 2^-83 above the certificate, which
    # is exact to about 2^-200)
    est = norm_on_circle(near[0], 1, 64, raised.value.bits)
    with mp.workprec(raised.value.bits):
        assert 0 < est.grid_max * (1 - mp.mpf(2) ** -64) <= est.certified_upper <= 4 * mp.mpf(2) ** -230
    est = norm_on_circle(near[1], 1, 64, BITS)
    with mp.workprec(BITS):
        assert 0 < est.grid_max <= est.certified_upper <= 4 * mp.mpf(2) ** -100


def test_norm_on_bidisk_known_values():
    with mp.workprec(BITS):
        est = norm_on_bidisk(Poly2(1, {MultiIndex(1, 0): 1, MultiIndex(0, 1): 1}), 1024)
        assert abs(est.grid_max - 2) <= mp.mpf("1e-6") * 2
        assert est.certified_upper == 2

        est = norm_on_bidisk(Poly2(2, {MultiIndex(1, 1): 1}), 1024)
        assert abs(est.grid_max - 1) <= mp.mpf("1e-6")
        assert est.certified_upper == 1

        p = Poly2(
            2,
            {
                MultiIndex(0, 0): 1,
                MultiIndex(1, 0): 1,
                MultiIndex(0, 1): 1,
                MultiIndex(1, 1): 1,
            },
        )
        est = norm_on_bidisk(p, 1024)
        assert abs(est.grid_max - 4) <= mp.mpf("1e-6") * 4
        assert est.certified_upper == 4


def _full_scan_level_max(grid):
    """Reference grid max: every grid point at working precision."""
    scaled = grid.table.coeffs
    table = grid.__dict__.get("full_table")
    if table is None:
        step = 2 * mp.pi / grid.M
        table = []
        for i in range(grid.M):
            t = grid.r * mp.exp(mp.mpc(0, i * step))
            table.append([mp.exp(a * t) for a in grid.exps])
        grid.full_table = table
    best = mp.mpf(0)
    for row in table:
        s = mp.mpc(0)
        for d, e in zip(scaled, row):
            s += d * e
        v = abs(s)
        if v > best:
            best = v
    return best


def test_preselection_matches_full_scan(monkeypatch):
    # the float64 preselection reports exactly the working-precision
    # values of a full scan of the same grid, ties and cancellation included
    cases = []
    for n in (1, 2, 3):
        for re, im in STANDARD_ALPHAS:
            alpha = make_alpha(re, im)
            w = build_witness(n, alpha, BITS)
            f = compose_to_expsum(w.p, alpha, BITS)
            cases.append((f"n={n} alpha={re}+{im}i K", lambda p=w.p, a=alpha: norm_on_K(p, a, 512, BITS)))
            cases.append((f"n={n} alpha={re}+{im}i r=N/n", lambda f=f, r=w.r: norm_on_circle(f, r, 512, BITS, certify=False)))
    # f(conj t) = conj f(t) ties grid points i and M - i; nudging one
    # coefficient by 2^-60 picks the winner below float64 resolution
    with mp.workprec(BITS):
        c, a = mp.mpc(1, 0.5), mp.mpc(0.2, 1.1)
        d, b = mp.mpc(0.3, -0.2), mp.mpc(-0.7, 0.4)
        for sign in (1, -1):
            nudged = c * (1 + sign * mp.mpf(2) ** -60)
            f = ExpSum(((nudged, a), (d, b), (mp.conj(c), mp.conj(a)), (mp.conj(d), mp.conj(b))))
            cases.append((f"conjugate pair {sign}", lambda f=f: norm_on_circle(f, 2, 64, BITS)))
    fast = {tag: run() for tag, run in cases}

    # |cosh t| peaks at both t = r and t = -r: grid points 0 and M/2 tie
    mirror = ExpSum(((1, 1), (1, -1)))
    row = _CircleGrid.row
    for M in (64, 512):
        evaluated = set()

        def recording_row(grid, i):
            evaluated.add(i)
            return row(grid, i)

        tag = f"mirror M={M}"
        cases.append((tag, lambda M=M: norm_on_circle(mirror, 2, M, BITS)))
        with monkeypatch.context() as patch:
            patch.setattr(_CircleGrid, "row", recording_row)
            fast[tag] = cases[-1][1]()
        assert {0, M // 2} <= evaluated, tag

    monkeypatch.setattr(_CircleGrid, "level_max", _full_scan_level_max)
    for tag, run in cases:
        slow = run()
        assert fast[tag].grid_max == slow.grid_max, tag
        assert fast[tag].certified_upper == slow.certified_upper, tag


def test_preselection_matches_full_scan_higher_degree(monkeypatch):
    # the certify-witness degrees, where the float-chosen truncation L is
    # longest, on the K circle, at r = N/n and at r = 2
    alpha = make_alpha(0.0, 0.5)
    cases = []
    for n in (4, 5):
        w = build_witness(n, alpha, BITS)
        f = compose_to_expsum(w.p, alpha, BITS)
        cases.append((f"n={n} K", lambda p=w.p: norm_on_K(p, alpha, 128, BITS)))
        cases.append((f"n={n} r=N/n", lambda f=f, r=w.r: norm_on_circle(f, r, 128, BITS, certify=False)))
        cases.append((f"n={n} r=2", lambda f=f: norm_on_circle(f, 2, 128, BITS)))
    fast = {tag: run() for tag, run in cases}
    monkeypatch.setattr(_CircleGrid, "level_max", _full_scan_level_max)
    for tag, run in cases:
        slow = run()
        assert fast[tag].grid_max == slow.grid_max, tag
        assert fast[tag].certified_upper == slow.certified_upper, tag


def test_float_scan_within_window():
    # every float grid value lies within E of the working-precision
    # value, E the bound the preselection window uses
    sums = {}
    for n in (1, 2, 3):
        for re, im in STANDARD_ALPHAS[:2]:
            alpha = make_alpha(re, im)
            sums[f"witness n={n} alpha={re}+{im}i"] = compose_to_expsum(build_witness(n, alpha, BITS).p, alpha, BITS)
    rng = random.Random(SEED + 6)
    for trial in range(3):
        alpha = make_alpha(rng.uniform(-0.7, 0.7), rng.uniform(0.1, 0.7))
        sums[f"random {trial}"] = compose_to_expsum(random_poly(rng, rng.randint(1, 3)), alpha, BITS)
    with mp.workprec(BITS):
        for tag, f in sums.items():
            coeffs = [mp.mpc(c) for c, _ in f.terms]
            for r in (1, 2):
                grid = _CircleGrid(_Moments(f.terms, BITS), mp.mpf(r), 64)
                vals, n, size, extra, S = grid.scan()
                E = mp.mpf(_window(float(np.abs(vals).max()), n, size, extra))
                for i, v in enumerate(vals.tolist()):
                    s = mp.mpc(0)
                    for d, e in zip(coeffs, grid.row(i)):
                        s += d * e
                    assert abs(mp.mpc(v) - s * mp.ldexp(1, -S)) <= E, f"{tag} r={r} i={i}"


def _reference_moments(terms, count):
    """mu_k and sum |c||a|^k for k < count: the mpmath power-sum loop at
    2 BITS on the BITS-rounded c and a, so its own rounding (of order
    2^-(2 BITS)) is far below the integer sums' bound."""
    with mp.workprec(BITS):
        powers = [mp.mpc(c) for c, _ in terms]
        exps = [mp.mpc(a) for _, a in terms]
    with mp.workprec(2 * BITS):
        abs_powers = [abs(c) for c in powers]
        abs_exps = [abs(a) for a in exps]
        mu, abs_mu = [], []
        for _ in range(count):
            s = mp.mpc(0)
            for p in powers:
                s += p
            mu.append(s)
            abs_mu.append(sum(abs_powers))
            powers = [p * a for p, a in zip(powers, exps)]
            abs_powers = [p * x for p, x in zip(abs_powers, abs_exps)]
    return mu, abs_mu


def test_integer_moments_within_their_bound(monkeypatch):
    # each integer power sum is within its tracked bound of mu_k, and the
    # bound is at most (k + K + 2) 2^-bits sum|c||a|^k, the rounding
    # allowance of a working-precision power sum; the abs sums are upper
    # bounds
    sums = {}
    for n in range(1, 7):
        for re, im in STANDARD_ALPHAS[:2]:
            alpha = make_alpha(re, im)
            w = build_witness(n, alpha, BITS)
            sums[f"witness n={n} alpha={re}+{im}i"] = (compose_to_expsum(w.p, alpha, BITS), w.r)
    rng = random.Random(SEED + 7)
    for trial in range(3):
        n = rng.randint(1, 3)
        alpha = make_alpha(rng.uniform(-0.7, 0.7), rng.uniform(0.1, 0.7))
        sums[f"random {trial}"] = (compose_to_expsum(random_poly(rng, n), alpha, BITS), mp.mpf(space_dimension(n)) / n)
    for tag, (f, r) in sums.items():
        monkeypatch.setattr(norms, "_last_moments", None)
        norm_on_circle(f, r, 512, BITS, certify=False)
        table = norms._last_moments
        count, K = len(table.mu_f), len(f.terms)
        mu, abs_mu = _reference_moments(f.terms, count)
        with mp.workprec(2 * BITS):
            for k in range(count):
                e = table.scale(k)
                (re, im), bound = table.sums[k], mp.ldexp(table.errors[k], e)
                assert abs(mp.mpc(mp.ldexp(re, e), mp.ldexp(im, e)) - mu[k]) <= bound, f"{tag} k={k}"
                assert bound <= (k + K + 2) * mp.ldexp(abs_mu[k], -BITS), f"{tag} k={k}"
                assert mp.ldexp(table.abs_sums[k], e) >= abs_mu[k], f"{tag} k={k}"


def test_large_exponents_match_full_scan(monkeypatch):
    # |a| = 150 and 400 put sum |c||a|^k far past the float64 range at the
    # moments the r = 1 scan reads; the float preselection still reports
    # the full scan's values, without a float overflow
    sums = {
        "cosh 150 t": ExpSum(((1, 150), (1, -150))),
        "|a| = 400": ExpSum(((1, 400), (-1j, 400j), (mp.mpc(0.5, 0.5), mp.mpc(-240, 320)))),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fast = {tag: norm_on_circle(f, 1, 64, BITS) for tag, f in sums.items()}
    monkeypatch.setattr(_CircleGrid, "level_max", _full_scan_level_max)
    for tag, f in sums.items():
        slow = norm_on_circle(f, 1, 64, BITS)
        assert fast[tag].grid_max == slow.grid_max, tag
        assert fast[tag].certified_upper == slow.certified_upper, tag


# norm_on_K(p, 0.3+0.4i, 512, BITS).certified_upper, the autocorrelation
# bound, for the n = 3 witness and random_poly(random.Random(SEED + 8), 3)
LADDER_PINS = {
    "witness": "0.00000378222230779776929773641302043835073556933397923739060705255806892352476378154069993816833489736",
    "random": "19.7347145077557474057532931692081010139878536791005388878158243297957672582724691404965265",
}


def test_ladder_certificates_pinned():
    # the circle certificates keep their exact working-precision values
    alpha = make_alpha(0.3, 0.4)
    polys = {"witness": build_witness(3, alpha, BITS).p, "random": random_poly(random.Random(SEED + 8), 3)}
    for tag, want in LADDER_PINS.items():
        est = norm_on_K(polys[tag], alpha, 512, BITS)
        with mp.workprec(BITS):
            assert est.certified_upper == mp.mpf(want), tag


def _autocorrelation_sum(b):
    """sum_{|k|<=L} |rho_k| of b_0..b_L, rho_k = sum_m b_{m+k} conj(b_m), at the current precision."""
    total = abs(mp.fsum(abs(v) ** 2 for v in b))
    for k in range(1, len(b)):
        total += 2 * abs(mp.fsum(b[m + k] * mp.conj(b[m]) for m in range(len(b) - k)))
    return total


def test_integer_autocorrelation_within_its_allowance():
    # the integer sum over the Gaussian integers B_m is at most 2L units
    # above the exact sum_k |rho_k(B)|, and the certificate is
    # sqrt(sum_k |rho_k(B)|) 2^-P + D + tail rounded up by less than four
    # units of 2^-P.  Against a 2 BITS reference of the Taylor
    # coefficients b_m = mu_m r^m/m!, the B_m 2^-P lie within D, tail
    # bounds the next 100 terms of sum |c||a|^m r^m/m!, and the integer
    # sum lies within 2 ||b||_1 D + D^2 + 2L 2^-2P of sum_k |rho_k(b)|
    cases = {}
    for n in (1, 2, 3):
        for re, im in STANDARD_ALPHAS[:2]:
            alpha = make_alpha(re, im)
            w = build_witness(n, alpha, BITS)
            cases[f"witness n={n} alpha={re}+{im}i K"] = (compose_to_expsum(w.p, alpha, BITS), 1)
            cases[f"witness n={n} alpha={re}+{im}i r=N/n"] = (w.f, w.r)
    rng = random.Random(SEED + 9)
    for trial in range(3):
        alpha = make_alpha(rng.uniform(-0.7, 0.7), rng.uniform(0.1, 0.7))
        f = compose_to_expsum(random_poly(rng, rng.randint(1, 3)), alpha, BITS)
        for r in (1, 2):
            cases[f"random {trial} r={r}"] = (f, r)
    for tag, (f, r) in cases.items():
        with mp.workprec(BITS):
            grid = _CircleGrid(_Moments(f.terms, BITS), mp.mpf(r), 64)
            P, B = grid.coefficients()
            _, total = grid.autocorrelation()
        L = len(B) - 1
        re, im = [x for x, _ in B], [y for _, y in B]
        with mp.workprec(8 * BITS):  # exact enough for integers of 2 (BITS + 66) bits
            moduli = [mp.sqrt((sum(map(mul, re[k:], re)) + sum(map(mul, im[k:], im))) ** 2
                              + (sum(map(mul, im[k:], re)) - sum(map(mul, re[k:], im))) ** 2)
                      for k in range(1, L + 1)]
            exact = sum(map(mul, re, re)) + sum(map(mul, im, im)) + 2 * mp.fsum(moduli)
            assert exact <= total <= exact + 2 * L, tag
            D = grid.error + mp.ldexp(L + 1, 1 - P)
            want = mp.ldexp(mp.sqrt(exact), -P) + D + grid.tail
            assert want <= grid.certificate() <= want + mp.ldexp(4, -P), tag
        mu, abs_mu = _reference_moments(f.terms, L + 101)
        with mp.workprec(2 * BITS):
            rfac = [mp.mpf(r) ** m / mp.factorial(m) for m in range(L + 101)]
            b = [u * v for u, v in zip(mu, rfac)]
            assert mp.fsum(abs(mp.mpc(mp.ldexp(x, -P), mp.ldexp(y, -P)) - v) for (x, y), v in zip(B, b)) <= D, tag
            assert mp.fsum(map(mul, abs_mu[L + 1:], rfac[L + 1:])) <= grid.tail, tag
            allowance = 2 * mp.fsum(abs(v) for v in b[: L + 1]) * D + D**2 + mp.ldexp(2 * L, -2 * P)
            assert abs(mp.ldexp(total, -2 * P) - _autocorrelation_sum(b[: L + 1])) <= allowance, tag


def test_circle_certificates_above_a_finer_grid():
    # every certificate on 512 points bounds the sup, so it is at least
    # the working-precision grid maximum on 16384 points: random P at
    # r = 1, and witnesses at r = 1 and r = N/n
    sums = []
    rng = random.Random(SEED + 10)
    for re, im in STANDARD_ALPHAS[:3]:
        alpha = make_alpha(re, im)
        for n in (1, 3, 6):
            sums.append((f"random n={n} alpha={re}+{im}i", compose_to_expsum(random_poly(rng, n), alpha, BITS), 1))
    alpha = make_alpha(0.0, 0.5)
    for n in range(1, 6):
        w = build_witness(n, alpha, BITS)
        sums.append((f"witness n={n} K", compose_to_expsum(w.p, alpha, BITS), 1))
        sums.append((f"witness n={n} r=N/n", w.f, w.r))
    for tag, f, r in sums:
        est = norm_on_circle(f, r, 512, BITS)
        fine = norm_on_circle(f, r, 16384, BITS, certify=False)
        with mp.workprec(BITS):
            assert est.certified_upper >= fine.grid_max > 0, tag


def _full_scan_bidisk(p, M):
    """Reference grid max and coefficient sum: every torus point at working precision."""
    items = sorted(p.coeffs.items())
    with mp.workprec(BITS):
        step = 2 * mp.pi / M
        roots = [mp.exp(mp.mpc(0, m * step)) for m in range(M)]
        best = mp.mpf(0)
        for a in range(M):
            for b in range(M):
                s = mp.mpc(0)
                for (j, k), c in items:
                    s += mp.mpc(c) * roots[(a * j + b * k) % M]
                v = abs(s)
                if v > best:
                    best = v
        csum = mp.mpf(0)
        for _, c in items:
            csum += abs(mp.mpc(c))
    return best, csum


def test_bidisk_preselection_matches_full_scan():
    # the float64 torus scan reports exactly the working-precision grid
    # maximum of a full scan, ties and sub-float differences included
    polys = {}
    for n in (1, 2, 3):
        for re, im in STANDARD_ALPHAS:
            polys[f"witness n={n} alpha={re}+{im}i"] = build_witness(n, make_alpha(re, im), BITS).p
    rng = random.Random(SEED + 5)
    for trial in range(4):
        polys[f"random {trial}"] = random_poly(rng, rng.randint(1, 3))
    # every grid point ties; only M of the M^2 phase tuples are distinct
    polys["z w"] = Poly2(2, {MultiIndex(1, 1): 1})
    with mp.workprec(BITS):
        tiny = mp.mpf(2) ** -60
        for sign in (1, -1):
            # the maxima at z = 1 and z = -1 differ by 2^-59, below float64 resolution
            polys[f"1 + z^2 + {sign} 2^-60 z"] = Poly2(
                2, {MultiIndex(0, 0): 1, MultiIndex(1, 0): sign * tiny, MultiIndex(2, 0): 1}
            )
            # |2 + sign 2^-60 z| on the diagonal z = w: the float values of its
            # near-ties are ordered by twiddle rounding, not by the true values
            polys[f"z + w + {sign} 2^-60 z w"] = Poly2(
                2, {MultiIndex(1, 0): 1, MultiIndex(0, 1): 1, MultiIndex(1, 1): sign * tiny}
            )
    for M in (16, 32):
        for tag, p in polys.items():
            est = norm_on_bidisk(p, M, BITS)
            grid_max, csum = _full_scan_bidisk(p, M)
            assert est.grid_max == grid_max, f"{tag} M={M}"
            assert est.certified_upper == csum, f"{tag} M={M}"


def test_one_sidedness_random():
    rng = random.Random(SEED)
    for trial in range(10):
        n = rng.randint(1, 3)
        p = random_poly(rng, n)
        alpha = make_alpha(rng.uniform(-0.7, 0.7), rng.uniform(0.1, 0.7))
        est = norm_on_K(p, alpha, 128)
        assert est.grid_max <= est.certified_upper
        est = norm_on_bidisk(p, 64)
        assert est.grid_max <= est.certified_upper


def test_grid_refinement_monotone():
    # nested angle grids: grid_max never drops, certificates never grow
    rng = random.Random(SEED + 1)
    with mp.workprec(BITS):
        tol = mp.mpf(2) ** (-(BITS // 2))
        for trial in range(6):
            n = rng.randint(1, 3)
            p = random_poly(rng, n)
            alpha = make_alpha(rng.uniform(-0.7, 0.7), rng.uniform(0.1, 0.7))
            prev = None
            for M in (64, 128, 256):
                est = norm_on_K(p, alpha, M)
                if prev is not None:
                    assert est.grid_max >= prev.grid_max * (1 - tol)
                    assert est.certified_upper <= prev.certified_upper * (1 + tol)
                prev = est
            prev = None
            for M in (32, 64, 128):
                est = norm_on_bidisk(p, M)
                if prev is not None:
                    assert est.grid_max >= prev.grid_max * (1 - tol)
                    assert est.certified_upper <= prev.certified_upper * (1 + tol)
                prev = est


def test_homogeneity():
    rng = random.Random(SEED + 2)
    with mp.workprec(BITS):
        tol = mp.mpf(2) ** (-(BITS // 2))
        s = mp.mpc(3, -4)  # |s| = 5
        for trial in range(5):
            n = rng.randint(1, 3)
            p = random_poly(rng, n)
            alpha = make_alpha(rng.uniform(-0.7, 0.7), rng.uniform(0.1, 0.7))
            sp = Poly2(n, {jk: s * mp.mpc(c) for jk, c in p.coeffs.items()})

            a, b = norm_on_K(p, alpha, 64), norm_on_K(sp, alpha, 64)
            assert abs(b.grid_max - 5 * a.grid_max) <= tol * b.grid_max
            assert abs(b.certified_upper - 5 * a.certified_upper) <= tol * b.certified_upper

            a, b = norm_on_bidisk(p, 32), norm_on_bidisk(sp, 32)
            assert abs(b.grid_max - 5 * a.grid_max) <= tol * b.grid_max
            assert abs(b.certified_upper - 5 * a.certified_upper) <= tol * b.certified_upper


def test_certificate_at_most_first_order_bound():
    # the certificate is at most grid_max + (pi r/M) * sum |c||a|e^{r|a|}
    alpha = make_alpha(0.3, 0.4)
    p = Poly2(2, {MultiIndex(1, 0): 1, MultiIndex(0, 1): -2j, MultiIndex(1, 1): 0.5})
    with mp.workprec(BITS):
        est = norm_on_K(p, alpha, 128)
        f = compose_to_expsum(p, alpha)
        L = mp.mpf(0)
        for c, a in f.terms:
            L += abs(mp.mpc(c)) * abs(mp.mpc(a)) * mp.exp(abs(mp.mpc(a)))
        want = est.grid_max + mp.pi / 128 * L
        assert est.certified_upper <= want * (1 + mp.mpf(2) ** (-200))


def test_bw_envelope():
    with mp.workprec(BITS):
        # inside the bidisk the log+ factor is 1
        v = bw_envelope(0.5, 0.5j, 2, 3, 4)
        assert abs(v - 6) <= mp.mpf(2) ** (-200)
        v = bw_envelope(mp.e, 1, 2, 3, 1)
        assert abs(v - 6 * mp.e) <= mp.mpf("1e-40")
    with pytest.raises(ValueError):
        bw_envelope(1, 1, 0, 3, 1)


def test_bw_envelope_dominates_random_polys():
    # |P(z,w)| <= ||P||_K * e^upper * e^{n log+ max(|z|,|w|)}
    rng = random.Random(SEED + 3)
    with mp.workprec(BITS):
        for n in (1, 2):
            alpha = make_alpha(0.1, 0.4)
            _, up = theorem2_bounds(n, alpha)
            en = mp.exp(up)
            for trial in range(5):
                p = random_poly(rng, n)
                nk = norm_on_K(p, alpha, 128)
                for _ in range(20):
                    z = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    w = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    val = abs(eval_poly(p, z, w))
                    cap = bw_envelope(z, w, nk.certified_upper, en, n)
                    assert val <= cap, f"n={n} trial={trial}"


def test_coefficient_bound_downstream():
    # P rescaled to certified K norm 1 has ln|c| below the stated ceiling
    rng = random.Random(SEED + 4)
    with mp.workprec(BITS):
        for n in (1, 2, 3, 4):
            alpha = make_alpha(0.2, 0.35)
            cap = coeff_log_upper(n, alpha)
            for trial in range(5):
                p = random_poly(rng, n)
                nk = norm_on_K(p, alpha, 256)
                for jk, c in p.coeffs.items():
                    scaled = abs(mp.mpc(c)) / nk.certified_upper
                    if scaled > 0:
                        assert mp.log(scaled) <= cap + mp.mpf("0.1"), (
                            f"n={n} {jk}: ln|c| = {mp.nstr(mp.log(scaled), 6)}"
                        )
