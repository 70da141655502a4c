"""Norm estimates: known values, one-sidedness, refinement, homogeneity."""

import random

from mpmath import mp
import numpy as np
import pytest

from bwexp import ExpSum, MultiIndex, Poly2, canonical_indices, compose_to_expsum, eval_poly, make_alpha
from bwexp.analytic_bounds import coeff_log_upper, theorem2_bounds
from bwexp.construct import build_witness
from bwexp.norms import _CircleGrid, _Moments, _window, bw_envelope, norm_on_bidisk, norm_on_circle, norm_on_K

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
    with pytest.raises(ValueError):
        norm_on_circle(ExpSum(((1, 1),)), 0, 64)
    with pytest.raises(ValueError):
        norm_on_circle(ExpSum(((1, 1),)), 1, 4)


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


def _full_scan_level_max(grid, j, scaled):
    """Reference level max: every grid point at working precision."""
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
            cases.append((f"n={n} alpha={re}+{im}i r=N/n", lambda f=f, r=w.r: norm_on_circle(f, r, 512, BITS, depth=0)))
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
    # longest, on the K circle, at r = N/n and on fixed-depth ladders
    alpha = make_alpha(0.0, 0.5)
    cases = []
    for n, depth in ((4, 1), (5, 3)):
        w = build_witness(n, alpha, BITS)
        f = compose_to_expsum(w.p, alpha, BITS)
        cases.append((f"n={n} K", lambda p=w.p: norm_on_K(p, alpha, 128, BITS)))
        cases.append((f"n={n} r=N/n", lambda f=f, r=w.r: norm_on_circle(f, r, 128, BITS, depth=0)))
        cases.append((f"n={n} r=2 depth={depth}", lambda f=f, d=depth: norm_on_circle(f, 2, 128, BITS, depth=d)))
    fast = {tag: run() for tag, run in cases}
    monkeypatch.setattr(_CircleGrid, "level_max", _full_scan_level_max)
    for tag, run in cases:
        slow = run()
        assert fast[tag].grid_max == slow.grid_max, tag
        assert fast[tag].certified_upper == slow.certified_upper, tag


def test_float_scan_within_window():
    # every float grid value of levels j <= 3 lies within E of the
    # working-precision value, E the bound the preselection window uses
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
            exps = [mp.mpc(a) for _, a in f.terms]
            for r in (1, 2):
                grid = _CircleGrid(_Moments(f.terms, BITS), mp.mpf(r), 64)
                scaled = coeffs
                for j in range(4):
                    vals, n, size, extra, S = grid.scan(j)
                    E = mp.mpf(_window(float(np.abs(vals).max()), n, size, extra))
                    for i, v in enumerate(vals.tolist()):
                        s = mp.mpc(0)
                        for d, e in zip(scaled, grid.row(i)):
                            s += d * e
                        assert abs(mp.mpc(v) - s * mp.ldexp(1, -S)) <= E, f"{tag} r={r} j={j} i={i}"
                    scaled = [d * a for d, a in zip(scaled, exps)]


def test_ladder_stop_within_its_bound():
    # the adaptive ladder stops once the tail term is 2^-64 of the best
    # bound, and deeper levels lower the certificate by at most that tail:
    # against the ladder run to the depth cap, the certificate is at most
    # 2^-64 higher and never lower
    for re, im in STANDARD_ALPHAS[:2]:
        alpha = make_alpha(re, im)
        for n in range(1, 6):
            p = build_witness(n, alpha, BITS).p
            cap = max(8, 2 * len(compose_to_expsum(p, alpha, BITS).terms) + 16)
            adaptive = norm_on_K(p, alpha, 512, BITS).certified_upper
            full = norm_on_K(p, alpha, 512, BITS, depth=cap).certified_upper
            with mp.workprec(BITS):
                assert 0 <= adaptive - full <= mp.ldexp(full, -64), f"n={n} alpha={re}+{im}i"


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


def test_depth_one_matches_first_order_bound():
    # depth=1 certificate is grid_max + (pi r/M) * sum |c||a|e^{r|a|}
    alpha = make_alpha(0.3, 0.4)
    p = Poly2(2, {MultiIndex(1, 0): 1, MultiIndex(0, 1): -2j, MultiIndex(1, 1): 0.5})
    with mp.workprec(BITS):
        est = norm_on_K(p, alpha, 128, depth=1)
        f = compose_to_expsum(p, alpha)
        L = mp.mpf(0)
        for c, a in f.terms:
            L += abs(mp.mpc(c)) * abs(mp.mpc(a)) * mp.exp(abs(mp.mpc(a)))
        want = est.grid_max + mp.pi / 128 * L
        assert abs(est.certified_upper - want) <= mp.mpf(2) ** (-200) * want
        # adaptive depth never does worse
        adaptive = norm_on_K(p, alpha, 128)
        assert adaptive.certified_upper <= est.certified_upper * (1 + mp.mpf(2) ** (-200))


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
