"""Witness construction: weights, vanishing order, certified lower bounds."""

import random

import pytest
from mpmath import mp

from bwexp import (
    MultiIndex,
    compose_to_expsum,
    derivative_at_zero,
    make_alpha,
    space_dimension,
)
from bwexp.analytic_bounds import theorem2_bounds
from bwexp.construct import (
    build_witness,
    divided_difference_weights,
    proof_lower_bound,
    required_witness_bits,
    witness_certificate,
    witness_lower_bound,
)
from bwexp import norms
from bwexp.norms import norm_on_circle, norm_on_K
from bwexp.suites import suite_witness

SEED = 20240813
BITS = 256
ALPHAS = [
    make_alpha(0.0, 0.5),
    make_alpha(0.3, 0.4),
    make_alpha(-0.2, 0.6),
    make_alpha(0.1, 0.1),
]
# float(lower) of witness_certificate(n, 0.5i) for n = 1..5 at grid 512,
# 256 bits, recorded when each circle still formed its own moments
CERT_LOWER = (
    -0.22386290795075245,
    0.7341775690341715,
    3.17103606777356,
    7.321385901666317,
    13.377201762648394,
)


def test_weights_hand_values():
    with mp.workprec(BITS):
        a = mp.mpc(0, 0.5)
        w = divided_difference_weights([0, 1, a])
        # hand values: (-2i, 0.8+0.4i, -0.8+1.6i)
        assert abs(w[0] - mp.mpc(0, -2)) < mp.mpf(2) ** (-250)
        assert abs(w[1] - 1 / (1 - a)) < mp.mpf(2) ** (-250)
        assert abs(w[2] - 1 / (a * (a - 1))) < mp.mpf(2) ** (-250)
        assert abs(w[1] - mp.mpc(0.8, 0.4)) < mp.mpf("1e-15")
        assert abs(w[2] - mp.mpc(-0.8, 1.6)) < mp.mpf("1e-15")

        assert divided_difference_weights([0, 1]) == [-1, 1]
        w = divided_difference_weights([0, 1, 2])
        assert w == [mp.mpf("0.5"), -1, mp.mpf("0.5")]


def test_weights_power_sums():
    # sum c a^m = 0 for m < N, = 1 at m = N
    rng = random.Random(SEED)
    with mp.workprec(BITS):
        for trial in range(20):
            count = rng.randint(2, 9)
            nodes = []
            while len(nodes) < count:
                cand = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if all(abs(cand - p) > 0.05 for p in nodes):
                    nodes.append(cand)
            w = divided_difference_weights(nodes)
            N = count - 1
            scale = max(abs(c) for c in w) * max(1, max(abs(a) for a in nodes)) ** N
            for m in range(N):
                s = sum(c * a**m for c, a in zip(w, nodes))
                assert abs(s) <= mp.mpf(2) ** (-(BITS // 4)) * scale
            s = sum(c * a**N for c, a in zip(w, nodes))
            assert abs(s - 1) <= mp.mpf(2) ** (-(BITS // 4)) * max(1, scale)


def test_weights_reject_duplicates():
    with pytest.raises(ValueError):
        divided_difference_weights([0, 1, 1])


def test_build_witness_n1_coefficients():
    # proportional to (-2i, 0.8+0.4i, -0.8+1.6i), max modulus scaled to 1
    w = build_witness(1, make_alpha(0.0, 0.5))
    with mp.workprec(BITS):
        c0 = mp.mpc(w.p.coefficient(0, 0))
        c1 = mp.mpc(w.p.coefficient(1, 0))
        c2 = mp.mpc(w.p.coefficient(0, 1))
        tol = mp.mpf(2) ** (-200)
        a = mp.mpc(0, 0.5)
        assert abs(c1 / c0 - (1 / (1 - a)) / mp.mpc(0, -2)) < tol
        assert abs(c2 / c0 - (1 / (a * (a - 1))) / mp.mpc(0, -2)) < tol
        assert abs(max(abs(c0), abs(c1), abs(c2)) - 1) < tol
        assert w.order == 2
        assert abs(w.r - 2) == 0


def test_witness_vanishes_to_order_n():
    with mp.workprec(BITS):
        for n in (1, 2, 3):
            for alpha in ALPHAS:
                w = build_witness(n, alpha)
                assert w.ok
                f = compose_to_expsum(w.p, alpha, BITS)
                N = space_dimension(n)
                amax = max(1, max(abs(mp.mpc(a)) for _, a in f.terms))
                for m in range(N):
                    d = derivative_at_zero(f, m, BITS)
                    assert abs(d) <= mp.mpf(2) ** (-(BITS // 4)) * amax**N, (
                        f"n={n} alpha={alpha} m={m}: |f^({m})(0)| = {mp.nstr(abs(d), 5)}"
                    )
                dN = derivative_at_zero(f, N, BITS)
                assert abs(dN) > mp.mpf(2) ** (-(BITS // 8))


def test_witness_residual_at_512_bits():
    w = build_witness(2, make_alpha(0.3, 0.4), bits=512)
    with mp.workprec(512):
        assert w.max_residual <= mp.mpf("1e-30")


def test_witness_precision_floor():
    assert required_witness_bits(1) == 64 + 4
    with pytest.raises(ValueError):
        build_witness(10, make_alpha(0.0, 0.5), bits=256)
    with pytest.raises(ValueError):
        build_witness(2, make_alpha(0.3, 0.0))


def test_proof_lower_bound_values():
    with mp.workprec(BITS):
        assert abs(proof_lower_bound(1) - (2 * mp.log(2) - 2)) < mp.mpf("1e-40")
        assert abs(proof_lower_bound(2) - (5 * mp.log(mp.mpf("2.5")) - 5)) < mp.mpf("1e-40")
        got = proof_lower_bound(4)
        assert abs(got - (14 * mp.log(mp.mpf("3.5")) - 14)) < mp.mpf("1e-40")
        assert got >= 8 * mp.log(4) - 16  # (n^2/2) ln n - n^2 at n = 4


def test_growth_law():
    # ln sup_{|t|=r}|f| - ln sup_{|t|=1}|f| >= N ln r - 1e-6
    with mp.workprec(BITS):
        for n in (1, 2, 3, 4):
            alpha = ALPHAS[n % len(ALPHAS)]
            w = build_witness(n, alpha)
            f = compose_to_expsum(w.p, alpha, BITS)
            base = norm_on_circle(f, 1, 512, BITS, depth=0)
            N = w.order
            for r in (mp.mpf("1.5"), mp.mpf(2), mp.mpf(N) / n):
                hi = norm_on_circle(f, r, 512, BITS, depth=0)
                gap = mp.log(hi.grid_max) - mp.log(base.grid_max) - N * mp.log(r)
                assert gap >= -mp.mpf("1e-6"), f"n={n} r={mp.nstr(r, 6)}: gap={mp.nstr(gap, 6)}"


def test_witness_lower_bound_and_floor():
    with mp.workprec(BITS):
        for n in (1, 2, 3):
            for alpha in ALPHAS[:2]:
                w, normk, circ, lower = witness_certificate(n, alpha)
                floor = proof_lower_bound(n)
                assert lower >= floor - mp.mpf("1e-6"), (
                    f"n={n} alpha={alpha}: {mp.nstr(lower, 8)} < floor {mp.nstr(floor, 8)}"
                )
                lo, up = theorem2_bounds(n, alpha)
                assert lower <= up + mp.mpf("1e-6")
                assert lower >= lo - mp.mpf("0.7")


def test_witness_lower_bound_validation():
    alpha = make_alpha(0.0, 0.5)
    w = build_witness(1, alpha)
    normk = norm_on_K(w.p, alpha, 64)
    f = compose_to_expsum(w.p, alpha)
    circ = norm_on_circle(f, 2, 64, depth=0)
    with pytest.raises(ValueError):
        witness_lower_bound(w, 0.5, normk, circ)
    grid_only = norm_on_K(w.p, alpha, 64, depth=0)
    with pytest.raises(ValueError):
        witness_lower_bound(w, 2, grid_only, circ)


def test_witness_lower_bound_scale_invariance():
    # the bound is a ratio; rescaling the polynomial leaves it unchanged
    from bwexp import Poly2

    alpha = make_alpha(0.3, 0.4)
    w = build_witness(2, alpha)
    with mp.workprec(BITS):
        _, normk, circ, lower = witness_certificate(2, alpha)
        s = mp.mpc(3, -4)
        scaled = Poly2(2, {jk: s * mp.mpc(c) for jk, c in w.p.coeffs.items()})
        normk2 = norm_on_K(scaled, alpha, 512)
        f2 = compose_to_expsum(scaled, alpha)
        circ2 = norm_on_circle(f2, w.r, 512, depth=0)
        lower2 = witness_lower_bound(w, w.r, normk2, circ2)
        assert abs(lower - lower2) <= mp.mpf(2) ** (-(BITS // 2)) * (1 + abs(lower))


@pytest.fixture
def table_builds(monkeypatch):
    """The moment tables built during a test, none kept from before it."""
    builds = []
    init = norms._Moments.__init__

    def counting_init(table, *args):
        builds.append(table)
        init(table, *args)

    monkeypatch.setattr(norms._Moments, "__init__", counting_init)
    monkeypatch.setattr(norms, "_last_moments", None)
    return builds


def test_certificate_circles_share_one_moment_table(table_builds, monkeypatch):
    # the K circle and the r = N/n circle read one moment table, built once
    # per certificate, and report exactly what estimates with their own
    # tables report
    for alpha in ALPHAS[:2]:
        for n in range(1, 6):
            table_builds.clear()
            w, normk, circle, lower = witness_certificate(n, alpha)
            assert len(table_builds) == 1, f"n={n}"
            f = compose_to_expsum(w.p, alpha, BITS)
            monkeypatch.setattr(norms, "_last_moments", None)
            assert norm_on_K(w.p, alpha, 512, BITS) == normk, f"n={n}"
            monkeypatch.setattr(norms, "_last_moments", None)
            assert norm_on_circle(f, w.r, 512, BITS, depth=0) == circle, f"n={n}"
            if alpha is ALPHAS[0]:
                assert float(lower) == CERT_LOWER[n - 1], f"n={n}"


def test_suite_witness_reads_one_table_per_degree(table_builds):
    # each degree's K circle and its three radii share one table
    result = suite_witness("quick", BITS)
    assert (result.cases, result.failures) == (12, 0)
    assert len(table_builds) == 3
