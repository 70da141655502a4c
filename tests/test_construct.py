"""Witness construction: weights, vanishing order, certified lower bounds."""

import random

import pytest
from mpmath import mp

from bwexp import (
    MultiIndex,
    compose_to_expsum,
    derivative_at_zero,
    make_alpha,
    monomial_nodes,
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
from bwexp import construct, norms
from bwexp.norms import norm_on_circle, norm_on_K
from bwexp.solver import LPConfig, en_bracket, en_lp_estimate
from bwexp.suites import suite_witness

SEED = 20240813
BITS = 256
ALPHAS = [
    make_alpha(0.0, 0.5),
    make_alpha(0.3, 0.4),
    make_alpha(-0.2, 0.6),
    make_alpha(0.1, 0.1),
]
SMALL_LP = LPConfig(circle_points=64, polygon_sides=16, torus_points=8, phase_samples=8)
# float(lower) of witness_certificate(n, 0.5i) for n = 1..5 at grid 512,
# 256 bits, with the K norm the unit circle's autocorrelation certificate
CERT_LOWER = (
    -0.21223006627747362,
    0.7679675882469962,
    3.2322960292771206,
    7.415846020492122,
    13.510793779188035,
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


def test_weights_rounded_once():
    # each weight, formed from an exact product of the node differences,
    # lies within 2^(1-bits) relative of a 4 bits reference over the same
    # nodes; alphas with negative parts, and one node (weight 1)
    for re, im in ((-0.2, 0.6), (0.1, -0.1)):
        for n in (1, 3, 5):
            bits = max(BITS, required_witness_bits(n))
            nodes = [e.value for e in monomial_nodes(n, make_alpha(re, im), bits)]
            w = divided_difference_weights(nodes, bits)
            with mp.workprec(4 * bits):
                for i, (c, a) in enumerate(zip(w, nodes)):
                    ref = 1 / mp.fprod(a - b for j, b in enumerate(nodes) if j != i)
                    assert abs(c - ref) <= mp.ldexp(abs(ref), 1 - bits), f"alpha={re}+{im}i n={n} i={i}"
    with mp.workprec(BITS):
        assert divided_difference_weights([mp.mpc(-0.3, 0.7)]) == [1]


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
                assert w.max_residual <= mp.mpf(2) ** (-(BITS // 4))
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


def _perturbed_weights(monkeypatch, at_zero_only):
    """Scale the weight at node 0 (or every weight) by 1 + 2^-40."""
    weights = construct.divided_difference_weights

    def perturbed(nodes, bits):
        with mp.workprec(bits):
            scale = 1 + mp.mpf(2) ** -40
            return [c * scale if a == 0 or not at_zero_only else c
                    for c, a in zip(weights(nodes, bits), nodes)]

    monkeypatch.setattr(construct, "divided_difference_weights", perturbed)


def test_witness_rejects_power_sum_residual(monkeypatch):
    # a^0 = 1 only at node 0, so only mu_0 moves: by 9e-13 to 6e-19 of
    # max(1, max|a|)^N at n = 1..3, against 2^-64
    _perturbed_weights(monkeypatch, at_zero_only=True)
    for alpha in ALPHAS[:2]:
        for n in (1, 2, 3):
            with pytest.raises(ValueError, match="power-sum residual"):
                build_witness(n, alpha)


def test_witness_rejects_normalization_row(monkeypatch):
    # scaling every weight leaves the normalized witness and its residuals,
    # but sum c a^N = 1 + 2^-40 before normalization
    _perturbed_weights(monkeypatch, at_zero_only=False)
    for alpha in ALPHAS[:2]:
        for n in (1, 2, 3):
            with pytest.raises(ValueError, match="normalization row"):
                build_witness(n, alpha)


def test_witness_residual_at_512_bits():
    w = build_witness(2, make_alpha(0.3, 0.4), bits=512)
    with mp.workprec(512):
        assert w.max_residual <= mp.mpf("1e-30")


def test_witness_precision_floor():
    # below the floor the witness is built at the floor
    assert required_witness_bits(1) == 64 + 4
    assert required_witness_bits(10) == 298
    w = build_witness(10, make_alpha(0.0, 0.5), bits=256)
    assert w.bits == 298
    assert w == build_witness(10, make_alpha(0.0, 0.5), bits=298)
    with pytest.raises(ValueError):
        build_witness(2, make_alpha(0.3, 0.0))


def test_certificate_at_the_precision_floor():
    # the floor serves the witness's moments; a circle whose direct
    # evaluation keeps fewer than 64 bits above its rounding bound there
    # (the unit circle for every n at 0.5i) is evaluated at the precision
    # norm_on_circle names, so the certificate at the floor stands and
    # agrees with one at twice the floor
    for alpha in ALPHAS + [make_alpha(0.0, 3.0)]:
        for n in range(1, 10):
            bits = required_witness_bits(n)
            lower = witness_certificate(n, alpha, bits=bits)[3]
            wide = witness_certificate(n, alpha, bits=2 * bits)[3]
            with mp.workprec(BITS):
                assert abs(lower - wide) <= mp.mpf("1e-12"), f"n={n} alpha={alpha}: {mp.nstr(lower - wide, 5)}"


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
            base = norm_on_circle(f, 1, 512, BITS, certify=False)
            N = w.order
            for r in (mp.mpf("1.5"), mp.mpf(2), mp.mpf(N) / n):
                hi = norm_on_circle(f, r, 512, BITS, certify=False)
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


def test_witness_lower_bound_beyond_the_unit_disk():
    # on |t| = r, |P| <= sum|c| e^{n r max(1, |alpha|)}, so the bound can
    # never exceed ln sum|c| - ln ||P||_K; subtracting n r alone broke
    # that at alpha = 3i (1.154, 4.656, 10.696 at n = 1..3), above even
    # the LP values there
    alpha = make_alpha(0.0, 3.0)
    for n in (1, 2, 3):
        w, normk, _, lower = witness_certificate(n, alpha)
        with mp.workprec(BITS):
            coeff_sum = mp.fsum(abs(mp.mpc(c)) for c in w.p.coeffs.values())
            cap = mp.log(coeff_sum) - mp.log(normk.certified_upper)
        assert lower <= cap, f"n={n}: {mp.nstr(lower, 8)} > {mp.nstr(cap, 8)}"
        assert lower < en_lp_estimate(n, alpha), f"n={n}"


def test_witness_lower_bound_validation(monkeypatch):
    alpha = make_alpha(0.0, 0.5)
    w = build_witness(1, alpha)
    normk = norm_on_K(w.p, alpha, 64)
    f = compose_to_expsum(w.p, alpha)
    circ = norm_on_circle(f, 2, 64, certify=False)
    for r in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius must be >= 1"):
            witness_lower_bound(w, r, normk, circ)
    grid_only = norm_on_circle(f, 1, 64, certify=False)
    with pytest.raises(ValueError):
        witness_lower_bound(w, 2, grid_only, circ)
    # the certificate rejects its radius before it builds the witness
    monkeypatch.setattr(construct, "build_witness", None)
    for r in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius must be >= 1"):
            witness_certificate(1, alpha, r=r)


def test_certificate_rejects_a_coarse_grid_first(monkeypatch):
    # the grid floor is checked before the witness is built, as the radius is
    monkeypatch.setattr(construct, "build_witness", None)
    with pytest.raises(ValueError, match=f"grid needs at least {norms.GRID_FLOOR} points, got 4"):
        witness_certificate(3, make_alpha(0.0, 0.5), grid=4)


def test_witness_lower_bound_scale_invariance():
    # the bound is a ratio; rescaling the polynomial leaves it unchanged
    from bwexp import Poly2

    alpha = make_alpha(0.3, 0.4)
    w = build_witness(2, alpha)
    with mp.workprec(BITS):
        normk = norm_on_K(w.p, alpha, 512)
        circ = norm_on_circle(w.f, w.r, 512, certify=False)
        lower = witness_lower_bound(w, w.r, normk, circ)
        s = mp.mpc(3, -4)
        scaled = Poly2(2, {jk: s * mp.mpc(c) for jk, c in w.p.coeffs.items()})
        normk2 = norm_on_K(scaled, alpha, 512)
        f2 = compose_to_expsum(scaled, alpha)
        circ2 = norm_on_circle(f2, w.r, 512, certify=False)
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
    norms._cached_moments.cache_clear()
    return builds


def test_certificate_circles_share_one_moment_table(table_builds):
    # the vanishing check, the K circle and the r = N/n circle read one
    # moment table, built once per certificate, and both circles report
    # exactly what an estimate with its own table reports
    for n in (1, 2, 3):
        table_builds.clear()
        w = build_witness(n, ALPHAS[0])
        assert len(table_builds) == 1, f"n={n}"
        norm_on_K(w.p, ALPHAS[0], 64, BITS)
        assert len(table_builds) == 1, f"n={n}"
        # the oracle rebuilds the certificate's witness from its table
        table_builds.clear()
        norms._cached_moments.cache_clear()
        en_bracket(n, ALPHAS[0], SMALL_LP, trials=10)
        assert len(table_builds) == 1, f"n={n}"
    for alpha in ALPHAS[:2]:
        for n in range(1, 6):
            table_builds.clear()
            w, normk, circle, lower = witness_certificate(n, alpha)
            assert len(table_builds) == 1, f"n={n}"
            f = compose_to_expsum(w.p, alpha, BITS)
            norms._cached_moments.cache_clear()
            assert norm_on_K(w.p, alpha, 512, BITS) == normk, f"n={n}"
            norms._cached_moments.cache_clear()
            assert norm_on_circle(f, w.r, 512, BITS, certify=False) == circle, f"n={n}"
            if alpha is ALPHAS[0]:
                assert float(lower) == CERT_LOWER[n - 1], f"n={n}"


def test_moments_formed_on_demand(table_builds):
    # the certificate's one working-precision scan, the grid-only r = N/n
    # circle, reads the integer power sums its float scan needs: 73 moments
    witness_certificate(5, ALPHAS[0])
    (table,) = table_builds
    assert len(table.sums) == 73


def test_suite_witness_reads_one_table_per_degree(table_builds):
    # each degree's residual check and three radii, measured against the
    # K certificate, share one table: four cases per degree
    verdicts = list(suite_witness("quick", BITS))
    assert (len(verdicts), sum(v is not None for v in verdicts)) == (12, 0)
    assert len(table_builds) == 3
