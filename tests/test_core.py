"""Core data model: nodes, composition, evaluation, derivatives."""

import random

import pytest
from mpmath import mp

from bwexp import (
    DEFAULT_BITS,
    AlphaParam,
    ExpSum,
    LPConfig,
    MultiIndex,
    Poly2,
    annihilator,
    beta_log_lower,
    build_witness,
    canonical_indices,
    coeff_log_upper,
    compose_to_expsum,
    derivative_at_zero,
    en_bracket,
    en_lp_estimate,
    en_random_search,
    eval_expsum,
    eval_poly,
    lemma_product_lower,
    make_alpha,
    monomial_nodes,
    proof_lower_bound,
    require_bits,
    space_dimension,
    theorem2_bounds,
    vieta_majorant,
    witness_certificate,
)
from bwexp.analytic_bounds import a1_a2_products
from bwexp.cli import _checked_alpha

SEED = 20240811


def random_poly(rng, n):
    coeffs = {}
    for jk in canonical_indices(n):
        coeffs[jk] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Poly2(n, coeffs)


def test_make_alpha_validity_flags():
    assert make_alpha(0.0, 0.5).theorem_valid
    assert not make_alpha(0.3, 0.0).theorem_valid
    # |alpha|^2 = 0.64 + 0.49 = 1.13 > 1
    assert not make_alpha(0.8, 0.7).theorem_valid
    assert make_alpha(-0.2, 0.6).theorem_valid


def test_precision_floor():
    require_bits(64)
    require_bits(DEFAULT_BITS)
    with pytest.raises(ValueError, match="precision must be >= 64"):
        require_bits(32)


# every entry point that takes alpha, and whether it needs |alpha| < 1
ALPHA_ENTRY_POINTS = {
    "theorem2_bounds": (lambda a: theorem2_bounds(1, a), True),
    "beta_log_lower": (lambda a: beta_log_lower(0, 1, 1, a), True),
    "coeff_log_upper": (lambda a: coeff_log_upper(1, a), True),
    "cli": (lambda a: _checked_alpha(a.re, a.im), True),
    "lemma_product_lower": (lambda a: lemma_product_lower(0, 1, 1, a), False),
    "annihilator": (lambda a: annihilator(0, 1, 1, a), False),
    "build_witness": (lambda a: build_witness(1, a), False),
    "en_lp_estimate": (
        lambda a: en_lp_estimate(1, a, LPConfig(circle_points=64, polygon_sides=16,
                                                torus_points=8, phase_samples=8)),
        False,
    ),
    "en_random_search": (lambda a: en_random_search(1, a, 10, seed=0, grid_points=8), False),
}


@pytest.mark.parametrize("name", sorted(ALPHA_ENTRY_POINTS))
def test_entry_points_share_one_alpha_check(name):
    call, theorem = ALPHA_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match=r"alpha_2 must be nonzero \(alpha = 0\.5\+0i\)"):
        call(make_alpha(0.5, 0.0))
    outside = make_alpha(0.9, 0.9)  # |alpha|^2 = 1.62
    if theorem:
        with pytest.raises(ValueError, match=r"\|alpha\| < 1 \(alpha = 0\.9\+0\.9i\)"):
            call(outside)
    else:
        call(outside)


A05 = make_alpha(0.0, 0.5)
TINY_LP = LPConfig(circle_points=64, polygon_sides=16, torus_points=8, phase_samples=8)

# every entry point that takes a degree, called at n = 0
DEGREE_ENTRY_POINTS = {
    "Poly2": lambda: Poly2(0),
    "canonical_indices": lambda: canonical_indices(0),
    "monomial_nodes": lambda: monomial_nodes(0, A05),
    "theorem2_bounds": lambda: theorem2_bounds(0, A05),
    "vieta_majorant": lambda: vieta_majorant(0),
    "coeff_log_upper": lambda: coeff_log_upper(0, A05),
    "beta_log_lower": lambda: beta_log_lower(0, 0, 0, A05),
    "a1_a2_products": lambda: a1_a2_products(0, 0, 0, A05),
    "annihilator": lambda: annihilator(0, 0, 0, A05),
    "build_witness": lambda: build_witness(0, A05),
    "proof_lower_bound": lambda: proof_lower_bound(0),
    "witness_certificate": lambda: witness_certificate(0, A05),
    "en_lp_estimate": lambda: en_lp_estimate(0, A05, TINY_LP),
    "en_random_search": lambda: en_random_search(0, A05, 10, seed=0, grid_points=8),
    "en_bracket": lambda: en_bracket(0, A05, TINY_LP, trials=10),
}


@pytest.mark.parametrize("name", sorted(DEGREE_ENTRY_POINTS))
def test_entry_points_share_one_degree_check(name):
    with pytest.raises(ValueError, match=r"degree must be >= 1, got 0"):
        DEGREE_ENTRY_POINTS[name]()


def test_space_dimension_formula():
    # N = (n^2 + 3n)/2, polynomial space dimension N + 1
    for n in range(1, 13):
        assert space_dimension(n) == (n * n + 3 * n) // 2
        assert len(canonical_indices(n)) == space_dimension(n) + 1


def test_canonical_order_start():
    # graded, power of z descending within a degree block
    assert canonical_indices(2) == [
        MultiIndex(0, 0),
        MultiIndex(1, 0),
        MultiIndex(0, 1),
        MultiIndex(2, 0),
        MultiIndex(1, 1),
        MultiIndex(0, 2),
    ]


def test_monomial_nodes_n1():
    nodes = monomial_nodes(1, make_alpha(0.0, 0.5))
    assert [tuple(e.index) for e in nodes] == [(0, 0), (1, 0), (0, 1)]
    vals = [e.value for e in nodes]
    assert vals[0] == 0
    assert vals[1] == 1
    assert vals[2] == mp.mpc(0, 0.5)

    nodes = monomial_nodes(1, make_alpha(0.3, 0.4))
    vals = [e.value for e in nodes]
    assert vals[2] == mp.mpc(0.3, 0.4)
    assert len({(str(v.real), str(v.imag)) for v in vals}) == 3


def test_monomial_nodes_count_and_distinctness():
    alphas = [
        make_alpha(0.0, 0.5),
        make_alpha(0.3, 0.4),
        make_alpha(-0.2, 0.6),
        make_alpha(0.1, 0.1),
        make_alpha(0.9, -0.05),
    ]
    for n in range(1, 13):
        for alpha in alphas:
            nodes = monomial_nodes(n, alpha)
            assert len(nodes) == space_dimension(n) + 1
            vals = [e.value for e in nodes]
            dmin = min(
                abs(u - v) for i, u in enumerate(vals) for v in vals[i + 1 :]
            )
            assert dmin > 0, f"n={n} alpha={alpha}: coincident nodes"


def test_compose_examples():
    alpha = make_alpha(0.0, 0.5)
    p = Poly2(1, {MultiIndex(1, 0): 1, MultiIndex(0, 1): 1})
    f = compose_to_expsum(p, alpha)
    assert len(f.terms) == 2
    assert f.terms[0] == (mp.mpc(1), mp.mpc(1))
    assert f.terms[1] == (mp.mpc(1), mp.mpc(0, 0.5))

    # constant polynomial: single term (1, 0)
    f = compose_to_expsum(Poly2(1, {MultiIndex(0, 0): 1}), alpha)
    assert f.terms == ((mp.mpc(1), mp.mpc(0)),)

    # z*w picks up exponent 1 + alpha (exact in binary at >= 55 bits)
    f = compose_to_expsum(Poly2(2, {MultiIndex(1, 1): 1}), make_alpha(0.3, 0.4))
    with mp.workprec(64):
        want = 1 + mp.mpc(0.3, 0.4)
    assert f.terms == ((mp.mpc(1), want),)


def test_compose_merges_coincident_nodes():
    # real alpha = 1 makes z and w share the node 1; coefficients add
    p = Poly2(1, {MultiIndex(1, 0): 1, MultiIndex(0, 1): -1})
    f = compose_to_expsum(p, make_alpha(1.0, 0.0))
    assert len(f.terms) == 1
    c, a = f.terms[0]
    assert c == 0 and a == 1
    for m in range(5):
        assert derivative_at_zero(f, m) == 0
    # binary64 alpha = 1/3: w^3 owns the node 3*alpha, which agrees with
    # z's node 1 to 16 digits but is not equal, so the terms stay apart
    p = Poly2(3, {MultiIndex(1, 0): 1, MultiIndex(0, 3): -1})
    f = compose_to_expsum(p, make_alpha(1 / 3, 0.0))
    assert len(f.terms) == 2
    assert [c for c, _ in f.terms] == [1, -1]
    assert 0 < abs(f.terms[0][1] - f.terms[1][1]) < mp.mpf(10) ** -16


def test_eval_poly_examples():
    p = Poly2(1, {MultiIndex(1, 0): 1, MultiIndex(0, 1): 1})
    assert eval_poly(p, 1, 1j) == mp.mpc(1, 1)
    p = Poly2(3, {MultiIndex(2, 1): 1})
    assert eval_poly(p, 2, 3) == 12
    rng = random.Random(SEED)
    p = random_poly(rng, 3)
    got = eval_poly(p, 0, 0)
    want = mp.mpc(p.coefficient(0, 0))
    assert abs(got - want) == 0


def test_eval_expsum_examples():
    f = ExpSum(((1, 0),))
    for t in (0, 1, 0.5 + 0.25j):
        assert eval_expsum(f, t) == 1
    f = ExpSum(((1, 1),))
    with mp.workprec(256):
        assert abs(eval_expsum(f, 1) - mp.e) < mp.mpf(2) ** (-250)
    alpha = make_alpha(0.0, 0.5)
    p = Poly2(1, {MultiIndex(1, 0): 1, MultiIndex(0, 1): 1})
    assert eval_expsum(compose_to_expsum(p, alpha), 0) == eval_poly(p, 1, 1)


def test_derivative_at_zero_examples():
    assert derivative_at_zero(ExpSum(((1, 1),)), 3) == 1
    got = derivative_at_zero(ExpSum(((1, mp.mpc(0, 0.5)),)), 2)
    assert abs(got - mp.mpc(-0.25)) < mp.mpf(2) ** (-250)
    assert derivative_at_zero(ExpSum(((1, 1),)), 0) == 1
    with pytest.raises(ValueError):
        derivative_at_zero(ExpSum(((1, 1),)), -1)


def test_composition_consistency_random():
    # f(t) = P(e^t, e^{alpha t}) along the curve, 200 random draws
    rng = random.Random(SEED)
    bits = DEFAULT_BITS
    tol = mp.mpf(2) ** (-(bits // 2))
    for trial in range(200):
        n = rng.randint(1, 4)
        p = random_poly(rng, n)
        alpha = make_alpha(rng.uniform(-0.9, 0.9), rng.uniform(0.05, 0.9))
        r = rng.uniform(0, 2)
        theta = rng.uniform(0, 6.283185307179586)
        with mp.workprec(bits):
            t = mp.mpc(r) * mp.exp(mp.mpc(0, theta))
            lhs = eval_expsum(compose_to_expsum(p, alpha, bits), t, bits)
            z = mp.exp(t)
            w = mp.exp(alpha.value(bits) * t)
            rhs = eval_poly(p, z, w, bits)
            err = abs(lhs - rhs)
            assert err <= tol * (1 + abs(rhs)), f"trial {trial}: err={err}"


def test_precision_monotonicity():
    # recomputing at double precision moves results by < 2^(-bits/2)
    rng = random.Random(SEED + 1)
    for trial in range(20):
        n = rng.randint(1, 4)
        p = random_poly(rng, n)
        alpha = make_alpha(rng.uniform(-0.9, 0.9), rng.uniform(0.05, 0.9))
        t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for bits in (64, 128, 256):
            f_lo = eval_expsum(compose_to_expsum(p, alpha, bits), t, bits)
            f_hi = eval_expsum(compose_to_expsum(p, alpha, 2 * bits), t, 2 * bits)
            with mp.workprec(4 * bits):
                rel = abs(mp.mpc(f_lo) - mp.mpc(f_hi)) / (1 + abs(mp.mpc(f_hi)))
                assert rel <= mp.mpf(2) ** (-(bits // 2))


def test_poly2_validation():
    with pytest.raises(ValueError):
        Poly2(0, {})
    with pytest.raises(ValueError):
        Poly2(1, {MultiIndex(1, 1): 1.0})
    with pytest.raises(ValueError):
        Poly2(2, {MultiIndex(-1, 0): 1.0})


def test_expsum_rejects_duplicate_exponents():
    with pytest.raises(ValueError):
        ExpSum(((1, 1), (2, 1)))
