"""Bound chain: bracket endpoints, lemma products, Stirling, annihilators."""

import random

import pytest
from mpmath import mp

from bwexp import (
    ExpSum,
    MultiIndex,
    Poly2,
    canonical_indices,
    compose_to_expsum,
    make_alpha,
    monomial_nodes,
    space_dimension,
)
from bwexp.analytic_bounds import (
    a1_a2_products,
    annihilator,
    apply_annihilator,
    beta_log_lower,
    coeff_log_upper,
    expanded_vieta_sum,
    half_integer_product,
    lemma_product_exact,
    lemma_product_lower,
    nearest_integer,
    stirling_ratio,
    theorem2_bounds,
    vieta_majorant,
)
from bwexp.core import dyadic_form, node_products
from bwexp.suites import suite_inequalities

SEED = 20240812
BITS = 256
ALPHAS = [
    make_alpha(0.0, 0.5),
    make_alpha(0.3, 0.4),
    make_alpha(-0.2, 0.6),
    make_alpha(0.1, 0.1),
]


def close(a, b, eps="1e-12"):
    return abs(mp.mpf(a) - mp.mpf(b)) <= mp.mpf(eps) * (1 + abs(mp.mpf(b)))


def test_theorem2_endpoints():
    with mp.workprec(BITS):
        lo, up = theorem2_bounds(1, make_alpha(0.0, 0.5))
        assert close(lo, -1)
        assert close(up, 8 - mp.log(mp.mpf("0.5")))

        lo, up = theorem2_bounds(2, make_alpha(0.0, 0.5))
        assert close(lo, 2 * mp.log(2) - 4)
        assert close(up, 2 * mp.log(2) + 32 + 2 * mp.log(2))

        lo, up = theorem2_bounds(1, make_alpha(0.3, 0.4))
        assert close(lo, -1)
        assert close(up, 8 - mp.log(mp.mpf("0.4")))


def test_theorem2_ordering_and_rejection():
    for n in range(1, 13):
        for alpha in ALPHAS:
            lo, up = theorem2_bounds(n, alpha)
            assert lo < up
    with pytest.raises(ValueError):
        theorem2_bounds(2, make_alpha(0.3, 0.0))
    with pytest.raises(ValueError):
        theorem2_bounds(2, make_alpha(0.8, 0.7))


def test_nearest_integer():
    assert nearest_integer(0.3) == 0
    assert nearest_integer(-1.7) == -2
    # exact halves round toward +infinity
    assert nearest_integer(0.5) == 1
    assert nearest_integer(-0.5) == 0
    assert nearest_integer(1.5) == 2
    assert nearest_integer(-1.5) == -1


def test_lemma_product_exact_values():
    with mp.workprec(BITS):
        got = lemma_product_exact(0, 0, 1, make_alpha(0.0, 0.5))
        assert close(got, mp.mpf("0.5"))

        got = lemma_product_exact(0, 2, 2, make_alpha(0.3, 0.4))
        want = abs(mp.mpc(-0.6, -0.8)) * abs(mp.mpc(0.4, -0.8)) * abs(mp.mpc(1.4, -0.8))
        assert close(got, want)
        assert close(got, mp.mpf("1.44222051018559"), "1e-13")

        got = lemma_product_exact(-1, 1, 1, make_alpha(0.0, 0.5))
        assert close(got, mp.mpf("0.625"))

    with pytest.raises(ValueError):
        lemma_product_exact(3, 2, 1, make_alpha(0.0, 0.5))
    with pytest.raises(ValueError):
        lemma_product_exact(0, 1, 0, make_alpha(0.0, 0.5))


def test_lemma_product_lower_values():
    with mp.workprec(BITS):
        # inside case at a single point: bound |k*alpha2| is tight
        got = lemma_product_lower(0, 0, 1, make_alpha(0.0, 0.5))
        assert close(got, mp.mpf("0.5"))
        assert close(got, lemma_product_exact(0, 0, 1, make_alpha(0.0, 0.5)))

        # <2*0.3> = 1 inside [0,2]: (2/2e)^2 * |2*0.4|
        got = lemma_product_lower(0, 2, 2, make_alpha(0.3, 0.4))
        assert close(got, mp.exp(-2) * mp.mpf("0.8"))

        # <0> = 0 outside [5,7]
        got = lemma_product_lower(5, 7, 1, make_alpha(0.0, 0.5))
        assert close(got, mp.exp(-2))

    with pytest.raises(ValueError):
        lemma_product_lower(0, 2, 1, make_alpha(0.3, 0.0))


def test_lemma_single_point_outside_corner():
    # x=y with the rounded point outside: the exact product can dip
    # below 1 (k*alpha within unit distance of x), so the bound must be
    # the half-gap 1/2, not the degenerate 0^0 = 1
    a = make_alpha(0.0311003, -0.100505)
    with mp.workprec(BITS):
        exact = lemma_product_exact(1, 1, 5, a)
        lower = lemma_product_lower(1, 1, 5, a)
        assert close(lower, mp.mpf("0.5"))
        assert exact < 1
        assert exact >= lower


def test_lemma_soundness_exhaustive_box():
    # every (x, y, k) in the box for a few fixed alphas, corners included
    rng = random.Random(SEED + 99)
    with mp.workprec(64):
        eps = mp.mpf(2) ** (-28)
        for _ in range(3):
            re = rng.uniform(-0.9, 0.9)
            im = rng.choice([-1, 1]) * rng.uniform(0.05, 0.9)
            alpha = make_alpha(re, im)
            for k in (1, 7, 20):
                for x in range(-10, 11):
                    for y in range(x, 11):
                        exact = lemma_product_exact(x, y, k, alpha, 64)
                        lower = lemma_product_lower(x, y, k, alpha, 64)
                        assert exact >= lower - eps * (1 + lower), (
                            f"k={k} x={x} y={y} alpha={alpha}"
                        )


def test_lemma_soundness_random():
    # exact product dominates the stated bound across the whole box
    rng = random.Random(SEED)
    with mp.workprec(BITS):
        eps = mp.mpf(2) ** (-BITS // 2)
        for trial in range(200):
            re = rng.uniform(-0.99, 0.99)
            im = 0.0
            while im == 0.0:
                im = rng.uniform(-0.99, 0.99)
            if re * re + im * im >= 1.0:
                scale = 0.99 / (re * re + im * im) ** 0.5
                re, im = re * scale, im * scale
            alpha = make_alpha(re, im)
            k = rng.randint(1, 20)
            x = rng.randint(-10, 10)
            y = rng.randint(x, 10)
            exact = lemma_product_exact(x, y, k, alpha)
            lower = lemma_product_lower(x, y, k, alpha)
            assert exact >= lower - eps * (1 + lower), (
                f"trial {trial}: k={k} x={x} y={y} alpha={alpha}: {exact} < {lower}"
            )


def test_stirling_ratio_values_and_range():
    with mp.workprec(BITS):
        assert close(stirling_ratio(1), mp.e)
        assert close(stirling_ratio(2), mp.e**2 / (2 * mp.sqrt(2)))
        assert abs(stirling_ratio(1000) - mp.sqrt(2 * mp.pi)) < mp.mpf("0.001")
        lo, hi = mp.exp(mp.mpf(7) / 8), mp.e
        for m in range(1, 1001):
            r = stirling_ratio(m)
            assert lo <= r <= hi, f"m={m}: ratio {r} outside [e^(7/8), e]"


def test_half_integer_product():
    with mp.workprec(BITS):
        assert close(half_integer_product(1), mp.mpf("0.5"))
        assert close(half_integer_product(2), mp.mpf("0.75"))
        assert close(half_integer_product(3), mp.mpf("1.875"))
        for m in range(1, 501):
            got = half_integer_product(m)
            ident = mp.factorial(2 * m) / (mp.mpf(2) ** (2 * m) * mp.factorial(m))
            assert close(got, ident, mp.mpf(2) ** (-BITS // 2))
            assert got >= (mp.mpf(m) / mp.e) ** m, f"m={m}: bound fails"


def test_annihilator_hand_expansion():
    with mp.workprec(BITS):
        data = annihilator(0, 0, 1, make_alpha(0.0, 0.5))
        # (lambda - 1)(lambda - 0.5i) = lambda^2 - (1+0.5i) lambda + 0.5i;
        # at scale s = 1 the roots are 2/2 and i/2, so C_t = a_t 2^{s(2-t)}
        assert data.poly_degree == 2
        assert data.scale == 1
        assert data.coeffs == ((0, 2), (-2, -1), (1, 0))
        assert abs(data.beta - mp.mpc(0, 0.5)) == 0

        data = annihilator(1, 0, 1, make_alpha(0.0, 0.5))
        assert abs(data.beta - mp.mpc(1, -0.5)) == 0


def test_annihilator_degree_and_root_value():
    # R's exact Gaussian-integer expansion, evaluated exactly, is 0 at every
    # other node and G[N][target] 2^{-sN}, rounded once like beta, at the target
    for n in range(1, 7):
        for alpha in ALPHAS:
            nodes = monomial_nodes(n, alpha, BITS)
            for l, m in canonical_indices(n):
                data = annihilator(l, m, n, alpha)
                assert data.poly_degree == space_dimension(n)
                assert data.coeffs[-1] == (1, 0)
                for e in nodes:
                    got = apply_annihilator(data, ExpSum(((1, e.value),)))
                    want = data.beta if e.index == (l, m) else 0
                    assert got == want, f"n={n} ({l},{m}) at {e.index} alpha={alpha}"
    with pytest.raises(ValueError):
        annihilator(2, 1, 2, make_alpha(0.0, 0.5))


def test_apply_annihilator_examples():
    alpha = make_alpha(0.0, 0.5)
    with mp.workprec(BITS):
        tol = mp.mpf(2) ** (-BITS // 2)
        f = compose_to_expsum(Poly2(1, {MultiIndex(1, 0): 1}), alpha)
        got = apply_annihilator(annihilator(1, 0, 1, alpha), f)
        assert abs(got - mp.mpc(1, -0.5)) <= tol

        f = compose_to_expsum(Poly2(1, {MultiIndex(0, 0): 1}), alpha)
        got = apply_annihilator(annihilator(1, 0, 1, alpha), f)
        assert abs(got) <= tol

        p = Poly2(1, {MultiIndex(1, 0): 2, MultiIndex(0, 1): 3})
        f = compose_to_expsum(p, alpha)
        got = apply_annihilator(annihilator(0, 1, 1, alpha), f)
        want = 3 * mp.mpc(0, 0.5) * (mp.mpc(0, 0.5) - 1)
        assert abs(got - want) <= tol * abs(want)


def test_apply_annihilator_isolates_coefficients():
    # random P, every target: D_R f(0) = c_lm * beta_lm
    rng = random.Random(SEED + 1)
    with mp.workprec(BITS):
        tol = mp.mpf(2) ** (-128)
        for n in (1, 2, 3):
            for alpha in ALPHAS:
                coeffs = {
                    jk: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for jk in canonical_indices(n)
                }
                p = Poly2(n, coeffs)
                f = compose_to_expsum(p, alpha)
                for l, m in canonical_indices(n):
                    data = annihilator(l, m, n, alpha)
                    got = apply_annihilator(data, f)
                    want = mp.mpc(coeffs[MultiIndex(l, m)]) * data.beta
                    assert abs(got - want) <= tol * abs(want), (
                        f"n={n} target=({l},{m}) alpha={alpha}"
                    )


@pytest.mark.parametrize("n, bits, alpha, targets", [
    (10, 64, make_alpha(0.1, 0.1), None),
    (8, 64, make_alpha(0.0, 2.0**-20), None),
    (20, 256, make_alpha(0.1, 0.1), (0, 115, 230)),
    # nodes closer than 2^-32 of the largest, which node_products refuses at 64 bits
    (4, 64, make_alpha(0.5, 2.0**-40), None),
    (8, 64, make_alpha(0.5, 2.0**-40), None),
    (8, 64, make_alpha(0.0, 2.0**-60), None),
])
def test_apply_annihilator_isolates_coefficients_exactly(n, bits, alpha, targets):
    # large n and crowded nodes (small alpha_2), where the terms of R's
    # expansion cancel far more than bits: only exact arithmetic holds here.
    # beta is the exact product over the rounded nodes, one factor at a
    # time, rounded once, and it keeps the floor beta_log_lower
    rng = random.Random(SEED + 2)
    idx = canonical_indices(n)
    with mp.workprec(bits):
        coeffs = {jk: mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for jk in idx}
    f = compose_to_expsum(Poly2(n, coeffs), alpha, bits)
    s, A = dyadic_form([e.value for e in monomial_nodes(n, alpha, bits)], bits)
    for at in range(len(idx)) if targets is None else targets:
        (l, m), (x, y), g, h = idx[at], A[at], 1, 0
        for i, (u, v) in enumerate(A):
            if i != at:  # times A_at - A_i
                g, h = g * (x - u) - h * (y - v), g * (y - v) + h * (x - u)
        data = annihilator(l, m, n, alpha, bits)
        got = apply_annihilator(data, f, bits)
        with mp.workprec(bits):
            assert data.beta == mp.mpc(*(mp.ldexp(mp.mpf(z), -s * (len(idx) - 1)) for z in (g, h)))
            want = coeffs[MultiIndex(l, m)] * data.beta
            assert abs(got - want) <= mp.ldexp(abs(want), 4 - bits), (
                f"n={n} target=({l},{m}) alpha={alpha}"
            )
            assert mp.log(abs(data.beta)) >= beta_log_lower(l, m, n, alpha, bits)


@pytest.mark.parametrize("bits", [64, 256])
def test_beta_is_the_node_product_rounded_once(bits):
    # node_products' G[N][target] 2^{-sN}, rounded once, stays the reference
    for n in range(1, 7):
        for alpha in ALPHAS + [make_alpha(0.5, 2.0**-10)]:
            nodes = monomial_nodes(n, alpha, bits)
            s, columns = node_products([e.value for e in nodes], bits)
            last = list(columns)[-1]
            for at, e in enumerate(nodes):
                with mp.workprec(bits):
                    want = mp.mpc(*(mp.ldexp(mp.mpf(x), -s * (len(nodes) - 1)) for x in last[at]))
                got = annihilator(e.index.j, e.index.k, n, alpha, bits).beta
                assert repr(got) == repr(want), f"n={n} {e.index} alpha={alpha} bits={bits}"


def test_annihilator_rejects_a_target_that_rounds_onto_another_node():
    # at 64 bits 2^70 + 1 rounds to 2^70, so nodes (0,1) and (1,1) are equal
    alpha = make_alpha(2.0**70, 0.5)
    with pytest.raises(ValueError, match=r"^rounded target node \(0,1\) equals another node at 64 bits$"):
        annihilator(0, 1, 2, alpha, 64)
    # a target apart from the pair still has its exact, nonzero beta
    assert annihilator(0, 0, 2, alpha, 64).beta != 0
    assert annihilator(0, 1, 2, alpha, 128).beta != 0


def test_beta_log_lower_values_and_chain():
    with mp.workprec(BITS):
        got = beta_log_lower(0, 0, 1, make_alpha(0.0, 0.5))
        assert close(got, mp.mpf("-2.25") + mp.log(mp.mpf("0.5")))
        got = beta_log_lower(1, 1, 2, make_alpha(0.0, 0.5))
        assert close(got, -9)
        # floor holds for every exact beta
        for n in range(1, 7):
            for alpha in ALPHAS:
                for l, m in canonical_indices(n):
                    data = annihilator(l, m, n, alpha)
                    floor = beta_log_lower(l, m, n, alpha)
                    assert mp.log(abs(data.beta)) >= floor, (
                        f"n={n} ({l},{m}) alpha={alpha}"
                    )
    with pytest.raises(ValueError):
        beta_log_lower(0, 0, 1, make_alpha(0.3, 0.0))


def test_a1_a2_products():
    with mp.workprec(BITS):
        alpha = make_alpha(0.0, 0.5)
        # m=0: A1 empty; m=n: A2 empty
        a1, a2 = a1_a2_products(1, 0, 2, alpha)
        assert a1 == 1
        a1, a2 = a1_a2_products(0, 2, 2, alpha)
        assert a2 == 1

        a1, a2 = a1_a2_products(0, 1, 2, alpha)
        want_a1 = abs(mp.mpc(0, -0.5)) * abs(mp.mpc(1, -0.5)) * abs(mp.mpc(2, -0.5))
        assert close(a1, want_a1)
        assert close(a2, mp.mpf("0.5"))
        # ranges tile the factor set here, so the product equals |beta|
        data = annihilator(0, 1, 2, alpha)
        assert close(a1 * a2, abs(data.beta))


def test_a1_a2_below_beta():
    with mp.workprec(BITS):
        eps = mp.mpf(2) ** (-BITS // 2)
        for n in range(1, 7):
            for alpha in ALPHAS:
                for l, m in canonical_indices(n):
                    a1, a2 = a1_a2_products(l, m, n, alpha)
                    beta = abs(annihilator(l, m, n, alpha).beta)
                    assert a1 * a2 <= beta * (1 + eps), (
                        f"n={n} ({l},{m}) alpha={alpha}: {a1 * a2} > {beta}"
                    )


def test_vieta_majorant():
    with mp.workprec(BITS):
        assert vieta_majorant(1) == 9
        assert vieta_majorant(2) == 16807
        data = annihilator(0, 0, 1, make_alpha(0.0, 0.5))
        s = expanded_vieta_sum(data)
        want = mp.mpf("0.5") + abs(mp.mpc(1, 0.5)) * 2 + 4
        assert close(s, want)
        assert s <= 9
        for n in range(1, 5):
            cap = vieta_majorant(n)
            for alpha in ALPHAS:
                for l, m in canonical_indices(n):
                    s = expanded_vieta_sum(annihilator(l, m, n, alpha))
                    assert s <= cap, f"n={n} ({l},{m}) alpha={alpha}"


def test_coeff_log_upper_values():
    with mp.workprec(BITS):
        got = coeff_log_upper(1, make_alpha(0.0, 0.5))
        assert close(got, mp.mpf("5.95") + mp.log(2))
        got = coeff_log_upper(2, make_alpha(0.0, 0.5))
        assert close(got, mp.mpf("23.8") + 4 * mp.log(2))
        got = coeff_log_upper(3, make_alpha(0.0, 0.1))
        want = mp.mpf("4.5") * mp.log(3) + mp.mpf("53.55") + 3 * mp.log(10)
        assert close(got, want)
    with pytest.raises(ValueError):
        coeff_log_upper(2, make_alpha(0.0, 0.0))


def test_closed_form_inequalities_hold():
    with mp.workprec(BITS):
        # n=1 spot checks: N=2
        assert 2 * mp.log(3) <= mp.mpf("3.7")
        assert mp.log(3) <= 2
        assert 2 * mp.log(2) - 2 >= -1
    verdicts = list(suite_inequalities("quick", BITS))
    assert verdicts == [None] * 1000
