"""Closed-form bounds and the inequality chain behind the growth bracket.

The bracket for e_n(alpha), the log of the extremal constant, is

    (n^2 ln n)/2 - n^2  <=  e_n(alpha)  <=  (n^2 ln n)/2 + 8 n^2 - n ln|alpha2|,

valid for alpha = alpha1 + i*alpha2 with |alpha| < 1 and alpha2 != 0.
The upper half is proved through a chain of elementary estimates, each of
which is implemented and property-tested here:

  * products prod_{j=x}^{y} |j - k*alpha| bounded below by
    ((y-x)/(2e))^{y-x}, times |k*alpha2| when the nearest integer to
    k*alpha1 falls inside [x, y] (with 0^0 := 1);
  * Stirling's inequality e^{7/8} <= m! / ((m/e)^m sqrt(m)) <= e and the
    half-integer product identity prod_{j=1}^m (j - 1/2)
    = (2m)!/(2^{2m} m!) >= (m/e)^m;
  * the annihilator polynomials R_lm(lambda)
    = prod_{(j,k) != (l,m)} (lambda - j - k*alpha), whose application to
    f = P(e^t, e^{alpha t}) as a differential operator at 0 isolates
    c_lm * beta_lm with beta_lm = prod (l - j + (m - k) alpha);
  * the re-indexed double products A1, A2 with A1*A2 <= |beta_lm|;
  * the Vieta majorant sum_t |a_t| N^t <= (N + n)^N for the expanded
    coefficients of R_lm;
  * the coefficient bound ln|c_lm| <= (n^2/2) ln n + 5.95 n^2
    - n ln|alpha2| and the beta floor ln|beta_lm| >= (n^2 ln n)/2
    - 9 n^2 / 4 + n ln|alpha2|;
  * the closed-form scans N ln(N+n) <= n^2 ln n + 3.7 n^2,
    ln(N+1) <= N <= 2 n^2, N ln(N/n) - N >= (n^2/2) ln n - n^2, and
    sum_{k<=n} k ln k >= (n^2 ln n)/2 - n^2/4.

Constants (3.7, 5.95, 9/4, 8) are implemented exactly as stated, with no
tightening.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .core import (
    DEFAULT_BITS,
    AlphaParam,
    ExpSum,
    MultiIndex,
    monomial_nodes,
    node_products,
    require_alpha,
    require_degree,
    space_dimension,
)


def _require_target(l: int, m: int, n: int) -> None:
    require_degree(n)
    if l < 0 or m < 0 or l + m > n:
        raise ValueError(f"target ({l},{m}) outside total degree {n}")


def _require_product_range(x: int, y: int, k: int) -> None:
    if x > y:
        raise ValueError(f"empty range: x={x} > y={y}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _require_order(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def theorem2_bounds(n: int, alpha: AlphaParam, bits: int = DEFAULT_BITS):
    """Bracket endpoints for e_n(alpha).

    lower = (n^2 ln n)/2 - n^2, upper = (n^2 ln n)/2 + 8 n^2 - n ln|alpha2|.
    """
    require_degree(n)
    require_alpha(alpha, theorem=True)
    with mp.workprec(bits):
        n2 = mp.mpf(n) ** 2
        half = n2 * mp.log(n) / 2
        lower = half - n2
        upper = half + 8 * n2 - n * mp.log(abs(mp.mpf(alpha.im)))
        return lower, upper


def nearest_integer(x) -> int:
    """Closest integer to x; exact halves round toward +infinity."""
    return int(mp.floor(mp.mpf(x) + mp.mpf("0.5")))


def lemma_product_exact(x: int, y: int, k: int, alpha: AlphaParam, bits: int = DEFAULT_BITS):
    """prod_{j=x}^{y} |j - k*alpha| at working precision."""
    _require_product_range(x, y, k)
    with mp.workprec(bits):
        ka = k * mp.mpc(alpha.re, alpha.im)
        prod = mp.mpf(1)
        for j in range(x, y + 1):
            prod *= abs(j - ka)
        return prod


def lemma_product_lower(x: int, y: int, k: int, alpha: AlphaParam, bits: int = DEFAULT_BITS):
    """Certified lower bound for prod_{j=x}^{y} |j - k*alpha|.

    With j0 the nearest integer to k*alpha1 (0^0 := 1 throughout):

      * x <= j0 <= y: ((y-x)/(2e))^{y-x} * |k*alpha2|, since the j0
        factor is at least the distance |k*alpha2| to the real axis and
        the rest are at least half-integer gaps on each side of j0.
      * j0 outside [x,y], y > x: ((y-x)/(2e))^{y-x}, dominated by the
        half-integer gap product (1/2)(y-x)!.
      * j0 outside [x,y], y = x: 1/2, the single gap |x - k*alpha1|
        >= |x - j0| - 1/2 >= 1/2.  (The two-case form without this
        split would claim 1 here, and the product can genuinely dip
        below 1: x=y=1, k=5, alpha near 0.031-0.101i gives ~0.983.)
    """
    _require_product_range(x, y, k)
    require_alpha(alpha)
    with mp.workprec(bits):
        d = y - x
        base = mp.mpf(1) if d == 0 else (mp.mpf(d) / (2 * mp.e)) ** d
        j0 = nearest_integer(k * mp.mpf(alpha.re))
        if x <= j0 <= y:
            return base * abs(k * mp.mpf(alpha.im))
        if d == 0:
            return mp.mpf(1) / 2
        return base


def stirling_ratio(m: int, bits: int = DEFAULT_BITS):
    """m! / ((m/e)^m sqrt(m)); lies in [e^{7/8}, e] for every m >= 1."""
    _require_order(m)
    with mp.workprec(bits):
        mm = mp.mpf(m)
        return mp.factorial(m) / ((mm / mp.e) ** m * mp.sqrt(mm))


def half_integer_product(m: int, bits: int = DEFAULT_BITS):
    """prod_{j=1}^{m} (j - 1/2), equal to (2m)!/(2^{2m} m!)."""
    _require_order(m)
    with mp.workprec(bits):
        prod = mp.mpf(1)
        for j in range(1, m + 1):
            prod *= j - mp.mpf("0.5")
        return prod


@dataclass(frozen=True)
class AnnihilatorData:
    """Expanded annihilator R_lm and the isolated product beta_lm.

    coeffs holds a_0..a_N of R_lm(lambda) = sum a_t lambda^t; beta is
    R_lm evaluated at the target node, the product of the N linear
    factors: core.node_products's exact Gaussian-integer product at the
    target, rounded once to bits in each part.
    """

    target: MultiIndex
    degree: int
    coeffs: tuple
    beta: object  # mp.mpc
    bits: int

    @property
    def poly_degree(self) -> int:
        return len(self.coeffs) - 1


def _expansion_bits(bits: int) -> int:
    """Precision of R_lm's expanded coefficients and of their Horner sum.

    Evaluating the expansion at a node cancels about N log2(node
    spread) bits: sum_t |a_t||lambda|^t exceeds |beta_lm| by at most
    2^57 for n <= 5 and 2^132 for n <= 8 at the suites' four standard
    alphas.  2 bits + 64 spends bits + 64 >= 128 bits above bits on it.
    """
    return 2 * bits + 64


def annihilator(l: int, m: int, n: int, alpha: AlphaParam, bits: int = DEFAULT_BITS) -> AnnihilatorData:
    """Build R_lm(lambda) = prod_{(j,k) != (l,m)} (lambda - j - k*alpha).

    The roots are the nodes at bits, the ones compose_to_expsum gives f.
    The expansion runs by sequential linear-factor convolution at
    _expansion_bits(bits), since apply_annihilator's sum cancels the
    coefficients' rounding by far more than bits can spare.  beta_lm,
    the product evaluated at the target node l + m*alpha, is
    G[N][target] 2^{-sN} from core.node_products over the nodes (which
    raises if two of them coincide), rounded once to bits.
    """
    _require_target(l, m, n)
    require_alpha(alpha)
    target = MultiIndex(l, m)
    nodes = monomial_nodes(n, alpha, bits)
    roots = [e.value for e in nodes if e.index != target]
    s, columns = node_products([e.value for e in nodes], bits)
    for last in columns:  # beta_lm reads the last column, G[N]
        pass
    p, q = last[[e.index for e in nodes].index(target)]
    shift = -s * (len(nodes) - 1)
    with mp.workprec(bits):
        beta = mp.mpc(mp.ldexp(mp.mpf(p), shift), mp.ldexp(mp.mpf(q), shift))
    with mp.workprec(_expansion_bits(bits)):
        coeffs = [mp.mpc(1)]
        for r in roots:
            # multiply running polynomial by (lambda - r)
            nxt = [mp.mpc(0)] * (len(coeffs) + 1)
            for t, a in enumerate(coeffs):
                nxt[t + 1] += a
                nxt[t] -= a * r
            coeffs = nxt
    return AnnihilatorData(target, n, tuple(coeffs), beta, bits)


def apply_annihilator(data: AnnihilatorData, f: ExpSum, bits: int = DEFAULT_BITS):
    """D_R f at 0, i.e. sum over terms c * R(a) with R in expanded form.

    For f composed from a degree-n polynomial this equals c_lm * beta_lm:
    R vanishes at every node except the target.  Horner evaluation of the
    expanded coefficients is badly conditioned, so the Horner loop runs
    at the expansion's precision and the result is rounded back.
    """
    with mp.workprec(_expansion_bits(bits)):
        total = mp.mpc(0)
        for c, a in f.terms:
            aa = mp.mpc(a)
            acc = mp.mpc(0)
            for coef in reversed(data.coeffs):
                acc = acc * aa + mp.mpc(coef)
            total += mp.mpc(c) * acc
    with mp.workprec(bits):
        return +total


def beta_log_lower(l: int, m: int, n: int, alpha: AlphaParam, bits: int = DEFAULT_BITS):
    """Floor for ln|beta_lm|: (n^2 ln n)/2 - 9 n^2/4 + n ln|alpha2|."""
    _require_target(l, m, n)
    require_alpha(alpha, theorem=True)
    with mp.workprec(bits):
        n2 = mp.mpf(n) ** 2
        return n2 * mp.log(n) / 2 - 9 * n2 / 4 + n * mp.log(abs(mp.mpf(alpha.im)))


def a1_a2_products(l: int, m: int, n: int, alpha: AlphaParam, bits: int = DEFAULT_BITS):
    """The two re-indexed double products under |beta_lm|.

    A1 = prod_{k=1}^{m} prod_{j=-l}^{n-l-m+k} |j - k*alpha|,
    A2 = prod_{k=1}^{n-m} prod_{j=l+m+k-n}^{l} |j - k*alpha|,
    empty products equal 1.  A1*A2 <= |beta_lm| always (the factorization
    drops nothing below modulus one only after re-indexing; the
    inequality is property-tested, not assumed).
    """
    _require_target(l, m, n)
    with mp.workprec(bits):
        a1 = mp.mpf(1)
        for k in range(1, m + 1):
            a1 *= lemma_product_exact(-l, n - l - m + k, k, alpha, bits)
        a2 = mp.mpf(1)
        for k in range(1, n - m + 1):
            a2 *= lemma_product_exact(l + m + k - n, l, k, alpha, bits)
        return a1, a2


def vieta_majorant(n: int, bits: int = DEFAULT_BITS):
    """(N + n)^N, dominating sum_t |a_t| N^t for every annihilator."""
    require_degree(n)
    with mp.workprec(bits):
        N = space_dimension(n)
        return mp.mpf(N + n) ** N


def coeff_log_upper(n: int, alpha: AlphaParam, bits: int = DEFAULT_BITS):
    """Coefficient ceiling: (n^2/2) ln n + 5.95 n^2 - n ln|alpha2|,
    valid for any P with curve sup norm at most 1.
    """
    require_degree(n)
    require_alpha(alpha, theorem=True)
    with mp.workprec(bits):
        n2 = mp.mpf(n) ** 2
        return n2 * mp.log(n) / 2 + mp.mpf("5.95") * n2 - n * mp.log(abs(mp.mpf(alpha.im)))


# (name, holds(n, N, n^2, ln n, sum_{k<=n} k ln k)) per inequality, in the verify suite's scan order
INEQUALITIES = (
    ("N*ln(N+n) <= n^2*ln(n) + 3.7*n^2",
     lambda n, N, n2, lnn, klogk: N * mp.log(N + n) <= n2 * lnn + mp.mpf("3.7") * n2),
    ("ln(N+1) <= N",
     lambda n, N, n2, lnn, klogk: mp.log(N + 1) <= N),
    ("N <= 2*n^2",
     lambda n, N, n2, lnn, klogk: N <= 2 * n2),
    ("N*ln(N/n) - N >= (n^2/2)*ln(n) - n^2",
     lambda n, N, n2, lnn, klogk: N * mp.log(N / n) - N >= n2 * lnn / 2 - n2),
    ("sum k*ln(k) >= (n^2*ln(n))/2 - n^2/4",
     lambda n, N, n2, lnn, klogk: klogk >= n2 * lnn / 2 - n2 / 4),
)


def expanded_vieta_sum(data: AnnihilatorData, bits: int = DEFAULT_BITS):
    """sum_t |a_t| N^t for an expanded annihilator (test support)."""
    with mp.workprec(bits):
        N = mp.mpf(space_dimension(data.degree))
        total = mp.mpf(0)
        for t, a in enumerate(data.coeffs):
            total += abs(mp.mpc(a)) * N**t
        return total
