"""Data model for polynomials restricted to exponential curves.

A bivariate polynomial P(z, w) = sum_{j+k<=n} c_jk z^j w^k restricted to
the curve {(e^t, e^{alpha*t}) : |t| <= 1} becomes the exponential sum

    f(t) = P(e^t, e^{alpha*t}) = sum c_jk e^{(j + alpha*k) t},

so each monomial z^j w^k owns the exponent node j + alpha*k.  For
alpha = alpha1 + i*alpha2 with alpha2 != 0 the nodes are pairwise
distinct: equal nodes force alpha2*k1 = alpha2*k2, hence k1 = k2 and
then j1 = j2.  Distinctness is what every downstream construction
(annihilators, divided differences, the witness polynomial) relies on:
it makes the products prod_{j != i}(a_i - a_j) nonzero.  node_products
forms them once, exactly, as Gaussian integers at one dyadic scale
(dyadic_form), and checks that the nodes are distinct to working
precision, because its two readers divide by them: the witness weights
and the LP's Newton weights each round its table once.  The annihilator
reads dyadic_form alone: it expands and applies R_lm, and evaluates
beta_lm, exactly, so it needs only the rounded nodes to differ.

The space of degree <= n polynomials has dimension N + 1 with
N = (n^2 + 3n)/2.  Extremal constants in this family grow like
(n^2 ln n)/2, so values overflow double precision already near n = 10;
all scalar work runs under an explicit binary precision via mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from mpmath import mp

DEFAULT_BITS = 256
MIN_BITS = 64


def require_bits(bits: int) -> None:
    """Raise if bits is below the MIN_BITS precision floor."""
    if bits < MIN_BITS:
        raise ValueError(f"precision must be >= {MIN_BITS} bits, got {bits}")


def require_degree(n: int) -> None:
    """Raise unless n >= 1, the degrees the bracket is stated for."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")


@dataclass(frozen=True)
class AlphaParam:
    """Curve parameter alpha = re + i*im for {(e^t, e^{alpha t})}."""

    re: float
    im: float

    @property
    def theorem_valid(self) -> bool:
        """True iff |alpha| < 1 and Im(alpha) != 0, the bracket hypotheses."""
        return self.im != 0.0 and self.re * self.re + self.im * self.im < 1.0

    def value(self, bits: int = DEFAULT_BITS):
        """alpha as an mpmath complex at the given precision."""
        with mp.workprec(bits):
            return mp.mpc(self.re, self.im)

    def __str__(self) -> str:
        return f"{self.re:g}{self.im:+g}i"


def make_alpha(re: float, im: float) -> AlphaParam:
    """Build an AlphaParam; validity is a flag, never a rejection."""
    return AlphaParam(float(re), float(im))


def require_alpha(alpha: AlphaParam, theorem: bool = False) -> AlphaParam:
    """Return alpha, or raise naming the first hypothesis it violates.

    Im(alpha) != 0 makes the exponent nodes distinct, which every
    construction needs; theorem=True also asks for |alpha| < 1, which
    the bracket's closed-form endpoints need.
    """
    if alpha.im == 0.0:
        raise ValueError(f"alpha_2 must be nonzero (alpha = {alpha})")
    if theorem and not alpha.theorem_valid:
        raise ValueError(f"alpha must satisfy |alpha| < 1 (alpha = {alpha})")
    return alpha


class MultiIndex(NamedTuple):
    """Monomial exponents: z^j w^k."""

    j: int
    k: int


class ExponentNode(NamedTuple):
    """A monomial index together with its exponent node j + alpha*k."""

    index: MultiIndex
    value: object  # mp.mpc at the precision of the producing call


@dataclass(frozen=True)
class Poly2:
    """Bivariate polynomial of total degree <= degree.

    coeffs maps MultiIndex(j, k) to a complex coefficient (python complex
    or mpmath mpc).  Missing indices are zero.
    """

    degree: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_degree(self.degree)
        for jk in self.coeffs:
            j, k = jk
            if j < 0 or k < 0 or j + k > self.degree:
                raise ValueError(f"index {jk!r} outside total degree {self.degree}")

    def coefficient(self, j: int, k: int):
        return self.coeffs.get(MultiIndex(j, k), 0)


@dataclass(frozen=True)
class ExpSum:
    """Finite exponential sum f(t) = sum c * e^{a t}, distinct exponents."""

    terms: tuple  # of (coefficient: mpc, exponent: mpc)

    def __post_init__(self) -> None:
        seen = set()
        for _, a in self.terms:
            key = mp.mpmathify(a)  # exact: mpf and mpc hash and compare by value
            if key in seen:
                raise ValueError("exponents within an ExpSum must be distinct")
            seen.add(key)


def space_dimension(n: int) -> int:
    """N = (n^2 + 3n)/2; the polynomial space has dimension N + 1."""
    return (n * n + 3 * n) // 2


def canonical_indices(n: int) -> list[MultiIndex]:
    """All multi-indices j + k <= n in canonical order.

    Graded by total degree; within a degree block the power of z
    descends (equivalently the power of w ascends), so the order starts
    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...
    """
    require_degree(n)
    out = []
    for d in range(n + 1):
        for k in range(d + 1):
            out.append(MultiIndex(d - k, k))
    return out


def monomial_nodes(n: int, alpha: AlphaParam, bits: int = DEFAULT_BITS) -> list[ExponentNode]:
    """Exponent nodes j + alpha*k for all j + k <= n, canonical order.

    Returns exactly N + 1 nodes.  For alpha with Im(alpha) != 0 they are
    pairwise distinct.
    """
    with mp.workprec(bits):
        a = mp.mpc(alpha.re, alpha.im)
        return [ExponentNode(jk, jk.j + a * jk.k) for jk in canonical_indices(n)]


def dyadic_form(values, bits: int = DEFAULT_BITS):
    """The values rounded to bits, as a_i = A_i 2^-s at one scale.

    Returns (s, A): s >= 0 is the least scale at which every real and
    imaginary part is an integer, and A_i is the pair (real, imag) of
    ints.  node_products forms its Gaussian-integer products over A, and
    the annihilator expands and evaluates R_lm over it.
    """
    with mp.workprec(bits):
        vals = [mp.mpc(a) for a in values]
        parts = [x for a in vals for x in (a.real, a.imag)]
        s = max([0] + [-x.exp for x in parts if x])  # x.exp: x = man 2^exp, man odd
        return s, [(int(mp.ldexp(a.real, s)), int(mp.ldexp(a.imag, s))) for a in vals]


def node_products(values, bits: int = DEFAULT_BITS):
    """Exact products of node differences over every prefix of the nodes.

    The values, rounded to bits, are dyadic: a_i = A_i 2^-s with
    Gaussian integers A_i at one scale s >= 0 (dyadic_form).  Returns
    (s, columns): columns yields G[0], G[1], ..., G[N] in turn, where
    G[k][i] = prod_{j<=k, j!=i}(A_i - A_j) for i <= k is a pair
    (real, imag) of ints, so 1/prod_{j<=k, j!=i}(a_i - a_j) is
    2^{sk}/G[k][i].  Column k follows from column k-1 and the k
    differences A_i - A_k, each formed once; a caller that reads only
    G[N] holds one column at a time (the whole table at n = 24,
    0.3+0.4i takes about 180 MB).  Its readers, the witness weights and
    the LP's Newton weights, divide by the products, so as it forms the
    columns it raises ValueError when two nodes coincide to working
    precision: |A_i - A_j| < 2^-(bits//2) max(2^s, max|A|).
    """
    s, A = dyadic_form(values, bits)
    return s, _product_columns(A, s, bits)


def _product_columns(A, s, bits):
    """The columns of node_products, over the values A 2^-s."""
    sep = max([1 << 2 * s] + [x * x + y * y for x, y in A])
    col = []
    for k, (x, y) in enumerate(A):
        nxt, (g, h) = [], (1, 0)  # g + ih = prod_{i<k}(A_k - A_i)
        for i, (p, q) in enumerate(col):
            u, v = A[i][0] - x, A[i][1] - y
            if (u * u + v * v) << 2 * (bits // 2) < sep:
                with mp.workprec(bits):
                    diff = mp.nstr(mp.ldexp(mp.sqrt(u * u + v * v), -s), 5)
                raise ValueError(
                    f"nodes {i} and {k} coincide to working precision "
                    f"(|diff| = {diff}); need distinct nodes"
                )
            nxt.append((p * u - q * v, p * v + q * u))
            g, h = h * v - g * u, -g * v - h * u  # times A_k - A_i = -(u + iv)
        nxt.append((g, h))
        col = nxt
        yield col


def compose_to_expsum(p: Poly2, alpha: AlphaParam, bits: int = DEFAULT_BITS) -> ExpSum:
    """Restrict P to the curve: term (c_jk, monomial node j + alpha*k) per coefficient.

    Terms with equal nodes merge (possible only when Im(alpha) = 0).
    """
    with mp.workprec(bits):
        acc = {}
        for e in monomial_nodes(p.degree, alpha, bits):
            c = p.coeffs.get(e.index)
            if c is not None:
                acc[e.value] = acc.get(e.value, 0) + mp.mpc(c)
        return ExpSum(tuple((c, a) for a, c in acc.items()))


def eval_poly(p: Poly2, z, w, bits: int = DEFAULT_BITS):
    """sum c_jk z^j w^k at working precision, canonical summation order."""
    with mp.workprec(bits):
        zz, ww = mp.mpc(z), mp.mpc(w)
        total = mp.mpc(0)
        for jk in canonical_indices(p.degree):
            c = p.coeffs.get(jk)
            if c is None:
                continue
            total += mp.mpc(c) * zz**jk.j * ww**jk.k
        return total


def eval_expsum(f: ExpSum, t, bits: int = DEFAULT_BITS):
    """sum c * e^{a t} at working precision."""
    with mp.workprec(bits):
        tt = mp.mpc(t)
        total = mp.mpc(0)
        for c, a in f.terms:
            total += mp.mpc(c) * mp.exp(mp.mpc(a) * tt)
        return total


def derivative_at_zero(f: ExpSum, m: int, bits: int = DEFAULT_BITS):
    """m-th derivative of f at 0, i.e. sum c * a^m (with 0^0 = 1)."""
    if m < 0:
        raise ValueError(f"derivative order must be >= 0, got {m}")
    with mp.workprec(bits):
        total = mp.mpc(0)
        for c, a in f.terms:
            aa = mp.mpc(a)
            total += mp.mpc(c) * (mp.mpc(1) if m == 0 else aa**m)
        return total
