"""Data model for polynomials restricted to exponential curves.

A bivariate polynomial P(z, w) = sum_{j+k<=n} c_jk z^j w^k restricted to
the curve {(e^t, e^{alpha*t}) : |t| <= 1} becomes the exponential sum

    f(t) = P(e^t, e^{alpha*t}) = sum c_jk e^{(j + alpha*k) t},

so each monomial z^j w^k owns the exponent node j + alpha*k.  For
alpha = alpha1 + i*alpha2 with alpha2 != 0 the nodes are pairwise
distinct: equal nodes force alpha2*k1 = alpha2*k2, hence k1 = k2 and
then j1 = j2.  Distinctness is what every downstream construction
(annihilators, divided differences, the witness polynomial) relies on.

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
