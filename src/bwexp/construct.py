"""Witness polynomials certifying the lower half of the growth bracket.

The construction picks coefficients c_jk so that the composed sum
f(t) = sum c_jk e^{(j + alpha k) t} vanishes to order N at t = 0, where
N = (n^2 + 3n)/2.  The linear system sum c a^m = 0 for m < N over the
N + 1 exponent nodes a is a transposed Vandermonde system; its null
space is spanned in closed form by the divided-difference weights

    c_i = 1 / prod_{j != i} (a_i - a_j),

which in addition satisfy sum c_i a_i^N = 1 (the N-th divided
difference of t^N).  Node distinctness (Im(alpha) != 0) is exactly the
invertibility of the Vandermonde matrix; core.node_products, which
forms the products, checks it.

With h(t) = f(t)/t^N entire, the maximum principle gives
sup_{|t|=r} |f| >= r^N sup_{|t|=1} |f| >= r^N ||P||_K for r >= 1.  On
|t| = r every monomial has |z^j w^k| <= e^{n r max(1, |alpha|)}, hence

    e_n(alpha) >= ln sup_{|t|=r}|f| - ln ||P||_K - n r max(1, |alpha|),

which for |alpha| <= 1 is at least N ln r - n r; the choice r = N/n
yields the floor N ln(N/n) - N, which matches the bracket's lower
endpoint up to the n^2/4 slack of sum k ln k >= (n^2 ln n)/2 - n^2/4.

The weights span about N orders of magnitude.  Each is one exact
Gaussian-integer product of node differences from core.node_products
(the nodes are dyadic at the working precision), rounded once; the
LP's Newton weights (solver._newton_basis) read the same kind of table
over the float64 nodes.  The composed sum still cancels: its moments
mu_m = sum c a^m vanish for m < N, and the Taylor
coefficients mu_m/m! that the K certificate reads are far below
sum |c||a|^m/m!.  So the construction works at no fewer than
required_witness_bits(n) bits (a request below that floor is built at
the floor, and WitnessResult.bits records the precision used) and
checks the power sums mu_0..mu_N of the normalized witness after the
fact, from the exact integer sums of the norms.moment_table; a miss
raises with a message telling the caller to increase precision.
witness_certificate scans both of its circles at w.bits, reading that
same table: the K norm is the unit circle's certificate
(norms.norm_on_circle, the autocorrelation sum of the Taylor
coefficients), and the growth factor is the grid maximum at r = N/n.
The direct evaluation of the grid maximum cancels more than the
moments do: on |t| = 1, f is about 1/(wmax N!) (Cauchy's estimate
bounds its sup below by that Taylor coefficient), its terms about
e^{max|a|}.  Where that leaves less than 64 bits above the rounding
bound, norm_on_circle evaluates the circle again at the precision its
rule names, on a table of its own (norms.moment_table keeps two, so
the witness's table is not evicted).  At the floor, the unit circle
took 9 to 55 bits more for n <= 12 at 0.5i, 0.3+0.4i and 0.1+-0.1i,
for n <= 7 at -0.2+0.6i and for n <= 2 at 3i; the r = N/n circle took
more for n <= 2 (n <= 3 at 0.1+-0.1i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .core import (
    DEFAULT_BITS,
    AlphaParam,
    ExpSum,
    Poly2,
    monomial_nodes,
    node_products,
    require_alpha,
    require_degree,
    space_dimension,
)
from .norms import NormEstimate, moment_table, norm_on_circle, norm_on_K, require_grid

# norm_on_K is re-exported, unused here: the benchmark's tracer
# (perfbench/tracing.py) wraps construct.norm_on_K
__all__ = [
    "WitnessResult",
    "build_witness",
    "divided_difference_weights",
    "norm_on_K",
    "proof_lower_bound",
    "required_witness_bits",
    "witness_certificate",
    "witness_lower_bound",
]


def required_witness_bits(n: int) -> int:
    """Precision floor for the witness at degree n: 64 + ceil(N log2(n+2)).

    The moment table truncates c and a once, which errs by about
    2^-bits sum |c||a|^m in mu_m.  The witness's mu_m cancel: they
    vanish for m < N, and at m = N..N+4 they lie below sum |c||a|^m by
    fewer than N log2(n+2) bits (about 7 to 128 bits for n <= 12 at
    0.5i, 0.3+0.4i, 0.1+0.1i and 3i).  So the floor keeps about 64 bits
    of the moments that the vanishing check and the K certificate read.
    build_witness raises a lower request to it.  It is a floor for the
    witness, not for the direct evaluation of its K circle's grid
    maximum, which norm_on_circle raises where it needs more (see the
    module docstring).
    """
    N = space_dimension(n)
    return 64 + math.ceil(N * math.log2(n + 2))


def divided_difference_weights(nodes, bits: int = DEFAULT_BITS):
    """Weights c_i = 1/prod_{j != i}(a_i - a_j) for distinct nodes.

    They satisfy sum c_i a_i^m = 0 for 0 <= m <= N-1 and
    sum c_i a_i^N = 1, with N + 1 = len(nodes).  core.node_products
    forms G_i = prod_{j != i}(A_i - A_j) exactly over the nodes rounded
    to bits, a_i = A_i 2^-s, and raises if two of them coincide;
    c_i = 2^{sN} conj(G_i)/|G_i|^2 is rounded once in each part.
    """
    s, columns = node_products(nodes, bits)
    last = []
    for last in columns:  # G_i is the last column
        pass
    shift, weights = s * (len(last) - 1), []
    with mp.workprec(bits):
        for p, q in last:
            norm = p * p + q * q
            weights.append(mp.mpc(mp.ldexp(mp.fdiv(p, norm), shift), mp.ldexp(mp.fdiv(-q, norm), shift)))
    return weights


@dataclass(frozen=True)
class WitnessResult:
    """A witness polynomial with verified vanishing order.

    p holds the witness normalized to max |coefficient| = 1;
    max_residual is the largest |mu_m| = |sum c a^m| over m < N of the
    composed witness, relative to max(1, max|a|)^N, read from the
    moment table its r = N/n circle then reads; alpha is the curve
    parameter it was built for, f = compose_to_expsum(p, alpha), the
    ExpSum whose power sums were checked, and wmax the largest |weight|
    the coefficients were divided by.
    """

    p: Poly2
    n: int
    order: int  # N, the vanishing order at t = 0
    max_residual: object  # mp.mpf, at most 2^-(bits//4)
    r: object  # mp.mpf, the evaluation radius N/n
    bits: int  # the precision used: the caller's, or required_witness_bits(n) if more
    alpha: AlphaParam
    f: ExpSum
    wmax: object  # mp.mpf


def build_witness(n: int, alpha: AlphaParam, bits: int = DEFAULT_BITS) -> WitnessResult:
    """Construct the order-N witness for (n, alpha).

    Coefficients are the divided-difference weights over the canonical
    exponent nodes, rescaled to max |coefficient| = 1.  The witness is
    built at max(bits, required_witness_bits(n)) bits, which its bits
    field records.  Raises if a power sum mu_m of the composed witness
    misses its value (0 for m < N, 1/max|weight| at m = N) by more than
    2^-(bits//4) in the relative terms of max_residual.
    """
    require_degree(n)
    require_alpha(alpha)
    bits = max(bits, required_witness_bits(n))
    N = space_dimension(n)
    with mp.workprec(bits):
        nodes = monomial_nodes(n, alpha, bits)
        weights = divided_difference_weights([e.value for e in nodes], bits)
        wmax = max(abs(w) for w in weights)
        p = Poly2(n, {e.index: w / wmax for e, w in zip(nodes, weights)})

        # f's power sums, from the table that its r = N/n circle reads
        f = ExpSum(tuple((p.coeffs[e.index], e.value) for e in nodes))
        table = moment_table(f, bits)
        threshold = mp.mpf(2) ** (-(bits // 4))
        top = table.moment(N) * wmax
        if abs(top - 1) > threshold:
            raise ValueError(
                f"normalization row failed at {bits} bits "
                f"(|sum c a^N - 1| = {mp.nstr(abs(top - 1), 5)}); increase precision"
            )
        worst = max(abs(table.moment(m)) for m in range(N)) / max(mp.mpf(1), table.amax) ** N
        if worst > threshold:
            raise ValueError(
                f"power-sum residual {mp.nstr(worst, 5)} exceeds 2^-{bits // 4} "
                f"at {bits} bits; increase precision"
            )
        return WitnessResult(p, n, N, worst, mp.mpf(N) / n, bits, alpha, f, wmax)


def _checked_radius(r):
    """r as an mp.mpf, or raise unless r >= 1 and finite (NaN fails too)."""
    rr = mp.mpf(r)
    if not (rr >= 1 and mp.isfinite(rr)):
        raise ValueError(f"radius must be >= 1 and finite, got {mp.nstr(rr, 8)}")
    return rr


def witness_lower_bound(w: WitnessResult, r, normk: NormEstimate, circle_sup: NormEstimate):
    """Certified lower bound on e_n(alpha) from the witness ratio.

    Returns ln(circle grid max) - ln(certified K upper)
    - n r max(1, |alpha|): on |t| = r each monomial of degree <= n is at
    most e^{n r max(1, |alpha|)}.  The circle factor under-reports the
    sup and the K factor over-reports it, so the result is a true lower
    bound given the one-sided norm inputs, for any alpha.
    """
    with mp.workprec(w.bits):
        rr = _checked_radius(r)
        if normk.certified_upper is None:
            raise ValueError("K-norm estimate must carry a certified upper bound")
        if not (normk.certified_upper > 0 and circle_sup.grid_max > 0):
            raise ValueError("norm estimates must be positive")
        return (
            mp.log(circle_sup.grid_max)
            - mp.log(normk.certified_upper)
            - w.n * rr * max(1, abs(w.alpha.value(w.bits)))
        )


def proof_lower_bound(n: int, bits: int = DEFAULT_BITS):
    """The closed-form floor N ln(N/n) - N at r = N/n."""
    require_degree(n)
    with mp.workprec(bits):
        N = mp.mpf(space_dimension(n))
        return N * mp.log(N / n) - N


def witness_certificate(n: int, alpha: AlphaParam, r=None, grid: int = 512, bits: int = DEFAULT_BITS):
    """Build the witness and evaluate its certified lower bound.

    Returns (witness, normK, circle_sup, lower_bound).  normK is
    norms.norm_on_circle's estimate of the witness's own ExpSum w.f on
    |t| = 1 over `grid` points: the working-precision grid maximum and
    the autocorrelation certificate.  circle_sup is the grid maximum at
    radius r (default N/n).  Both are scanned at w.bits, the witness's
    precision (bits or its floor), and read the moment table
    build_witness checked the vanishing order on, unless norm_on_circle
    evaluates a circle again at more bits.  The grid and the radius are
    checked before the witness is built.
    """
    require_grid(grid)
    with mp.workprec(bits):
        radius = None if r is None else _checked_radius(r)
    w = build_witness(n, alpha, bits)
    radius = w.r if radius is None else radius
    circle = norm_on_circle(w.f, radius, grid, w.bits, certify=False)
    normk = norm_on_circle(w.f, 1, grid, w.bits)
    lower = witness_lower_bound(w, radius, normk, circle)
    return w, normk, circle, lower
