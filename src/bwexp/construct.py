"""Witness polynomials certifying the lower half of the growth bracket.

The construction picks coefficients c_jk so that the composed sum
f(t) = sum c_jk e^{(j + alpha k) t} vanishes to order N at t = 0, where
N = (n^2 + 3n)/2.  The linear system sum c a^m = 0 for m < N over the
N + 1 exponent nodes a is a transposed Vandermonde system; its null
space is spanned in closed form by the divided-difference weights

    c_i = 1 / prod_{j != i} (a_i - a_j),

which in addition satisfy sum c_i a_i^N = 1 (the N-th divided
difference of t^N).  Node distinctness (Im(alpha) != 0) is exactly the
invertibility of the Vandermonde matrix, so it is checked directly.

With h(t) = f(t)/t^N entire, the maximum principle gives
sup_{|t|=r} |f| >= r^N sup_{|t|=1} |f| >= r^N ||P||_K for r >= 1, hence

    e_n(alpha) >= ln sup_{|t|=r}|f| - ln ||P||_K - n r >= N ln r - n r,

and the choice r = N/n yields the floor N ln(N/n) - N, which matches
the bracket's lower endpoint up to the n^2/4 slack of
sum k ln k >= (n^2 ln n)/2 - n^2/4.

The weights span about N orders of magnitude, so the construction
enforces bits >= 64 + ceil(N log2(n+2)) and verifies the power-sum
residuals after the fact; both failure modes raise with a message
telling the caller to increase precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .core import (
    DEFAULT_BITS,
    AlphaParam,
    Poly2,
    compose_to_expsum,
    monomial_nodes,
    require_alpha,
    space_dimension,
)
from .norms import NormEstimate, norm_on_circle, norm_on_K


def required_witness_bits(n: int) -> int:
    """Precision floor for the witness at degree n."""
    N = space_dimension(n)
    return 64 + math.ceil(N * math.log2(n + 2))


def divided_difference_weights(nodes, bits: int = DEFAULT_BITS):
    """Weights c_i = 1/prod_{j != i}(a_i - a_j) for distinct nodes.

    They satisfy sum c_i a_i^m = 0 for 0 <= m <= N-1 and
    sum c_i a_i^N = 1, with N + 1 = len(nodes).
    """
    with mp.workprec(bits):
        vals = [mp.mpc(a) for a in nodes]
        scale = max(mp.mpf(1), max(abs(a) for a in vals))
        sep = mp.mpf(2) ** (-(bits // 2)) * scale
        # each pair i < j once: a_j - a_i is -(a_i - a_j) exactly, and every
        # product still takes its factors in increasing j
        prods = [mp.mpc(1)] * len(vals)
        for i, ai in enumerate(vals):
            for j in range(i + 1, len(vals)):
                d = ai - vals[j]
                if abs(d) < sep:
                    raise ValueError(
                        f"nodes {i} and {j} coincide to working precision "
                        f"(|diff| = {mp.nstr(abs(d), 5)}); need distinct nodes"
                    )
                prods[i] *= d
                prods[j] *= -d
        return [1 / p for p in prods]


@dataclass(frozen=True)
class WitnessResult:
    """A witness polynomial with verified vanishing order.

    p holds the witness normalized to max |coefficient| = 1;
    max_residual is the largest |sum c a^m| over m < N relative to
    max|c| * max(1, max|a|)^N, evaluated before normalization (the
    ratio is scale invariant).
    """

    p: Poly2
    n: int
    order: int  # N, the vanishing order at t = 0
    max_residual: object  # mp.mpf
    r: object  # mp.mpf, the evaluation radius N/n
    bits: int

    @property
    def ok(self) -> bool:
        with mp.workprec(self.bits):
            return self.max_residual <= mp.mpf(2) ** (-(self.bits // 4))


def build_witness(n: int, alpha: AlphaParam, bits: int = DEFAULT_BITS) -> WitnessResult:
    """Construct the order-N witness for (n, alpha).

    Coefficients are the divided-difference weights over the canonical
    exponent nodes, rescaled to max |coefficient| = 1.  Raises if the
    precision floor is not met or the verified residual is too large.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    require_alpha(alpha)
    floor = required_witness_bits(n)
    if bits < floor:
        raise ValueError(
            f"insufficient precision for n={n}: need >= {floor} bits, got {bits}"
        )
    N = space_dimension(n)
    with mp.workprec(bits):
        nodes = monomial_nodes(n, alpha, bits)
        vals = [e.value for e in nodes]
        weights = divided_difference_weights(vals, bits)

        # residuals of the power-sum system, before normalization
        wmax = max(abs(w) for w in weights)
        amax = max(mp.mpf(1), max(abs(a) for a in vals))
        denom = wmax * amax**N
        worst = mp.mpf(0)
        powers = [mp.mpc(1)] * len(vals)
        for m in range(N):
            s = mp.mpc(0)
            for i, w in enumerate(weights):
                s += w * powers[i]
                powers[i] *= vals[i]
            worst = max(worst, abs(s) / denom)
        top = mp.mpc(0)
        for i, w in enumerate(weights):
            top += w * powers[i]
        if abs(top - 1) > mp.mpf(2) ** (-(bits // 4)):
            raise ValueError(
                f"normalization row failed at {bits} bits "
                f"(|sum c a^N - 1| = {mp.nstr(abs(top - 1), 5)}); increase precision"
            )
        threshold = mp.mpf(2) ** (-(bits // 4))
        if worst > threshold:
            raise ValueError(
                f"power-sum residual {mp.nstr(worst, 5)} exceeds 2^-{bits // 4} "
                f"at {bits} bits; increase precision"
            )

        coeffs = {
            e.index: w / wmax for e, w in zip(nodes, weights)
        }
        return WitnessResult(Poly2(n, coeffs), n, N, worst, mp.mpf(N) / n, bits)


def witness_lower_bound(w: WitnessResult, r, normk: NormEstimate, circle_sup: NormEstimate):
    """Certified lower bound on e_n(alpha) from the witness ratio.

    Returns ln(circle grid max) - ln(certified K upper) - n*r.  The
    circle factor under-reports the sup and the K factor over-reports
    it, so the result is a true lower bound given the one-sided norm
    inputs.
    """
    with mp.workprec(w.bits):
        rr = mp.mpf(r)
        if rr < 1:
            raise ValueError(f"radius must be >= 1, got {mp.nstr(rr, 8)}")
        if normk.certified_upper is None:
            raise ValueError("K-norm estimate must carry a certified upper bound")
        if not (normk.certified_upper > 0 and circle_sup.grid_max > 0):
            raise ValueError("norm estimates must be positive")
        return (
            mp.log(circle_sup.grid_max)
            - mp.log(normk.certified_upper)
            - w.n * rr
        )


def proof_lower_bound(n: int, bits: int = DEFAULT_BITS):
    """The closed-form floor N ln(N/n) - N at r = N/n."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    with mp.workprec(bits):
        N = mp.mpf(space_dimension(n))
        return N * mp.log(N / n) - N


def witness_certificate(n: int, alpha: AlphaParam, r=None, grid: int = 512, bits: int = DEFAULT_BITS):
    """Build the witness and evaluate its certified lower bound.

    Returns (witness, normK, circle_sup, lower_bound) with the K norm
    certified on a grid of `grid` points and the circle sup taken at
    radius r (default N/n).  Both circles read one moment table of the
    composed witness (norms keeps the latest table).
    """
    w = build_witness(n, alpha, bits)
    radius = w.r if r is None else r
    with mp.workprec(bits):
        radius = mp.mpf(radius)
    normk = norm_on_K(w.p, alpha, grid, bits)
    f = compose_to_expsum(w.p, alpha, bits)
    circle = norm_on_circle(f, radius, grid, bits, depth=0)
    lower = witness_lower_bound(w, radius, normk, circle)
    return w, normk, circle, lower
