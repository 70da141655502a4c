"""Sup norms on the curve, on circles, and on the bidisk, one-sided.

Estimates are honest in one direction each: grid maxima are true lower
bounds on the sup (they are attained values), and certified uppers are
true upper bounds.  Everything runs at an explicit binary precision.

Circle certificates use a Taylor ladder.  Any point t on |t| = r lies
within arc distance h = pi r / M of a grid point t_i, so for any depth
D >= 1

    |f(t)| <= sum_{m<D} h^m/m! |f^(m)(t_i)| + h^D/D! T_D,
    T_D = sum |c| |a|^D e^{r|a|},

because the segment from t_i to t stays inside |u| <= r where every
|f^(D)(u)| <= T_D.  Taking the grid max of each |f^(m)| and minimizing
over D gives the certificate.  The adaptive ladder stops at the first D
whose tail h^D/D! T_D is at most 2^-min(bits/2, 64) of the least bound
so far, B.  Every deeper bound is at least the partial sum at D, which
is at least B less that tail, so stopping raises the certificate by at
most 2^-64 B over the minimum across all depths; it stays an upper
bound.  Depth 1 is the classical
grid_max + h * sum|c||a|e^{r|a|} bound; deeper levels matter when f has
engineered cancellation (witness polynomials have K norms around
e^{n}/N! while sum|c||a|e^{|a|} is astronomically larger, so the
one-step bound is useless there and the ladder is not).

Each level needs the grid maximum G_j = max_i |f^(j)(t_i)| over
t_i = r e^{2 pi i i/M}.  A working-precision scan of the whole grid costs
M K exponentials and M K multiply-adds per level (K terms), so each
level is scanned in float64 first and only the candidates it cannot rule
out are evaluated at working precision.

* With the moments mu_k = sum c a^k (formed once, at working precision)
  and w = e^{2 pi i/M}, f^(j)(t_i) = sum_m b_m w^{im} with
  b_m = mu_{m+j} r^m/m!: a length-M DFT of the Taylor coefficients,
  folded mod M, evaluated as a float64 matrix-vector product.  Its
  block w^{(im) mod M} is gathered once per grid, grown when a level
  needs more columns, and sliced.
* The moments do not depend on r, so one table per ExpSum and
  precision holds them for every circle: mu_k, sum |c||a|^k and the
  level coefficients c a^k.  The latest table is kept, so a witness's
  K circle and its r = N/n circle form each moment once.
* The rest of a level's set-up is float arithmetic on values stored
  once each: each mu_k, sum |c||a|^k and r^m/m! is stored, when it is
  formed, as a float64 mantissa of modulus at most 1 and a binary
  exponent from mp.mag.  L and a power-of-two scale 2^-S are picked
  from the table's log2 values, and each scaled coefficient is the
  product of the mantissas of mu_{m+j} and r^m/m!, shifted exactly by
  ldexp.
* Cauchy's estimate gives |b_m| <= sup_{|t|=r} |f^(j)|, so no term of
  the float sum exceeds the level maximum and its rounding error is
  small relative to that maximum, even where the terms c e^{a t} of f
  cancel by many orders of magnitude.  The cancellation is paid once,
  in the moments, at working precision.
* A grid point is kept when its float modulus is within 2E of the float
  maximum, where E bounds |float value - working-precision value| at
  every grid point.  E adds the float rounding
  2 gamma_{2L+66} sum|b_m| (gamma_n = n u/(1 - n u)) with an underflow
  allowance, the closed-form truncation tail
  sum |c||a|^j sum_{m>L} (r|a|)^m/m!, and the working-precision rounding
  of the moments and of the direct evaluation, a multiple of 2^-bits T_j
  with T_j = sum |c||a|^j e^{r|a|}, the running sum the ladder keeps.
  The gamma count covers three roundings of each coefficient (the float
  mantissas of mu_{m+j} and of r^m/m!, and their product; the shifts
  are exact), the twiddle factors, folding and the dot product; a
  product of n factors (1 + delta), |delta| <= u, is 1 + theta with
  |theta| <= gamma_n (Higham, Accuracy and Stability of Numerical
  Algorithms, 2nd ed., Lemma 3.1), so the two roundings a coefficient
  carries beyond a single float conversion add 2 to the count.
* L is the first index at which the tail's float log2 value drops below
  that of the float rounding of max|b_m| or of 2^-bits T_j, so it is no
  parameter.  L sets only the work: the tail for the chosen L is formed
  once, at working precision, and E holds for every L with
  L + 2 > r max|a|.
* The working-precision maximizer has a float modulus within 2E of the
  float maximum, so it is always kept, and so are exact ties such as
  mirror-image points.  Kept points are evaluated exactly as a full scan
  evaluates them (same t_i, exponentials and summation order), so each
  G_j, and with it grid_max and the ladder certificate, is the value a
  full working-precision scan of the grid reports: an attained value.

Bidisk sup norms of polynomials are attained on the torus
|z| = |w| = 1 (maximum principle in each variable separately), so the
grid scans the torus points (w^a, w^b), w = e^{2 pi i/M}, only.  The
certified upper is the coefficient sum ||P||_{bidisk} <= sum |c_jk|.
The grid maximum is found like a circle level maximum, but needs no
moments or ladder.

* P(w^a, w^b) = sum c_jk w^{(aj+bk) mod M}: a float64 sum of T terms
  over one table of the M roots w^m (made at working precision), the
  coefficients scaled by a power of two.
* A point is kept when its float modulus is within 2E of the float
  maximum.  E adds the float rounding 2 gamma_{T+64} sum|c| (conversion
  of coefficients and roots, products, sum), an underflow allowance and
  the working-precision rounding 8 (T + 4) 2^-bits sum|c|.  With every
  degree below M, Parseval on the grid gives max |P| >= sum|c|/sqrt(T),
  so the window is narrow relative to the maximum.
* Each distinct tuple of phase indices (aj+bk) mod M among the kept
  points, which fixes the working-precision value, is evaluated once:
  exact ties collapse (the M^2 points of z w share M tuples).  The
  working-precision maximizer is always kept, so grid_max is the
  maximum of a full working-precision scan: an attained value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .core import DEFAULT_BITS, AlphaParam, ExpSum, Poly2, compose_to_expsum

GRID_FLOOR = 8


@dataclass(frozen=True)
class NormEstimate:
    """A sup-norm bracket: attained grid value and optional certificate."""

    grid_max: object  # mp.mpf, a true lower bound on the sup
    certified_upper: object  # mp.mpf upper bound, or None


_UNIT = 2.0**-53  # float64 unit roundoff


def _window(top: float, n: int, size: float, extra: float) -> float:
    """E, a bound on |float value - working-precision value| at every point.

    E adds the float rounding 2 gamma_n size (gamma_n = n u/(1 - n u),
    size the sum of the float terms' moduli), the caller's extra terms,
    and the rounding of the modulus, of the threshold and of E itself
    (top is the largest float modulus).
    """
    gamma = n * _UNIT / (1 - n * _UNIT)
    return (2 * gamma * size + extra + 4 * _UNIT * top) * (1 + gamma)


def _near_max(vals, n: int, size: float, extra: float):
    """Flat indices of the points whose float modulus is within 2E of the max."""
    mod = np.abs(vals)
    top = float(mod.max())
    return np.flatnonzero(mod >= top - 2 * _window(top, n, size, extra))


def _split(x, kind):
    """(m, e, log2|x|) with x = m 2^e, |m| <= 1, m rounded once to kind.

    e comes from mp.mag, so the scaling by 2^-e is exact and the
    conversion of m to float or complex is the only rounding; zero
    splits as (0, 0, -inf).
    """
    if not x:
        return kind(0), 0, -math.inf
    e = int(mp.mag(x))
    m = kind(x * mp.ldexp(1, -e))
    return m, e, e + math.log2(abs(m))


class _Moments:
    """The moments mu_k = sum c a^k of one ExpSum at one precision.

    Holds, for every k formed so far, the level coefficients c a^k, the
    float split of mu_k, sum |c||a|^k and its float log2.  None of it
    depends on the circle, so every radius and grid of the ExpSum reads
    one table.  Build and call inside mp.workprec(bits).
    """

    def __init__(self, terms, bits: int):
        self.terms, self.bits = terms, bits
        coeffs = [mp.mpc(c) for c, _ in terms]
        self.exps = [mp.mpc(a) for _, a in terms]
        self.abs_exps = [abs(a) for a in self.exps]
        self.amax = max(self.abs_exps)
        self.levels = [coeffs]  # c a^k, one list per k
        self.abs_powers = [abs(c) for c in coeffs]  # |c||a|^k for the next moment k
        self.abs_moments = []  # sum |c||a|^k
        self.mu_f, self.abs_log = [], []  # _split of mu_k, log2 sum |c||a|^k

    def extend(self, k: int):
        """Make moments up to index k available."""
        while len(self.mu_f) <= k:
            powers = self.levels[-1]
            s = mp.mpc(0)
            for p in powers:
                s += p
            self.mu_f.append(_split(s, complex))
            self.abs_moments.append(sum(self.abs_powers))
            self.abs_log.append(_split(self.abs_moments[-1], float)[2])
            self.levels.append([p * a for p, a in zip(powers, self.exps)])
            self.abs_powers = [p * x for p, x in zip(self.abs_powers, self.abs_exps)]

    def level(self, j: int):
        """c a^j for every term: the coefficients of f^(j)."""
        self.extend(j)
        return self.levels[j]


_last_moments = None  # the table of the latest circle estimate


def _moment_table(f: ExpSum, bits: int) -> _Moments:
    """f's moment table at bits, the latest one again when f.terms and bits match.

    One entry is kept, so the circles of one ExpSum that are estimated in
    a row (a witness's K circle and its r = N/n circle) share a table,
    and no more than one table outlives its call.
    """
    global _last_moments
    terms = tuple(f.terms)  # a copy if a caller passed a list it may change
    if _last_moments is None or (_last_moments.terms, _last_moments.bits) != (terms, bits):
        _last_moments = _Moments(terms, bits)
    return _last_moments


class _CircleGrid:
    """Level maxima max_i |f^(j)(t_i)| on the grid t_i = r e^{2 pi i i/M}.

    A float64 scan of the moments finds the candidates; only those are
    evaluated at working precision, exactly as a full scan would (see the
    module docstring).  Build and call inside mp.workprec(table.bits).
    """

    def __init__(self, table: _Moments, r, M: int):
        self.table, self.r, self.M = table, r, M
        self.exps = table.exps
        self.xmax = r * table.amax  # r max|a|
        self.rfac = [mp.mpf(1)]  # r^m / m!
        self.rfac_f = [_split(self.rfac[0], float)]
        self.tails = [abs(c) * mp.exp(r * x) for c, x in zip(table.levels[0], table.abs_exps)]  # |c||a|^j e^{r|a|}
        self.totals = [sum(self.tails)]  # T_j
        self.step = 2 * mp.pi / M
        self.twiddle = np.exp(2j * np.pi * np.arange(M) / M)
        self.dft = np.empty((M, 0), dtype=np.complex128)  # twiddle[(i m) mod M], the columns gathered so far
        self.rows = {}  # grid index -> [e^{a t_i}]

    def extend(self, m: int):
        """Make r^m/m! up to index m available."""
        while len(self.rfac) <= m:
            self.rfac.append(self.rfac[-1] * self.r / len(self.rfac))
            self.rfac_f.append(_split(self.rfac[-1], float))

    def total(self, j: int):
        """T_j = sum |c||a|^j e^{r|a|}, one |a| factor per level on a running list."""
        while len(self.totals) <= j:
            self.tails = [u * x for u, x in zip(self.tails, self.table.abs_exps)]
            self.totals.append(sum(self.tails))
        return self.totals[j]

    def taylor(self, j: int):
        """Float 2^-S b_m, b_m = mu_{m+j} r^m/m! for m <= L; S, the tail past L, noise.

        The closed-form tail sum |c||a|^j sum_{m>L} (r|a|)^m/m! is at
        most r^{L+1}/(L+1)! sum |c||a|^{j+L+1} / (1 - r max|a|/(L+2)).
        L is picked from the float table's log2 values: the first index
        with L + 2 > r max|a| at which the tail drops below the float
        rounding of the largest b_m or below noise = 2^-bits T_j, the
        scale of working-precision rounding at this level.  L only sets
        the work: the tail for the chosen L, formed once at working
        precision, enters the window.  S is the least integer with
        max|b_m| <= 2^S by the same log2 values.
        """
        table = self.table
        noise = mp.ldexp(self.total(j), -table.bits)
        log_noise = _split(noise, float)[2]
        xmax = float(self.xmax)
        log_bmax, m = -math.inf, 0
        while True:
            table.extend(m + j + 1)
            self.extend(m + 1)
            log_bmax = max(log_bmax, table.mu_f[m + j][2] + self.rfac_f[m][2])
            shrink = 1 - xmax / (m + 2)  # > 0 only if m + 2 > r max|a| exactly
            if shrink > 0:
                log_tail = table.abs_log[m + j + 1] + self.rfac_f[m + 1][2] - math.log2(shrink)
                if log_tail <= log_bmax - 53 or log_tail <= log_noise:
                    break
            m += 1
        tail = table.abs_moments[m + j + 1] * self.rfac[m + 1] / (1 - self.xmax / (m + 2))
        S = math.ceil(log_bmax) if log_bmax > -math.inf else 0
        mu, rf = table.mu_f[j : j + m + 1], self.rfac_f[: m + 1]
        # Re and Im of each float moment times the float r^m/m!, scaled exactly
        mant = np.array([u for u, _, _ in mu]).view(np.float64) * np.repeat([v for v, _, _ in rf], 2)
        shift = np.repeat([e + g - S for (_, e, _), (_, g, _) in zip(mu, rf)], 2)
        return np.ldexp(mant, shift).view(np.complex128), S, tail, noise

    def scan(self, j: int):
        """Float values 2^-S f^(j)(t_i) at every grid point, and the window's inputs.

        Returns (vals, n, size, extra, S); _near_max(vals, n, size, extra)
        keeps the points within 2E of the float maximum, where E bounds
        |vals_i - 2^-S f^(j)(t_i)|, f^(j)(t_i) evaluated at working
        precision as level_max does.
        """
        M = self.M
        coef, S, tail, noise = self.taylor(j)
        L = len(coef) - 1
        folded = np.zeros(M, dtype=np.complex128)
        np.add.at(folded, np.arange(L + 1) % M, coef)
        q = min(L + 1, M)
        if self.dft.shape[1] < q:
            self.dft = self.twiddle[np.outer(np.arange(M), np.arange(q)) % M]
        vals = self.dft[:, :q] @ folded[:q]
        # rounding of the moments (k + K + 2 roundings of terms up to
        # |c||a|^k), of r^m/m!, and of the direct evaluation, whose
        # exponent a t_i carries an error of order r|a| 2^-bits
        work = 64 * (len(self.exps) + L + j + 8 + self.xmax) * noise
        # float underflow; truncation and working precision
        extra = (L + M + 8) * 2.0**-1060 + float(mp.ldexp(tail + work, -S))
        # each coefficient carries three roundings (float moment, float
        # r^m/m!, their product); then twiddles, folding and the dot product
        return vals, 2 * L + 66, float(np.abs(coef).sum()), extra, S

    def row(self, i: int):
        row = self.rows.get(i)
        if row is None:
            t = self.r * mp.exp(mp.mpc(0, i * self.step))
            row = self.rows[i] = [mp.exp(a * t) for a in self.exps]
        return row

    def level_max(self, j: int, scaled):
        """Grid max of |f^(j)| = |sum scaled_k e^{a_k t}|, scaled_k = c_k a_k^j."""
        vals, n, size, extra, _ = self.scan(j)
        best = mp.mpf(0)
        for i in _near_max(vals, n, size, extra).tolist():
            s = mp.mpc(0)
            for d, e in zip(scaled, self.row(i)):
                s += d * e
            v = abs(s)
            if v > best:
                best = v
        return best


def _circle_estimate(f: ExpSum, r, M: int, bits: int, depth) -> NormEstimate:
    """Grid max and ladder certificate for an ExpSum on |t| = r.

    depth: 0 for grid max only, a positive integer for a fixed Taylor
    depth (1 = the one-step derivative bound), None for adaptive depth
    (minimum over depths until the tail term falls to
    2^-min(bits/2, 64) of the best bound, see the module docstring).
    """
    if M < GRID_FLOOR:
        raise ValueError(f"grid needs at least {GRID_FLOOR} points, got {M}")
    with mp.workprec(bits):
        rr = mp.mpf(r)
        if rr <= 0:
            raise ValueError(f"radius must be positive, got {mp.nstr(rr, 8)}")
        if not f.terms:
            zero = mp.mpf(0)
            return NormEstimate(zero, zero)
        table = _moment_table(f, bits)
        grid = _CircleGrid(table, rr, M)

        grid_max = grid.level_max(0, table.level(0))
        if depth == 0:
            return NormEstimate(grid_max, None)

        h = mp.pi * rr / M
        cap = depth if depth is not None else max(GRID_FLOOR, 2 * len(f.terms) + 16)
        cutoff = mp.mpf(2) ** -min(bits // 2, 64)
        partial = mp.mpf(0)  # sum_{m<D} h^m/m! G_m
        hfac = mp.mpf(1)  # h^m / m!
        best = None
        g = grid_max
        for m in range(cap):
            partial += hfac * g
            hfac *= h / (m + 1)
            tail = hfac * grid.total(m + 1)  # h^D/D! * T_D at D = m+1
            cand = partial + tail
            if best is None or cand < best:
                best = cand
            if depth is None and tail <= cutoff * best:
                break
            if m + 1 < cap:
                g = grid.level_max(m + 1, table.level(m + 1))
        return NormEstimate(grid_max, best)


def norm_on_K(p: Poly2, alpha: AlphaParam, M: int = 512, bits: int = DEFAULT_BITS, depth=None) -> NormEstimate:
    """Sup of |P| on the curve piece {(e^t, e^{alpha t}) : |t| <= 1}.

    The composed f is entire, so the sup over the disk is attained on
    |t| = 1; the grid scans that circle.  depth as in norm_on_circle.
    """
    f = compose_to_expsum(p, alpha, bits)
    return _circle_estimate(f, 1, M, bits, depth)


def norm_on_circle(f: ExpSum, r, M: int = 512, bits: int = DEFAULT_BITS, depth=None) -> NormEstimate:
    """Sup of |f| on |t| = r with grid max and ladder certificate.

    grid_max is the largest |f(t_i)| over the M grid points, an attained
    value.  depth 0 skips the certificate, a positive depth fixes the
    Taylor depth, and None (adaptive) stops the ladder once its tail is
    2^-min(bits/2, 64) of the best bound: within 2^-64 of the least
    bound over all depths, and still an upper bound.  f's moments come
    from one table shared with the previous estimate of the same f at
    the same bits, and each level's DFT block is gathered once per grid
    (see the module docstring); neither changes a value.
    """
    return _circle_estimate(f, r, M, bits, depth)


def norm_on_bidisk(p: Poly2, M: int = 256, bits: int = DEFAULT_BITS) -> NormEstimate:
    """Sup of |P| over the closed bidisk, scanned on the M x M torus.

    grid_max is the largest |P(w^a, w^b)|, w = e^{2 pi i/M}, evaluated at
    working precision as sum c_jk w^{(aj+bk) mod M}: exactly the maximum
    of a full working-precision scan, found by a float64 scan with a
    proven error window (see the module docstring), so it is attained.
    certified_upper is the coefficient sum.
    """
    if M < GRID_FLOOR:
        raise ValueError(f"grid needs at least {GRID_FLOOR} points, got {M}")
    items = sorted(p.coeffs.items())
    with mp.workprec(bits):
        coeffs = [mp.mpc(c) for _, c in items]
        csum = sum(abs(c) for c in coeffs)
        if csum == 0:
            zero = mp.mpf(0)
            return NormEstimate(zero, zero)
        T = len(coeffs)
        step = 2 * mp.pi / M
        roots = [mp.exp(mp.mpc(0, m * step)) for m in range(M)]
        scale = mp.ldexp(1, -mp.mag(max(abs(c) for c in coeffs)))
        twiddle = np.array([complex(w) for w in roots])
        jk = np.array([ix for ix, _ in items])
        ar = np.arange(M)
        vals = np.zeros((M, M), dtype=np.complex128)
        for (j, k), c in zip(jk.tolist(), coeffs):
            vals += complex(c * scale) * twiddle[np.add.outer(ar * j, ar * k) % M]
        # float underflow; working-precision rounding of the products, the sum and |.|
        extra = (4 * T + 8) * 2.0**-1060 + float(8 * (T + 4) * mp.mpf(2) ** (-bits) * csum * scale)
        a, b = np.divmod(_near_max(vals, T + 64, float(csum * scale), extra), M)
        keys = (np.outer(a, jk[:, 0]) + np.outer(b, jk[:, 1])) % M
        keys = keys[np.lexsort(keys.T)]  # equal keys adjacent, evaluated once
        best = mp.mpf(0)
        for key in keys[np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]].tolist():
            s = mp.mpc(0)
            for c, m in zip(coeffs, key):
                s += c * roots[m]
            v = abs(s)
            if v > best:
                best = v
        return NormEstimate(best, csum)


def bw_envelope(z, w, normk, en, n: int, bits: int = DEFAULT_BITS):
    """Growth envelope normk * en * exp(n * log+ max(|z|, |w|))."""
    with mp.workprec(bits):
        nk, e = mp.mpf(normk), mp.mpf(en)
        if not (nk > 0 and e > 0):
            raise ValueError("envelope needs positive norm and constant")
        outer = max(abs(mp.mpc(z)), abs(mp.mpc(w)))
        logplus = mp.log(outer) if outer > 1 else mp.mpf(0)
        return nk * e * mp.exp(n * logplus)
