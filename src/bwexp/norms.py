"""Sup norms on the curve, on circles, and on the bidisk, one-sided.

Estimates are honest in one direction each: grid maxima are true lower
bounds on the sup (they are attained values), and certified uppers are
true upper bounds.  Everything runs at an explicit binary precision.

A circle certificate is the lesser of two upper bounds on
sup_{|t|=r} |f|.  On |t| = r, f = sum c e^{a t} (K terms) is
sum_m b_m e^{i m theta}, b_m = mu_m r^m/m!, mu_m = sum c a^m.

* First order: every t lies within arc pi r/M of a grid point, and
  |f'| <= T_1 = sum |c||a| e^{r|a|} on |u| <= r, so
  sup|f| <= G_0 + (pi r/M) T_1, G_0 the grid maximum below (exact for
  a constant f).
* Autocorrelation: with f_L the sum over m <= L and
  rho_k = sum_m b_{m+k} conj(b_m), |f_L|^2 = sum_k rho_k e^{i k theta}
  <= sum_k |rho_k|, and |f - f_L| <= tail = sum |c| sum_{m>L} (r|a|)^m/m!
  (_CircleGrid.taylor picks L).  It does not depend on M, and it is
  sharp where the first-order bound is useless: a witness's K norm is
  about e^n/N!, its sum|c||a|e^{|a|} astronomically larger.

No float enters the second bound (_CircleGrid.certificate).  B_m is
b'_m 2^P floored in each part, a Gaussian integer, where
b'_m = sums[m] 2^{e_m} r_man^m 2^{m r_exp}/m! is exact from the integer
moment table below and r = r_man 2^{r_exp}; so
sum_{m<=L} |b_m - B_m 2^-P| <= D = error + 2^{1-P}(L+1), error being
taylor's bound on the moments' part.  P = F + 2 - S (F = bits + _GUARD,
max|b_m| <= 2^S) gives max|B_m| at least F bits.  With
f_B = sum B_m 2^-P e^{i m theta}, sup|f| <= sup|f_B| + D + tail, and
(2^P sup|f_B|)^2 <= sum_{|k|<=L} |rho_k(B)| = rho_0 + 2 sum_{k>=1}
|rho_k(B)| (rho_{-k} = conj(rho_k)).  rho_0 = sum |B_m|^2 is exact, each
other modulus is raised to isqrt(|rho_k|^2) + 1 in the integer total,
and its root to isqrt(total) + 1.  So sup|f| is at most
(isqrt(total) + 1 + ceil(2^P D) + ceil(2^P tail)) 2^-P, rounded up once
to the working precision; the tail is formed with every rounding
directed up, and error is an integer times a power of two, so D is
formed exactly: 2^P D = 2^P error + 2(L+1).
The integer sum costs O(L^2) products of F-bit integers; certify=False
skips it where only grid_max is read.

The grid maximum G_0 = max_i |f(t_i)| over t_i = r e^{2 pi i i/M} is a
working-precision value.  A scan of the whole grid costs M K
exponentials and M K multiply-adds, so the grid is scanned in float64
first and only the candidates it cannot rule out are evaluated at
working precision.

Every float64 grid scan, here and in solver, reads one table of the M
roots of unity, unit_roots(M), whose entry m is within 23u (u = 2^-53)
of e^{2 pi i m/M}.  NumPy forms the phase as fl(fl(2 fl(pi) m) fl(1/M)),
dividing by the complex M through its rounded reciprocal: pi's rounding
(0.36u) and three more put it within 3.4u of 2 pi m/M relative, below
21.4u absolute, and its cos and sin are each within one ulp of a value
below 1 in modulus, at most u.  Measured: at most 14.4u (M = 196) over
M = 8..199 and ten larger M.

* f(t_i) = sum_m b_m w^{im}, w = e^{2 pi i/M}: a length-M DFT of the
  Taylor coefficients, folded mod M, evaluated as a float64
  matrix-vector product.
* The moments do not depend on r, so one table per ExpSum and
  precision holds them for every circle.  Each mu_k is an exact sum of
  Python integers: c and a are truncated once to multiples of 2^-F
  (after exact power-of-two scalings), each power
  c a^{k+1} = (c a^k) a is floored back to that scale, and a running
  integer bound on the truncation error of each moment, at most
  (k + K + 2) 2^-bits sum |c||a|^k on the witnesses and random sums
  the tests check, is kept beside it.  So are integer upper bounds on
  sum |c||a|^k, which cannot overflow.  The last two tables are kept
  (moment_table), so a witness's vanishing check
  (construct.build_witness reads its mu_0..mu_N) and its circles share
  one table and form each moment once, even where one circle is
  evaluated again at more bits.
* The scan reads the certificate's Gaussian integers B_m, formed once
  per grid.  L and S are picked from float log2 values of the table's
  integers and of r^m/m! = r_man^m 2^{m r_exp}/m!, and since
  P + S = F + 2, each scaled coefficient 2^-S b_m is about
  B_m 2^-(F+2): each part is one correctly rounded int / int division,
  which cannot overflow.
* Cauchy's estimate gives |b_m| <= sup_{|t|=r} |f|, so no term of the
  float sum exceeds the maximum and its rounding error is small
  relative to it, even where the terms c e^{a t} of f cancel by many
  orders of magnitude.  The cancellation is paid once, in the exact
  integer sums.
* A grid point is kept when its float modulus is within 2E of the float
  maximum, where E bounds |float value - working-precision value| at
  every grid point.  E adds the float rounding
  2 gamma_{2L+64} sum|b_m| (gamma_n = n u/(1 - n u)) with an underflow
  allowance, the allowance D (the moments' error and the floors of B),
  the tail, and the working-precision rounding of the direct
  evaluation, a multiple of 2^-bits T_0 with T_0 = sum |c| e^{r|a|}.
  The gamma count covers the one rounding of each coefficient, the
  roots' 23u each (gamma_23, see above), folding and the dot product,
  gamma_{2L+30} in all; a product of n factors
  (1 + delta), |delta| <= u, is 1 + theta with |theta| <= gamma_n
  (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
  Lemma 3.1).
* L is the first index at which the tail's float log2 value drops below
  that of the float rounding of max|b_m| or of 2^-bits T_0, so it is no
  parameter.  The tail for the chosen L is formed once, at working
  precision, and E holds for every L with L + 2 > r max|a|.
* The working-precision maximizer has a float modulus within 2E of the
  float maximum, so it is always kept, and so are exact ties such as
  mirror-image points.  One loop, _largest, evaluates the kept points
  exactly as a full scan would (same t_i, exponentials and summation
  order), so grid_max is the value a full working-precision scan
  reports: an attained value.

One routine keeps the circle's precision rule.  grid_max is an attained
value only where the rounding bound of its direct evaluation (work, a
multiple of 2^-bits T_0) is below 2^-64 grid_max; where it is not,
norm_on_circle evaluates the circle once more at the precision the
bound names and raises only if that falls short too, so a caller passes
the precision it wants and never acts on the rule.  r max|a| is capped
at SPAN_MAX before any table is built: L exceeds r max|a|, and the
exact pairs (r_man^m, m!) and the integer autocorrelation grow as its
square.

Bidisk sup norms of polynomials are attained on the torus
|z| = |w| = 1 (maximum principle in each variable separately), so the
grid scans the torus points (w^a, w^b), w = e^{2 pi i/M}, only.  The
certified upper is the coefficient sum ||P||_{bidisk} <= sum |c_jk|.
The grid maximum is found like a circle's, but needs no moments.

* P(w^a, w^b) = sum c_jk w^{(aj+bk) mod M}: a float64 sum of T terms
  over the table unit_roots(M), the coefficients scaled by a power of
  two.
* A point is kept when its float modulus is within 2E of the float
  maximum.  E adds the float rounding 2 gamma_{T+64} sum|c| (the
  conversion of each coefficient, the roots' 23u each as above, the
  products and the sum: gamma_{T+26} in all), an underflow allowance and
  the working-precision rounding 8 (T + 4) 2^-bits sum|c|.  With every
  degree below M, Parseval on the grid gives max |P| >= sum|c|/sqrt(T),
  so the window is narrow relative to the maximum.
* Each distinct tuple of phase indices (aj+bk) mod M among the kept
  points, which fixes the working-precision value, is evaluated once by
  _largest: exact ties collapse (the M^2 points of z w share M tuples).
  Only the working-precision roots w^m those tuples read are formed.
  The working-precision maximizer is always kept, so grid_max is the
  maximum of a full working-precision scan: an attained value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul

import numpy as np
from mpmath import mp

from .core import DEFAULT_BITS, AlphaParam, ExpSum, Poly2, compose_to_expsum

GRID_FLOOR = 8
SPAN_MAX = 4096  # the largest r max|a| a circle accepts: its tables grow as (r max|a|)^2


def require_grid(M: int) -> None:
    """Raise unless a circle or torus grid has at least GRID_FLOOR points."""
    if M < GRID_FLOOR:
        raise ValueError(f"grid needs at least {GRID_FLOOR} points, got {M}")


def unit_roots(M: int) -> np.ndarray:
    """The float64 table of the M roots e^{2 pi i m/M}, each within 23u of its value (see the module docstring)."""
    return np.exp(2j * np.pi * np.arange(M) / M)


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


def _largest(coeffs, rows):
    """max |sum c_k x_k| over the rows x, at the working precision.

    The one loop that evaluates kept points: each row is summed in term
    order, s += c_k x_k from s = 0, as a full scan of the grid sums it.
    """
    best = mp.mpf(0)
    for row in rows:
        s = mp.mpc(0)
        for c, x in zip(coeffs, row):
            s += c * x
        best = max(best, abs(s))
    return best


def _log2(x) -> float:
    """log2 x of a nonnegative mpf as a float, -inf at zero."""
    man, exp = x.man_exp
    return exp + math.log2(man) if man else -math.inf


_GUARD = 64  # bits the fixed-point moments carry below 2^-bits


class _Moments:
    """The moments mu_k = sum c a^k of one ExpSum at one precision.

    The moments are exact sums of Python integers.  With F = bits +
    _GUARD, each c 2^-ec and a 2^-ea (powers of two that bring max|c|
    into [1/2, 1) and max|a| into [1, 2)) is truncated once to an integer
    C or A, a multiple of 2^-F, and each power c a^{k+1} is the product
    of c a^k and A, floored back to that scale.  Level k's integers
    carry the exact exponent e_k = ec + k ea - F, and mu_k below is the
    exact moment of the working-precision c and a.  For every k formed
    so far the table holds:

    * sums[k], the integer sum (re, im) of the powers;
    * errors[k] >= |sums[k] - mu_k 2^-e_k|: truncating c errs by less
      than 2 per term, and each step multiplies the bound by
      (max floor|A| + 3) 2^-F and adds 2 sum U_k 2^-F for a's truncation
      and 2 per term for the floor;
    * abs_sums[k] = sum U_k >= sum |c||a|^k 2^-e_k, from the per-term
      bounds U_0 = floor|C| + 3, U_{k+1} = ceil(U_k (floor|A| + 3) 2^-F).

    The table holds only integers, so nothing in it can overflow, nor
    can a_up, the per-term bounds floor|A| + 3 >= |a| 2^(F-ea); a circle
    forms the float log2 values it picks its truncation by from them and
    scale(k).  None of it depends on the circle, so every radius and
    grid of the ExpSum reads one table.  Build and call inside
    mp.workprec(bits).
    """

    def __init__(self, terms, bits: int):
        self.bits = bits
        self.coeffs = [mp.mpc(c) for c, _ in terms]
        self.exps = [mp.mpc(a) for _, a in terms]
        self.abs_exps = [abs(a) for a in self.exps]
        self.amax = max(self.abs_exps)
        self.F = F = bits + _GUARD
        cmax = max(abs(c) for c in self.coeffs)
        self.ec = int(mp.mag(cmax)) if cmax else 0
        self.ea = int(mp.mag(self.amax)) - 1 if self.amax else 0
        self.re = [int(mp.ldexp(c.real, F - self.ec)) for c in self.coeffs]  # the next moment's powers
        self.im = [int(mp.ldexp(c.imag, F - self.ec)) for c in self.coeffs]
        self.a_re = [int(mp.ldexp(a.real, F - self.ea)) for a in self.exps]
        self.a_im = [int(mp.ldexp(a.imag, F - self.ea)) for a in self.exps]
        self.up = [math.isqrt(x * x + y * y) + 3 for x, y in zip(self.re, self.im)]  # U_k
        self.a_up = [math.isqrt(x * x + y * y) + 3 for x, y in zip(self.a_re, self.a_im)]
        self.error = 2 * len(terms)  # the next moment's error bound
        self.sums, self.errors, self.abs_sums = [], [], []

    def scale(self, k: int) -> int:
        """e_k, the binary exponent of moment k's integers."""
        return self.ec + k * self.ea - self.F

    def extend(self, k: int):
        """Make moments up to index k available."""
        F = self.F
        while len(self.sums) <= k:
            up = sum(self.up)
            self.sums.append((sum(self.re), sum(self.im)))
            self.errors.append(self.error)
            self.abs_sums.append(up)
            self.error = -(-self.error * max(self.a_up) >> F) - (-2 * up >> F) + 2 * len(self.up)
            pairs = list(zip(self.re, self.im, self.a_re, self.a_im))
            self.re = [(x * u - y * v) >> F for x, y, u, v in pairs]
            self.im = [(x * v + y * u) >> F for x, y, u, v in pairs]
            self.up = [-(-x * u >> F) for x, u in zip(self.up, self.a_up)]

    def moment(self, k: int):
        """mu_k from the integer sum, rounded once to the working precision."""
        self.extend(k)
        (re, im), e = self.sums[k], self.scale(k)
        return mp.mpc(mp.ldexp(re, e), mp.ldexp(im, e))

    def abs_moment(self, k: int):
        """An upper bound on sum |c||a|^k, rounded up to the working precision."""
        self.extend(k)
        return mp.ldexp(mp.mpf(self.abs_sums[k], rounding="c"), self.scale(k))


_cached_moments = functools.lru_cache(maxsize=2)(_Moments)


def moment_table(f: ExpSum, bits: int) -> _Moments:
    """f's moment table at bits, one of the last two again when f.terms and bits match.

    Two entries are kept, so the uses of one ExpSum (a witness's
    vanishing check and its circles, one of them at more bits) share a
    table, and no more than two tables outlive their calls.  Call inside
    mp.workprec(bits).
    """
    return _cached_moments(tuple(f.terms), bits)  # hashable, and a copy of a list a caller may change


class _CircleGrid:
    """The grid maximum max_i |f(t_i)| on t_i = r e^{2 pi i i/M}, and the circle's certificate.

    Both read the Gaussian integers B_m, formed once (see the module
    docstring).  Build and call inside mp.workprec(table.bits).
    """

    def __init__(self, table: _Moments, r, M: int):
        self.table, self.r, self.M = table, r, M
        self.exps = table.exps
        self.xmax = r * table.amax  # r max|a|
        self.r_man, self.r_exp = r.man_exp  # r = r_man 2^r_exp exactly (r > 0)
        self.weights = [abs(c) * mp.exp(r * x) for c, x in zip(table.coeffs, table.abs_exps)]  # |c| e^{r|a|}
        self.noise = mp.ldexp(sum(self.weights), -table.bits)  # 2^-bits T_0
        self.step = 2 * mp.pi / M
        self.P, self.B, self.tail, self.error = self.taylor()
        # rounding of the direct evaluation, whose exponent a t_i carries
        # an error of order r|a| 2^-bits (the integer moments' own error
        # is taylor's bound)
        self.work = 64 * (len(self.exps) + len(self.B) + 7 + self.xmax) * self.noise

    def taylor(self):
        """P, the Gaussian integers B_m for m <= L, the tail past L and the moments' error.

        The closed-form tail sum |c| sum_{m>L} (r|a|)^m/m! is at most
        r^{L+1}/(L+1)! sum |c||a|^{L+1} / (1 - r max|a|/(L+2)).  L is
        picked from float log2 values of the table's integers and of
        r^m/m! = r_man^m 2^{m r_exp}/m!: the first index with
        L + 2 > r max|a| at which the tail drops below the float
        rounding of the largest b_m or below noise = 2^-bits T_0, the
        scale of working-precision rounding.  The tail for the chosen
        L, formed once at working precision with every rounding directed
        up from the table's upper bounds on sum |c||a|^{L+1} and on
        max|a|, enters the window and the certificate.  So does the
        moments' error, a bound on sum_{m<=L} errors[m] 2^e_m r^m/m!:
        L + 1 times its largest term by the float log2 values, doubled
        for their rounding.  S is the least integer with max|b_m| <= 2^S
        by the same log2 values, P = F + 2 - S, and B_m is b'_m 2^P
        floored in each part.
        """
        table, r_man, r_exp = self.table, self.r_man, self.r_exp
        log_noise = _log2(self.noise)
        xmax = float(self.xmax)
        rfac = [(1, 1)]  # (r_man^m, m!): r^m/m! = r_man^m 2^{m r_exp}/m!
        log_rfac = [0.0]  # log2 r^m/m!
        log_bmax, m = -math.inf, 0
        while True:
            table.extend(m + 1)
            num, den = rfac[m][0] * r_man, rfac[m][1] * (m + 1)
            rfac.append((num, den))
            log_rfac.append(math.log2(num) - math.log2(den) + (m + 1) * r_exp)
            re, im = table.sums[m]
            if re or im:
                log_bmax = max(log_bmax, table.scale(m) + math.log2(re * re + im * im) / 2 + log_rfac[m])
            shrink = 1 - xmax / (m + 2)  # > 0 only if m + 2 > r max|a| exactly
            if shrink > 0:
                log_tail = table.scale(m + 1) + math.log2(table.abs_sums[m + 1]) + log_rfac[m + 1] - math.log2(shrink)
                if log_tail <= log_bmax - 53 or log_tail <= log_noise:
                    break
            m += 1
        amax = mp.ldexp(mp.mpf(max(table.a_up), rounding="c"), table.ea - table.F)  # >= max|a|
        rfac_up = mp.ldexp(mp.fdiv(*rfac[m + 1], rounding="u"), (m + 1) * r_exp)  # >= r^{L+1}/(L+1)!
        shrink = mp.fsub(1, mp.fdiv(mp.fmul(self.r, amax, rounding="u"), m + 2, rounding="u"), rounding="d")
        tail = mp.fdiv(mp.fmul(table.abs_moment(m + 1), rfac_up, rounding="u"), shrink, rounding="u")
        log_err = max(table.scale(i) + math.log2(table.errors[i]) + log_rfac[i] for i in range(m + 1))
        error = mp.ldexp(m + 1, math.ceil(log_err) + 1)
        P = table.F + 2 - (math.ceil(log_bmax) if log_bmax > -math.inf else 0)
        B = []
        for i, ((re, im), (num, den)) in enumerate(zip(table.sums, rfac[: m + 1])):
            shift = table.scale(i) + i * r_exp + P
            if shift >= 0:
                B.append(((re * num << shift) // den, (im * num << shift) // den))
            else:
                B.append((re * num // (den << -shift), im * num // (den << -shift)))
        return P, B, tail, error

    def allowance(self):
        """D = error + 2^{1-P} (L+1) >= sum_{m<=L} |b_m - B_m 2^-P|, formed exactly."""
        return mp.fadd(self.error, mp.ldexp(len(self.B), 1 - self.P), exact=True)

    def scan(self):
        """Float values 2^-S f(t_i) at every grid point, and the window's inputs.

        Returns (vals, n, size, extra, S); _near_max(vals, n, size, extra)
        keeps the points within 2E of the float maximum, where E bounds
        |vals_i - 2^-S f(t_i)|, f(t_i) evaluated at working precision as
        level_max does.
        """
        M, L, S = self.M, len(self.B) - 1, self.table.F + 2 - self.P
        unit = 1 << (self.table.F + 2)  # 2^-S b_m is about B_m 2^-(P+S), P + S = F + 2
        coef = np.array([complex(re / unit, im / unit) for re, im in self.B])  # int / int rounds once
        folded = np.zeros(M, dtype=np.complex128)
        np.add.at(folded, np.arange(L + 1) % M, coef)
        q = min(L + 1, M)
        vals = unit_roots(M)[np.outer(np.arange(M), np.arange(q)) % M] @ folded[:q]
        # float underflow; the allowance D, truncation and working precision
        extra = (L + M + 8) * 2.0**-1060 + float(mp.ldexp(self.allowance() + self.tail + self.work, -S))
        # one rounding per coefficient; then the roots, folding and the dot product
        return vals, 2 * L + 64, float(np.abs(coef).sum()), extra, S

    def row(self, i: int):
        """[e^{a t_i}] at grid point i, at working precision."""
        t = self.r * mp.exp(mp.mpc(0, i * self.step))
        return [mp.exp(a * t) for a in self.exps]

    def level_max(self):
        """Grid max of |f| = |sum c_k e^{a_k t}|, an attained value."""
        vals, n, size, extra, _ = self.scan()
        return _largest(self.table.coeffs, map(self.row, _near_max(vals, n, size, extra).tolist()))

    def autocorrelation(self):
        """rho_0 + 2 sum_{k>=1} (isqrt |rho_k|^2 + 1) >= sum_{|k|<=L} |rho_k|, rho_k = sum_m B_{m+k} conj(B_m)."""
        re, im = [x for x, _ in self.B], [y for _, y in self.B]
        total = sum(map(mul, re, re)) + sum(map(mul, im, im))  # rho_0
        for k in range(1, len(self.B)):
            u = sum(map(mul, re[k:], re)) + sum(map(mul, im[k:], im))
            v = sum(map(mul, im[k:], re)) - sum(map(mul, re[k:], im))
            total += 2 * (math.isqrt(u * u + v * v) + 1)
        return total

    def certificate(self):
        """The autocorrelation bound sqrt(sum_k |rho_k|) + D + tail on sup |f|, rounded up (see the module docstring)."""
        P = self.P
        units = math.isqrt(self.autocorrelation()) + 1  # the root
        units += int(mp.ceil(mp.ldexp(self.allowance(), P))) + int(mp.ceil(mp.ldexp(self.tail, P)))
        return mp.ldexp(mp.mpf(units, rounding="c"), -P)


def norm_on_K(p: Poly2, alpha: AlphaParam, M: int = 512, bits: int = DEFAULT_BITS) -> NormEstimate:
    """Sup of |P| on the curve piece {(e^t, e^{alpha t}) : |t| <= 1}.

    The composed f is entire, so the sup over the disk is attained on
    |t| = 1; the grid scans that circle, and the certificate is
    norm_on_circle's.
    """
    return norm_on_circle(compose_to_expsum(p, alpha, bits), 1, M, bits)


def norm_on_circle(f: ExpSum, r, M: int = 512, bits: int = DEFAULT_BITS, certify: bool = True) -> NormEstimate:
    """Sup of |f| on |t| = r with grid max and certificate.

    grid_max is the largest |f(t_i)| over the M grid points, an attained
    value.  certified_upper is the lesser of the first-order bound and
    the autocorrelation bound (see the module docstring), or None with
    certify=False, which skips the exact integer sum.  f's moments come
    from one table shared with the previous estimate of the same f at
    the same bits; that changes no value.  Both are 0 when every
    coefficient of f is 0 at working precision.  r max|a| above
    SPAN_MAX raises before any table is built.  Where the rounding bound
    of the working-precision evaluation exceeds 2^-64 grid_max, grid_max
    is rounding noise, no attained value, so the circle is evaluated
    once more, on a table of its own, at a precision that clears the
    bound by 8 more bits (L grows a little with the precision, and the
    bound with L), and both values come from there; it raises only if
    that precision falls short too.
    """
    require_grid(M)
    with mp.workprec(bits):
        rr = mp.mpf(r)
        if not (rr > 0 and mp.isfinite(rr)):
            raise ValueError(f"radius must be positive and finite, got {mp.nstr(rr, 8)}")
        if not any(mp.mpc(c) for c, _ in f.terms):
            return NormEstimate(mp.mpf(0), mp.mpf(0))
        span = rr * max(abs(mp.mpc(a)) for _, a in f.terms)
        if span > SPAN_MAX:
            raise ValueError(f"r max|a| = {mp.nstr(span, 8)} exceeds {SPAN_MAX}, the largest a circle accepts")
    prec = bits
    while True:
        with mp.workprec(prec):
            grid = _CircleGrid(moment_table(f, prec), rr, M)
            grid_max = grid.level_max()
            if grid.work <= mp.ldexp(grid_max, -64):
                if not certify:
                    return NormEstimate(grid_max, None)
                T1 = sum(u * x for u, x in zip(grid.weights, grid.table.abs_exps))  # sum |c||a| e^{r|a|}
                return NormEstimate(grid_max, min(grid_max + mp.pi * rr / M * T1, grid.certificate()))
        # the bits missing; at least prec of them (inf when grid_max is 0)
        # say no more than that the precision should double
        short = 64 + _log2(grid.work) - _log2(grid_max)
        need = prec + math.ceil(short) + 8 if short < prec else 2 * prec
        if prec > bits:
            raise ValueError(
                f"rounding bound {mp.nstr(grid.work, 5)} exceeds 2^-64 of the grid maximum "
                f"{mp.nstr(grid_max, 5)} at {prec} bits; increase precision to {need} bits"
            )
        prec = need


def norm_on_bidisk(p: Poly2, M: int = 256, bits: int = DEFAULT_BITS) -> NormEstimate:
    """Sup of |P| over the closed bidisk, scanned on the M x M torus.

    grid_max is the largest |P(w^a, w^b)|, w = e^{2 pi i/M}, evaluated at
    working precision as sum c_jk w^{(aj+bk) mod M}: exactly the maximum
    of a full working-precision scan, found by a float64 scan with a
    proven error window (see the module docstring), so it is attained.
    certified_upper is the coefficient sum.
    """
    require_grid(M)
    items = sorted(p.coeffs.items())
    with mp.workprec(bits):
        coeffs = [mp.mpc(c) for _, c in items]
        csum = sum(abs(c) for c in coeffs)
        if csum == 0:
            return NormEstimate(mp.mpf(0), mp.mpf(0))
        T = len(coeffs)
        scale = mp.ldexp(1, -mp.mag(max(abs(c) for c in coeffs)))
        twiddle = unit_roots(M)
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
        distinct = keys[np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]]
        step = 2 * mp.pi / M
        roots = {m: mp.exp(mp.mpc(0, m * step)) for m in set(distinct.ravel().tolist())}
        return NormEstimate(_largest(coeffs, ([roots[m] for m in key] for key in distinct.tolist())), csum)


def bw_envelope(z, w, normk, en, n: int, bits: int = DEFAULT_BITS):
    """Growth envelope normk * en * exp(n * log+ max(|z|, |w|))."""
    with mp.workprec(bits):
        nk, e = mp.mpf(normk), mp.mpf(en)
        if not (nk > 0 and e > 0):
            raise ValueError("envelope needs positive norm and constant")
        outer = max(abs(mp.mpc(z)), abs(mp.mpc(w)))
        logplus = mp.log(outer) if outer > 1 else mp.mpf(0)
        return nk * e * mp.exp(n * logplus)
