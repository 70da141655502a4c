"""Numeric bracket for E_n(alpha): semi-infinite LP and random search.

E_n(alpha) = sup{ ||P||_bidisk : deg P <= n, ||P||_K <= 1 } is estimated
from both sides:

  * en_lp_estimate discretizes the constraint ||P||_K <= 1 to circle
    points t_i and replaces each modulus constraint |f(t_i)| <= 1 by S
    half-planes Re(e^{i phi_s} f(t_i)) <= 1 (an outer polygon), then for
    each torus candidate (z0, w0) and objective phase maximizes
    Re(e^{i theta} P(z0, w0)).  Finitely many constraint points plus the
    outer polygon make this a relaxation of the candidate restriction,
    so refining the constraint grid can only shrink the value.
  * en_random_search scores random coefficient vectors (plus the
    deterministic candidates z, w, and the witness) on the LP's torus
    grid and a fixed circle grid of _ORACLE_CIRCLE_POINTS = 512 points
    by ln(bidisk grid max / first-order K bound), a float64 lower
    estimate without a rounding allowance.  That circle is the LP's
    only at the default circle_points; a coarser LP (circle_points=128,
    say) still scores the oracle on 512 points.  Candidates are scored
    in chunks of _BOUND_CHUNK, and a chunk of random trials is skipped
    when a cheap upper bound on each of its scores (sum|c| over the
    torus, every 16th circle point below) lies below the best score so
    far.  On the benchmark's solve inputs (n = 1, 2, 3 at 0.5i, 1000
    trials) the deterministic candidates of the first chunk beat every
    trial's bound by 0.3 nats or more at seeds 0 to 4, so no other chunk
    is scored.  The points of both grids, like every float64 grid value
    here, are entries of norms.unit_roots read at exact integer phases.

The LP's variables are Newton coefficients d: f = Psi d and c = W d,
where column k of Psi is psi_k(t) = [a_0..a_k] e^{a t} over the nodes,
scaled to max 1 on the circle (_newton_basis); a candidate's objective
m.c is g.d, with g = W^T m over the scales.  At alpha = 0.5i, cond(Psi)
is about 300 at n = 8, cond(exp(t (x) nodes)) 9e16 already at n = 5.
W[i, k] = 1/prod_{j<=k, j!=i}(a_i - a_j) is core.node_products's exact
Gaussian-integer product over the float64 nodes (the routine the
witness weights read), rounded once, so conjugated nodes give exactly
conj(W).  Its last column holds the divided-difference weights over
those nodes.

Two reductions keep the LP tractable.  First, rotating all coefficients
by e^{2 pi i/S} permutes the constraint set, so objective phases that
differ by a multiple of 2 pi/S give equal optima; only Q/gcd(S,Q)
residue phases are solved (one, at the defaults).  Second, dual
bounds prune torus candidates without solving them.  Any complex
weights lambda over the circle points, with residual
r = Psi^T lambda - g, give g.d = lambda.f - r.d, and three facts bound
it for every point the sweep can accept:

  * the polygon rows force |f_i| <= sec(pi/S) at every circle point;
  * ||d||_2 <= sqrt(M1) sec(pi/S) / sigma_min(Psi), which bounds the
    residual term ||r||_2 ||d||_2 (sigma_min less a QR rounding
    allowance; if that leaves nothing, every bound is inf);
  * an accepted point violates no row by more than FEASIBILITY_TOL,
    except rows already in its working set that HiGHS leaves violated
    at its feasibility floor; so both facts hold with the extra factor
    (1 + _ACCEPT_TOL), far above the largest violation of an accepted
    point measured (2.9e-11).

So Re(e^{i theta} g.d) <= (1 + _ACCEPT_TOL) sec(pi/S)
(sum |lambda_i| + ||r||_2 sqrt(M1)/sigma_min), inflated for float
rounding, for every residue phase theta at once (_dual_certificate).
The bounds come in three tiers (_DualBounds).  With Psi = QR, the
least-squares weights conj(Q) R^{-T} g are nearly equimodular, so
sqrt(M1) ||Q||_2 ||R^{-T} g||_2 bounds their sum, at O(N^2) per
candidate, within 11 % and mostly within 2 %; candidates are taken in descending order of
that bound and the sweep stops at the first that does not exceed the
incumbent.  A candidate is skipped when the least-squares certificate
itself, or the one from the min-norm weights on the circle points
that carry the incumbent's nonzero LP duals, does not exceed the
incumbent.  Each surviving LP activates constraints lazily: violated
rows are added until no row of the full discretization is violated
beyond FEASIBILITY_TOL, and the LP is abandoned as soon as a relaxation
value falls to the incumbent.
All candidates share one HiGHS model: it starts from a fixed coarse
row pattern and keeps every cut row, so a candidate starts from the
rows its predecessors needed.  A new objective starts the dual simplex
from the slack basis; each cut round hot-starts it from the previous
basis, which adding rows leaves dual feasible.  Each working set is
solved once, at SOLVER_OPTIONS (presolve off, tolerances 1e-9) with
the cost scaled by a power of two to max 1 or below; any nonzero
status raises SolverGridError at once.  Feasibility of the
accepted point is certified by the explicit scan over all rows, not by
the solver's internal tolerance.

The model is SciPy's bundled HiGHS binding,
scipy.optimize._highspy._core._Highs (SciPy 1.15 and later, by SciPy's
release notes), a private module that may move in a later release.  It
is used because SciPy's public linprog builds a new model for every
call and cannot hot-start, and the public binding, highspy, is not a
dependency.  The extension is loaded from its file under
scipy/optimize/_highspy/, whose package __init__ is empty, so that
scipy/optimize/__init__.py never runs: that import (scipy.linalg,
scipy.fft, scipy.special, scipy.spatial and SciPy's array-API layer)
took about 0.6 s of the 0.85 s it took to import bwexp.cli.  An already
imported copy is reused.

The LP layer runs in float64 (the estimates are grid-resolution-bound
far above rounding error); analytic and witness quantities come from
the extended-precision modules.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, replace
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from types import SimpleNamespace

import numpy as np
from numpy.random import default_rng

from .analytic_bounds import theorem2_bounds
from .construct import WitnessResult, build_witness, witness_certificate
from .core import (
    DEFAULT_BITS,
    AlphaParam,
    canonical_indices,
    make_alpha,
    monomial_nodes,
    node_products,
    require_alpha,
    require_degree,
    space_dimension,
)
from .norms import GRID_FLOOR, unit_powers, unit_roots


def _load_highs_core():
    """SciPy's HiGHS extension, loaded without importing scipy.optimize."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = find_spec("scipy")
    spec = None
    if scipy_spec is not None:
        where = os.path.join(scipy_spec.submodule_search_locations[0], "optimize", "_highspy")
        spec = PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"bwexp needs scipy>=1.15, whose {name} binds HiGHS; it was not found")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_core = _load_highs_core()
_Highs, kHighsInf, _HighsModelStatus = _core._Highs, _core.kHighsInf, _core.HighsModelStatus

DEFAULT_MAX_DEGREE = 8
FEASIBILITY_TOL = 1e-9
SOLVER_OPTIONS = {
    "presolve": "off",
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}
_BASE_POINTS = 32
_BASE_DIRECTIONS = 8
_CUTS_PER_ROUND = 64
_MAX_ROUNDS = 200
_BOUND_CHUNK = 64
_ORACLE_CIRCLE_POINTS = 512
# Margin for the row violation of an accepted point in the dual bound.
# The largest measured over the test suite, the benchmark workloads and
# n <= 8 at eleven alphas is 2.9e-11 (HiGHS runs at primal feasibility
# 1e-9); a looser margin only loosens the bound.
_ACCEPT_TOL = 1e-7


class SolverGridError(RuntimeError):
    """The discretized LP cannot be solved: its Newton problem leaves the
    float64 range, or a working-set LP ended with status 3 (its rows
    leave the objective unbounded) or 4 (any other nonzero HiGHS status,
    named in the message)."""


@dataclass(frozen=True)
class LPConfig:
    """Discretization sizes for the semi-infinite LP."""

    circle_points: int = 512
    polygon_sides: int = 64
    torus_points: int = 32
    phase_samples: int = 16

    def __post_init__(self) -> None:
        if self.polygon_sides < 8:
            raise ValueError(f"polygon_sides must be >= 8, got {self.polygon_sides}")
        if self.torus_points < GRID_FLOOR:
            raise ValueError(f"torus_points must be >= {GRID_FLOOR}, got {self.torus_points}")
        if self.phase_samples < 4:
            raise ValueError(f"phase_samples must be >= 4, got {self.phase_samples}")
        if self.circle_points < GRID_FLOOR:
            raise ValueError(f"circle_points must be >= {GRID_FLOOR}, got {self.circle_points}")

    def slack(self) -> float:
        """Discretization allowance in the oracle <= lp + slack invariant.

        A feasible P scoring the oracle value has some sampled phase
        within pi/Q of its candidate-point argument, so the LP objective
        sees at least cos(pi/Q) of the oracle's modulus.
        """
        return -math.log(math.cos(math.pi / self.phase_samples))


@dataclass(frozen=True)
class EnEstimate:
    """The full bracket for one (n, alpha): analytic endpoints, witness, oracle and LP."""

    n: int
    alpha: AlphaParam
    lp_log_value: float
    oracle_log_value: float
    witness_log_value: float
    analytic_lower: float
    analytic_upper: float
    config: LPConfig
    trials: int
    seed: int
    precision_bits: int
    flags: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.flags


def phase_residues(polygon_sides: int, phase_samples: int):
    """Distinct objective phases modulo the 2 pi/S rotation symmetry."""
    S, Q = polygon_sides, phase_samples
    residues = sorted({(q * S) % Q for q in range(Q)})
    return [2 * math.pi * r / (S * Q) for r in residues]


def _candidate_guard(n: int, cfg: LPConfig, max_degree: int) -> None:
    require_degree(n)
    if n > max_degree:
        raise ValueError(
            f"n={n} exceeds the LP size guard ({max_degree}); "
            f"pass a higher max_degree to override"
        )
    N = space_dimension(n)
    if cfg.circle_points < 4 * N:
        raise ValueError(
            f"circle_points={cfg.circle_points} below 4N={4 * N}; "
            f"the constraint grid cannot resolve degree {n}"
        )


def _nodes_f64(n: int, alpha: AlphaParam, bits: int) -> np.ndarray:
    return np.array(
        [complex(e.value) for e in monomial_nodes(n, alpha, bits)], dtype=np.complex128
    )


def linprog(c, A_ub, model, options=SOLVER_OPTIONS):
    """Append the rows A_ub x <= 1 to a persistent HiGHS model and minimize c.x.

    A new cost c replaces the model's and clears its solver, so the
    solve starts from the slack basis; c = None keeps the cost and
    hot-starts the dual simplex from the last basis, which stays dual
    feasible when rows are only added.  Returns status (0 optimal, 3
    unbounded, 4 any other HiGHS model status; linprog's 1 and 2 cannot
    occur: no limit is set and x = 0 satisfies every row), x and message.
    """
    for key, value in options.items():
        model.setOptionValue(key, value)
    if c is not None:
        model.changeColsCost(len(c), np.arange(len(c), dtype=np.int32), c)
        model.clearSolver()
    k = A_ub.shape[0]
    if k:
        rows, cols = np.nonzero(A_ub)
        starts = np.searchsorted(rows, np.arange(k)).astype(np.int32)
        model.addRows(k, np.full(k, -kHighsInf), np.ones(k), len(rows), starts,
                      cols.astype(np.int32), A_ub[rows, cols])
    model.run()
    highs_status = model.getModelStatus()
    status = {_HighsModelStatus.kOptimal: 0, _HighsModelStatus.kUnbounded: 3}.get(highs_status, 4)
    message = f"HiGHS status {int(highs_status)}: {model.modelStatusToString(highs_status)}"
    x = np.array(model.getSolution().col_value) if status == 0 else None
    return SimpleNamespace(status=status, x=x, message=message)


class _WorkingSetLP:
    """Row-generation solver over one circle/polygon discretization.

    Rows are indexed i*S + s for circle point i and polygon direction s.
    One HiGHS model, with the 2(N+1) real coefficient parts as free
    columns, lives as long as the solver: it starts from a fixed coarse
    row pattern, and cut rows are appended and never removed, so each
    maximize() call starts from every row an earlier call needed.  Each
    new objective starts from the slack basis; its cut rounds hot-start
    from the previous basis.

    After each solve the acceptance scan scores every circle point i by
    the row the model would hold for it, Re(phases[s*] f_i) with s* the
    nearest polygon direction (the one that maximizes the row over s),
    read from the same table phases = unit_roots(S) as _rows.
    """

    def __init__(self, psi: np.ndarray, S: int):
        self.psi = psi
        self.M1 = psi.shape[0]
        self.S = S
        self.phases = unit_roots(S)
        # at least one circle point per coefficient, or the first LP is unbounded
        stride = self.M1 // max(_BASE_POINTS, psi.shape[1])
        self.base = {
            i * S + s
            for i in range(0, self.M1, max(1, stride))
            for s in range(0, S, max(1, S // _BASE_DIRECTIONS))
        }
        self.working: set = set()
        self.order: list = []  # the working rows in model order
        ncol = 2 * psi.shape[1]
        self.model = _Highs()
        self.model.setOptionValue("output_flag", False)
        self.model.addVars(ncol, np.full(ncol, -kHighsInf), np.full(ncol, kHighsInf))

    def _rows(self, ids: np.ndarray) -> np.ndarray:
        i, s = ids // self.S, ids % self.S
        u = self.psi[i] * self.phases[s][:, None]
        return np.concatenate([u.real, -u.imag], axis=1)

    def maximize(self, d: np.ndarray, abandon_below: float = -math.inf) -> float | None:
        """max d.x over the full discretization, via lazy row generation.

        The relaxation value only decreases as cut rows are added, so
        when an intermediate solve already sits at or under abandon_below
        (an incumbent; -inf never abandons), the final value cannot beat
        it and the search stops early, returning None.
        """
        ncoef = d.shape[0] // 2
        # HiGHS's tolerances are absolute; an exact power of two keeps x unchanged
        cost = np.ldexp(-d, -math.frexp(np.abs(d).max())[1])
        new = sorted(self.base - self.working)
        for _ in range(_MAX_ROUNDS):
            self.working.update(new)
            self.order.extend(new)
            res = linprog(cost, self._rows(np.array(new, dtype=int)), self.model)
            if res.status != 0:
                raise SolverGridError(
                    f"LP not solvable on its working set of {len(self.working)} "
                    f"constraint rows (solver status {res.status}): {res.message}"
                )
            x = res.x
            if float(d @ x) <= abandon_below:
                return None
            cost = None
            f = self.psi @ (x[:ncoef] + 1j * x[ncoef:])
            # nearest polygon direction maximizes Re(e^{i phi_s} f_i) over s
            sstar = np.mod(np.round(-np.angle(f) * self.S / (2 * np.pi)), self.S).astype(int)
            vals = (self.phases[sstar] * f).real
            bad = np.flatnonzero(vals > 1 + FEASIBILITY_TOL)
            if bad.size:
                order = bad[np.argsort(-vals[bad], kind="stable")][:_CUTS_PER_ROUND]
                new = sorted(
                    {int(i) * self.S + int(s) for i, s in zip(order, sstar[order])}
                    - self.working
                )
                if new:
                    continue
                # every violated row is already in the working set: the
                # solver's attainable feasibility floor; accept the point
            return float(d @ x)
        raise SolverGridError("constraint generation did not converge")

    def support(self) -> list:
        """Circle points of the rows with a nonzero dual in the last solve."""
        dual = np.array(self.model.getSolution().row_dual)
        return sorted({self.order[r] // self.S for r in np.flatnonzero(dual)})


def _certificate(M1: int, S: int, sigma: float, gamma: float, l1, resid):
    """(1 + _ACCEPT_TOL) (1 + gamma) sec(pi/S) (l1 + resid sqrt(M1)/sigma)."""
    scale = (1 + _ACCEPT_TOL) * (1 + gamma) / math.cos(math.pi / S)
    return scale * (l1 + resid * (math.sqrt(M1) / sigma))


def _dual_certificate(
    psi: np.ndarray, S: int, sigma: float, lam: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Bound on |g.d| over every point the sweep can accept, for any lam.

    Columns of g are torus rows and the matching columns of lam are
    arbitrary complex weights over the circle points; sigma is a lower
    bound on sigma_min(psi).  The residual term carries whatever
    psi^T lam misses of g, so an inexact lam loosens the bound but never
    invalidates it.  gamma covers float rounding in the residual, in the
    sums, and in the objective the LP evaluates.
    """
    M1, N = psi.shape
    gamma = 4 * (M1 + N) * np.finfo(float).eps
    resid = (
        np.linalg.norm(psi.T @ lam - g, axis=0)
        + gamma * (np.linalg.norm(np.abs(psi).T @ np.abs(lam), axis=0)
                   + 2 * np.linalg.norm(g, axis=0))
    )
    return _certificate(M1, S, sigma, gamma, np.abs(lam).sum(axis=0), resid)


class _DualBounds:
    """Upper bounds on every LP value at each torus row, in three tiers.

    Each tier is _dual_certificate for some weights lam, or a bound on
    it, so each bounds every value the sweep can accept at that row.
    One QR of psi gives the least-squares weights lam* = conj(Q) y,
    y = R^{-T} g, and sigma_min(psi) as that of R less a Householder
    backward-error allowance; when nothing is left, every bound is inf.

      1. bounds[p], O(N^2) per row: sum |lam*_i| <= sqrt(M1) ||Q||_2
         ||y||_2, with ||Q||_2^2 <= ||Q^H Q||_inf, and the residual
         psi^T lam* - g = P y - g through the N x N matrix
         P = psi^T conj(Q).  The float Q^H Q and P miss their exact
         values by at most gamma |Q|^T |Q| and gamma |psi|^T |Q|
         entrywise, and P y - g its exact value by gamma (|P| |y| + |g|),
         each taken in norm; 2 gamma ||g|| more covers the objective as
         in _dual_certificate, and (1 + gamma) each float norm.
      2. least_squares(p): _dual_certificate of lam* itself, O(M1 N).
      3. on_support(p): _dual_certificate of the min-norm weights
         A^H (A A^H)^{-1} g, A = psi_T^T, on a set T of circle points (the
         incumbent's dual support, where the neighbouring candidates'
         optima lean on the same constraints); inf when T has fewer than
         N points or A A^H is singular.

    Every tier carries the factor sec(pi/S), 1.0012 at S = 64, so a
    candidate whose LP value lies closer than that below the incumbent
    is seldom skipped: at 0.5i the two such candidates (n = 2 and 3,
    0.052 % and 0.046 % below) stayed above it even with weights near
    the l1 optimum on the support.
    """

    def __init__(self, psi: np.ndarray, S: int, rows: np.ndarray):
        M1, N = psi.shape
        self.psi, self.S, self.rows = psi, S, rows
        gamma = 4 * (M1 + N) * np.finfo(float).eps
        self.bounds = np.full(len(rows), np.inf)
        self.sigma = 0.0
        self.gram = None
        if not np.isfinite(psi).all():
            return
        Q, R = np.linalg.qr(psi)
        sigma = np.linalg.svd(R, compute_uv=False)[-1] - (
            4 * M1 * N * np.finfo(float).eps * np.linalg.norm(psi)
        )
        if not sigma > 0:
            return
        self.sigma, self.Qc = sigma, np.conj(Q)
        self.y = y = np.linalg.solve(R.T, rows.T)
        absQ = np.abs(Q)
        q2 = (np.abs(Q.conj().T @ Q).sum(axis=1).max()
              + gamma * (absQ.T @ absQ).sum(axis=1).max()) * (1 + gamma)
        P = psi.T @ self.Qc
        slack = (gamma * np.linalg.norm(P) + gamma * np.linalg.norm(np.abs(psi).T @ absQ)) * (1 + gamma)
        norm_y = np.linalg.norm(y, axis=0) * (1 + gamma)
        norm_g = np.linalg.norm(rows, axis=1) * (1 + gamma)
        resid = (np.linalg.norm(P @ y - rows.T, axis=0) * (1 + gamma)
                 + slack * norm_y + 3 * gamma * norm_g)
        self.bounds = _certificate(M1, S, sigma, gamma, math.sqrt(M1 * q2) * norm_y, resid)

    def least_squares(self, p: int) -> float:
        """Tier 2 at torus row p."""
        if not self.sigma:
            return math.inf
        return float(_dual_certificate(self.psi, self.S, self.sigma, self.Qc @ self.y[:, p], self.rows[p]))

    def set_support(self, points: list) -> None:
        """Make `points` the circle points T that on_support reads."""
        self.gram = None
        if self.sigma and len(points) >= self.psi.shape[1]:
            self.support = np.array(points)
            on = self.psi[self.support]
            self.gram = on.T @ np.conj(on)

    def on_support(self, p: int) -> float:
        """Tier 3 at torus row p, on the last set_support points."""
        if self.gram is None:
            return math.inf
        try:
            z = np.linalg.solve(self.gram, self.rows[p])
        except np.linalg.LinAlgError:
            return math.inf
        lam = np.zeros(self.psi.shape[0], dtype=np.complex128)
        lam[self.support] = np.conj(self.psi[self.support]) @ z
        return float(_dual_certificate(self.psi, self.S, self.sigma, lam, self.rows[p]))


def _torus_monomials(n: int, M2: int) -> np.ndarray:
    """Monomial vectors m (rows, canonical order) at the M2 x M2 torus grid points.

    Row a M2 + b holds z^j w^k at (z, w) = (w^a, w^b), w = e^{2 pi i/M2},
    as the one table entry unit_roots(M2)[(a j + b k) mod M2], the phase
    norms.norm_on_bidisk evaluates.
    """
    j, k = np.array(canonical_indices(n)).T
    a = np.arange(M2)[:, None]
    phase = (a * j)[:, None, :] + (a * k)[None, :, :]  # (a, b, term)
    return unit_roots(M2)[phase % M2].reshape(M2 * M2, len(j))


def newton_terms(rho: float) -> int:
    """J = ceil(e rho) + 60 Taylor terms of a Newton function over nodes |a_i| <= rho.

    |h_j(a)| <= C(j+k, k) rho^j, so term j of [a_0..a_k] e^{a t} is at
    most (e rho/j)^j/k! on |t| <= 1, and the tail past J below 2e-26/k!.
    """
    return math.ceil(math.e * rho) + 60


def homogeneous_sums(a: np.ndarray, J: int) -> np.ndarray:
    """h[j, i] = h_j(a_0..a_i), the complete homogeneous sums of the nodes a, for j < J.

    h_0 = 1 and h_j(a_0..a_i) = sum_{l<=i} a_l h_{j-1}(a_0..a_l), one
    product and one np.cumsum per row (cumsum accumulates in index
    order).  Past the float64 range the table holds inf and nan quietly;
    callers check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.ones((J, len(a)), dtype=np.result_type(a, np.float64))
        for j in range(1, J):
            h[j] = np.cumsum(a * h[j - 1])
    return h


def _newton_basis(a: np.ndarray, M1: int, bits: int):
    """psi_k(t_i) = [a_0..a_k] e^{a t_i} at M1 circle points, and W with psi = e^{t a} W.

    psi_k(t) = sum_j h_j(a_0..a_k) t^{k+j}/(k+j)!, h_j the complete
    homogeneous symmetric polynomial, from homogeneous_sums.
    J = newton_terms(rho) terms, rho = max|a|, leave a tail below
    2e-26/k!, while max|psi_k| >= 1/k! (its t^k coefficient, by Cauchy's
    estimate).
    W[i,k] = 1/prod_{j<=k, j!=i}(a_i - a_j) for i <= k, else 0, is
    2^{sk}/G[k][i] from core.node_products over the same float64 nodes
    (which raises ValueError if two coincide at bits), rounded once in
    each part by Python's int/int division.  Past the float64 range an
    entry of W is inf, and the table and psi hold inf and nan quietly;
    _lp_problem's finiteness check raises SolverGridError on them.
    """
    s, columns = node_products(a.tolist(), bits)
    K = len(a)
    W = np.zeros((K, K), dtype=np.complex128)
    for k, col in enumerate(columns):
        for i, (p, q) in enumerate(col):
            norm = p * p + q * q
            try:
                W[i, k] = complex((p << s * k) / norm, (-q << s * k) / norm)
            except OverflowError:
                W[i, k] = math.inf
    J = newton_terms(float(np.abs(a).max()))
    m = np.arange(K + J - 1)
    inv_fact = np.cumprod(np.concatenate([[1.0], 1.0 / m[1:]]))
    h = homogeneous_sums(a, J)
    with np.errstate(over="ignore", invalid="ignore"):
        band = np.zeros((K + J - 1, K), dtype=np.complex128)
        band[np.arange(J)[:, None] + np.arange(K), np.arange(K)] = h
        psi = (unit_powers(M1, K + J - 1) * inv_fact) @ band
    return psi, W


def _lp_problem(n: int, alpha: AlphaParam, cfg: LPConfig, bits: int):
    """Newton matrix Psi, columns scaled to max 1, and torus rows g = W^T m over the scales.

    Raises SolverGridError, before any solve, when a scale or a torus
    row (so any entry of W) leaves the float64 range.
    """
    psi, W = _newton_basis(_nodes_f64(n, alpha, bits), cfg.circle_points, bits)
    scale = np.abs(psi).max(axis=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows = (_torus_monomials(n, cfg.torus_points) @ W) / scale
    if not ((np.isfinite(scale) & (scale > 0)).all() and np.isfinite(rows).all()):
        raise SolverGridError(f"the Newton basis leaves the float64 range at n = {n}")
    return psi / scale, rows


def en_lp_estimate(
    n: int,
    alpha: AlphaParam,
    cfg: LPConfig = LPConfig(),
    bits: int = DEFAULT_BITS,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> float:
    """ln of the discretized-LP maximum over torus candidates and phases."""
    _candidate_guard(n, cfg, max_degree)
    require_alpha(alpha)
    psi, rows = _lp_problem(n, alpha, cfg, bits)
    S = cfg.polygon_sides
    lp = _WorkingSetLP(psi, S)
    rotations = np.exp(1j * np.array(phase_residues(S, cfg.phase_samples)))[:, None]
    duals = _DualBounds(psi, S, rows)

    # A candidate whose first-tier bound does not exceed the incumbent
    # cannot be accepted above it, and neither can any later one in this
    # order; the two finer tiers skip single candidates.
    best = -math.inf
    for p in np.argsort(-duals.bounds, kind="stable"):
        if duals.bounds[p] <= best:
            break
        if duals.least_squares(p) <= best or duals.on_support(p) <= best:
            continue
        for dm in rows[p] * rotations:
            val = lp.maximize(np.concatenate([dm.real, -dm.imag]), abandon_below=best)
            if val is not None and val > best:
                best = val
                duals.set_support(lp.support())
    if best <= 0:
        raise SolverGridError("LP produced a nonpositive maximum; grid degenerate")
    return math.log(best)


def _require_search_inputs(trials: int, seed: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def en_random_search(
    n: int,
    alpha: AlphaParam,
    trials: int,
    seed: int,
    grid_points: int = 32,
    bits: int = DEFAULT_BITS,
    witness: WitnessResult | None = None,
) -> float:
    """Best score ln(bidisk grid max / first-order K bound) over sampled P.

    Scores the deterministic candidates z, w and the witness (built here
    unless a construct.WitnessResult for (n, alpha) is passed), then
    `trials` coefficient vectors drawn as standard normals in
    R^{2(N+1)}; the score is scale invariant, so their directions are
    uniform on the unit sphere.  The bidisk maximum is taken over the
    LP's torus grid with grid_points per axis, and ||P||_K is bounded by
    grid_max + (pi/M) sum |c||a|e^{|a|} over a circle grid of the fixed
    M = _ORACLE_CIRCLE_POINTS = 512 points, whatever the LP's
    circle_points.  That K bound is first order and evaluated in float64
    with no rounding allowance, so the score is an estimate of a lower
    bound on e_n(alpha), not a certified one.  Chunks of trials that
    cannot beat the best score so far are skipped (see the module
    docstring), which changes no value.
    """
    require_degree(n)
    _require_search_inputs(trials, seed)
    require_alpha(alpha)
    idx = canonical_indices(n)
    ncoef = len(idx)
    nodes = _nodes_f64(n, alpha, bits)
    E = np.exp(np.outer(unit_roots(_ORACLE_CIRCLE_POINTS), nodes))
    mono = _torus_monomials(n, grid_points)
    deriv_weight = (np.pi / _ORACLE_CIRCLE_POINTS) * np.abs(nodes) * np.exp(np.abs(nodes))

    if witness is None:
        witness = build_witness(n, alpha, bits)
    fixed = np.zeros((3, ncoef), dtype=np.complex128)
    fixed[0, idx.index((1, 0))] = 1.0
    fixed[1, idx.index((0, 1))] = 1.0
    fixed[2] = [complex(witness.p.coefficient(jk.j, jk.k)) for jk in idx]
    v = default_rng(seed).standard_normal((trials, 2 * ncoef))
    cols = np.concatenate([fixed, v[:, :ncoef] + 1j * v[:, ncoef:]]).T

    # a column scores at most ln sum|c| - ln(max over every 16th circle
    # point |E c| + deriv_weight @ |c|): |P| <= sum|c| on the torus, and a
    # subset's maximum is at most the full one
    absc = np.abs(cols)
    bound = np.log(absc.sum(axis=0)) - np.log(np.abs(E[::16] @ cols).max(axis=0) + deriv_weight @ absc)
    best = -math.inf
    for lo in range(0, cols.shape[1], _BOUND_CHUNK):
        # chunk 0 holds the deterministic candidates; 1e-9 dwarfs the
        # float rounding of either side (about 1e-14)
        if lo and bound[lo:lo + _BOUND_CHUNK].max() < best - 1e-9:
            continue
        c = cols[:, lo:lo + _BOUND_CHUNK]
        top = np.abs(mono @ c).max(axis=0)
        certk = np.abs(E @ c).max(axis=0) + deriv_weight @ np.abs(c)
        best = max(best, float(np.max(np.log(top) - np.log(certk))))
    return best


def en_bracket(
    n: int,
    alpha: AlphaParam,
    cfg: LPConfig = LPConfig(),
    trials: int = 1000,
    seed: int = 0,
    bits: int = DEFAULT_BITS,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> EnEstimate:
    """Assemble LP, oracle, witness, and analytic endpoints for (n, alpha).

    Invariant violations (a lower estimate exceeding an upper bound plus
    its stated allowance) are recorded in flags, never silently dropped.
    The oracle's trials and seed and the LP's size guard are checked
    first, so a bad one fails before the certificate and the LP run; the
    oracle then scores the certificate's witness, built once.

    An alpha with Im alpha < 0 is answered by the bracket of conj(alpha),
    reported under alpha.  P -> P*(z, w) = conj(P(conj z, conj w))
    conjugates the coefficients and keeps every bidisk value's modulus,
    and P*(e^t, e^{conj(alpha) t}) = conj(f(conj t)) with f the curve
    restriction of P at alpha; t -> conj t maps |t| <= 1 onto itself,
    so E_n(alpha) = E_n(conj alpha).  Each discretized quantity has the
    same symmetry, so the bracket of conj(alpha) is one of alpha with
    the same guarantees:

      * the circle points, the torus grid and the polygon directions are
        roots of unity, closed under conjugation, and the nodes of
        conj(alpha) are the conjugated nodes;
      * the LP's objective Re(e^{i theta} P(z0, w0)) equals
        Re(e^{-i theta} P*(conj z0, conj w0)), and the phases 2 pi q/Q
        are closed under negation, so their residues modulo 2 pi/S are
        too: the two LPs have the same candidates and the same optimum;
      * the witness of conj(alpha) is P* of the witness of alpha (its
        divided-difference weights are conjugated), and its circle
        certificates read conjugated Taylor coefficients on conjugation-
        closed grids, so they certify the same norms;
      * the oracle's z and w are real, its witness is P*, and a random
        trial c scores at conj(alpha) what conj(c) scores at alpha: a
        conjugated standard normal sample is equally distributed;
      * theorem2_bounds reads |Im alpha| only.

    Computed at alpha itself the two brackets differ only by rounding
    (lp_estimate by at most 1.4e-14 on circle 128, polygon 32, torus 16,
    phases 8; the conjugate-symmetry verify suite compares them).
    """
    if alpha.im < 0:
        require_alpha(alpha, theorem=True)  # an error names alpha itself
        est = en_bracket(n, make_alpha(alpha.re, -alpha.im), cfg, trials, seed, bits, max_degree)
        return replace(est, alpha=alpha)
    lo, up = theorem2_bounds(n, alpha, bits)
    _require_search_inputs(trials, seed)
    _candidate_guard(n, cfg, max_degree)
    w, _, _, wlower = witness_certificate(n, alpha, bits=bits)
    oracle_val = en_random_search(
        n, alpha, trials, seed, grid_points=cfg.torus_points, bits=bits, witness=w
    )
    lp_val = en_lp_estimate(n, alpha, cfg, bits, max_degree)
    analytic_lower, analytic_upper = float(lo), float(up)
    witness_log = float(wlower)

    flags = []
    slack = cfg.slack()
    if oracle_val > lp_val + slack + 1e-9:
        flags.append(
            f"oracle {oracle_val:.6f} exceeds lp {lp_val:.6f} + slack {slack:.6f}"
        )
    if witness_log > analytic_upper + 1e-6:
        flags.append(
            f"witness {witness_log:.6f} exceeds analytic upper {analytic_upper:.6f}"
        )
    if oracle_val > analytic_upper + 1e-6:
        flags.append(
            f"oracle {oracle_val:.6f} exceeds analytic upper {analytic_upper:.6f}"
        )
    return EnEstimate(
        n,
        alpha,
        lp_val,
        oracle_val,
        witness_log,
        analytic_lower,
        analytic_upper,
        cfg,
        trials,
        seed,
        bits,
        tuple(flags),
    )
