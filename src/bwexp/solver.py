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
    deterministic candidates z, w, and the witness) on the LP's circle
    and torus grids by ln(bidisk grid max / first-order K bound), a
    float64 lower estimate without a rounding allowance.

The LP's variables are Newton coefficients d: f = Psi d and c = W d,
where column k of Psi is psi_k(t) = [a_0..a_k] e^{a t} over the nodes,
scaled to max 1 on the circle (_newton_basis); a candidate's objective
m.c is g.d, with g = W^T m over the scales.  At alpha = 0.5i, cond(Psi)
is about 300 at n = 8, cond(exp(t (x) nodes)) 9e16 already at n = 5.

Two reductions keep the LP tractable.  First, rotating all coefficients
by e^{2 pi i/S} permutes the constraint set, so objective phases that
differ by a multiple of 2 pi/S give equal optima; only Q/gcd(S,Q)
residue phases are solved (one, at the defaults).  Second, a dual
bound prunes torus candidates without solving them.  Write Psi = QR and
take lambda = conj(Q) R^{-T} g, the least-squares solution of
Psi^T lambda = g, with residual r = Psi^T lambda - g.  Then
g.d = lambda.f - r.d, and three facts bound it for every point the
sweep can accept:

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
rounding, for every residue phase theta at once.  Candidates are
solved in descending bound order and the sweep stops at the first
whose bound does not exceed the incumbent.  Each surviving LP
activates constraints lazily: violated rows are added until no row of
the full discretization is violated beyond FEASIBILITY_TOL, and the
LP is abandoned as soon as a relaxation value falls to the incumbent.
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
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from types import SimpleNamespace

import numpy as np
from numpy.random import default_rng

from .analytic_bounds import theorem2_bounds
from .construct import build_witness, required_witness_bits, witness_certificate
from .core import (
    DEFAULT_BITS,
    AlphaParam,
    canonical_indices,
    monomial_nodes,
    require_alpha,
    space_dimension,
)


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
    """A working-set LP ended with status 3 (its rows leave the objective
    unbounded) or 4 (any other nonzero HiGHS status, named in the message)."""


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
        if self.torus_points < 8:
            raise ValueError(f"torus_points must be >= 8, got {self.torus_points}")
        if self.phase_samples < 4:
            raise ValueError(f"phase_samples must be >= 4, got {self.phase_samples}")
        if self.circle_points < 8:
            raise ValueError(f"circle_points must be >= 8, got {self.circle_points}")

    def slack(self) -> float:
        """Discretization allowance in the oracle <= lp + slack invariant.

        A feasible P scoring the oracle value has some sampled phase
        within pi/Q of its candidate-point argument, so the LP objective
        sees at least cos(pi/Q) of the oracle's modulus.
        """
        return -math.log(math.cos(math.pi / self.phase_samples))


@dataclass(frozen=True)
class EnEstimate:
    """Three-way estimate report for one (n, alpha)."""

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
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
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
    """

    def __init__(self, psi: np.ndarray, S: int):
        self.psi = psi
        self.M1 = psi.shape[0]
        self.S = S
        self.phases = np.exp(2j * np.pi * np.arange(S) / S)
        # at least one circle point per coefficient, or the first LP is unbounded
        stride = self.M1 // max(_BASE_POINTS, psi.shape[1])
        self.base = {
            i * S + s
            for i in range(0, self.M1, max(1, stride))
            for s in range(0, S, max(1, S // _BASE_DIRECTIONS))
        }
        self.working: set = set()
        ncol = 2 * psi.shape[1]
        self.model = _Highs()
        self.model.setOptionValue("output_flag", False)
        self.model.addVars(ncol, np.full(ncol, -kHighsInf), np.full(ncol, kHighsInf))

    def _rows(self, ids: np.ndarray) -> np.ndarray:
        i, s = ids // self.S, ids % self.S
        u = self.psi[i] * self.phases[s][:, None]
        return np.concatenate([u.real, -u.imag], axis=1)

    def maximize(self, d: np.ndarray, abandon_below: float | None = None) -> float | None:
        """max d.x over the full discretization, via lazy row generation.

        The relaxation value only decreases as cut rows are added, so
        when abandon_below is given and an intermediate solve already
        sits at or under it, the final value cannot beat that incumbent
        and the search stops early, returning None.
        """
        ncoef = d.shape[0] // 2
        # HiGHS's tolerances are absolute; an exact power of two keeps x unchanged
        cost = np.ldexp(-d, -math.frexp(np.abs(d).max())[1])
        new = sorted(self.base - self.working)
        for _ in range(_MAX_ROUNDS):
            self.working.update(new)
            res = linprog(cost, self._rows(np.array(new, dtype=int)), self.model)
            if res.status != 0:
                raise SolverGridError(
                    f"LP not solvable on its working set of {len(self.working)} "
                    f"constraint rows (solver status {res.status}): {res.message}"
                )
            x = res.x
            if abandon_below is not None and float(d @ x) <= abandon_below:
                return None
            cost = None
            f = self.psi @ (x[:ncoef] + 1j * x[ncoef:])
            ang = np.angle(f)
            # nearest polygon direction maximizes Re(e^{i phi_s} f_i) over s
            sstar = np.mod(np.round(-ang * self.S / (2 * np.pi)), self.S).astype(int)
            vals = np.abs(f) * np.cos(ang + 2 * np.pi * sstar / self.S)
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
    scale = (1 + _ACCEPT_TOL) * (1 + gamma) / math.cos(math.pi / S)
    return scale * (np.abs(lam).sum(axis=0) + resid * (math.sqrt(M1) / sigma))


def _dual_bounds(psi: np.ndarray, S: int, rows: np.ndarray) -> np.ndarray:
    """Upper bound on every LP value at each torus row; inf if psi is singular.

    lambda = conj(Q) R^{-T} g from one QR of psi, formed _BOUND_CHUNK
    candidates at a time so the M1 x candidates matrix never exists.
    sigma_min(psi) is that of R less a Householder backward-error
    allowance; when nothing is left, every bound is inf and nothing is
    pruned.
    """
    M1, N = psi.shape
    inf = np.full(len(rows), np.inf)
    if not np.isfinite(psi).all():
        return inf
    Q, R = np.linalg.qr(psi)
    sigma = np.linalg.svd(R, compute_uv=False)[-1] - (
        4 * M1 * N * np.finfo(float).eps * np.linalg.norm(psi)
    )
    if not sigma > 0:
        return inf
    y = np.linalg.solve(R.T, rows.T)
    chunks = (slice(lo, lo + _BOUND_CHUNK) for lo in range(0, len(rows), _BOUND_CHUNK))
    return np.concatenate([
        _dual_certificate(psi, S, sigma, np.conj(Q) @ y[:, c], rows[c].T) for c in chunks
    ])


def _torus_monomials(n: int, M2: int) -> np.ndarray:
    """Monomial vectors m (rows, canonical order) at the M2 x M2 torus grid points."""
    idx = canonical_indices(n)
    zgrid = np.exp(2j * np.pi * np.arange(M2) / M2)
    jpow = np.array([[z ** jk.j for jk in idx] for z in zgrid])
    kpow = np.array([[z ** jk.k for jk in idx] for z in zgrid])
    return (jpow[:, None, :] * kpow[None, :, :]).reshape(M2 * M2, len(idx))


def _newton_basis(a: np.ndarray, M1: int):
    """psi_k(t_i) = [a_0..a_k] e^{a t_i} at M1 circle points, and W with psi = e^{t a} W.

    psi_k(t) = sum_j h_j(a_0..a_k) t^{k+j}/(k+j)!, h_j the complete
    homogeneous symmetric polynomial, h_j(a_0..a_k) = sum_{i<=k} a_i
    h_{j-1}(a_0..a_i).  J = ceil(e rho) + 60 terms suffice, rho = max|a|:
    |h_j| <= C(j+k, k) rho^j, so on |t| = 1 the j-th term is at most
    rho^j/(j! k!) <= (e rho/j)^j/k! and the dropped tail below 2e-26/k!,
    while max|psi_k| >= 1/k! (its t^k coefficient, by Cauchy's estimate).
    W[i,k] = 1/prod_{j<=k, j!=i}(a_i - a_j) for i <= k, else 0.
    """
    K = len(a)
    J = math.ceil(math.e * np.abs(a).max()) + 60
    t = np.exp(2j * np.pi * np.arange(M1) / M1)
    m = np.arange(K + J - 1)
    inv_fact = np.cumprod(np.concatenate([[1.0], 1.0 / m[1:]]))
    # past the float64 range the table and psi hold inf and nan quietly;
    # _lp_problem's finiteness check raises SolverGridError on them
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.ones((J, K), dtype=np.complex128)
        for j in range(1, J):
            h[j] = np.cumsum(a * h[j - 1])
        band = np.zeros((K + J - 1, K), dtype=np.complex128)
        band[np.arange(J)[:, None] + np.arange(K), np.arange(K)] = h
        psi = (t[np.outer(np.arange(M1), m) % M1] * inv_fact) @ band
    D = a[:, None] - a[None, :] + np.eye(K)
    return psi, np.triu(1 / np.cumprod(D, axis=1))


def _lp_problem(n: int, alpha: AlphaParam, cfg: LPConfig, bits: int):
    """Newton matrix Psi, columns scaled to max 1, and torus rows g = W^T m over the scales."""
    psi, W = _newton_basis(_nodes_f64(n, alpha, bits), cfg.circle_points)
    scale = np.abs(psi).max(axis=0)
    if not (np.isfinite(scale) & (scale > 0)).all():
        raise SolverGridError(f"the Newton basis leaves the float64 range at n = {n}")
    return psi / scale, (_torus_monomials(n, cfg.torus_points) @ W) / scale


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
    bounds = _dual_bounds(psi, S, rows)

    # A candidate whose bound does not exceed the incumbent cannot be
    # accepted above it, and neither can any later one in this order.
    best = -math.inf
    for p in np.argsort(-bounds, kind="stable"):
        if bounds[p] <= best:
            break
        for dm in rows[p] * rotations:
            val = lp.maximize(np.concatenate([dm.real, -dm.imag]), abandon_below=best)
            if val is not None and val > best:
                best = val
    if best <= 0:
        raise SolverGridError("LP produced a nonpositive maximum; grid degenerate")
    return math.log(best)


def en_random_search(
    n: int,
    alpha: AlphaParam,
    trials: int,
    seed: int,
    grid_points: int = 32,
    bits: int = DEFAULT_BITS,
) -> float:
    """Best score ln(bidisk grid max / first-order K bound) over sampled P.

    Scores the deterministic candidates z, w and the witness, then
    `trials` coefficient vectors drawn as standard normals in
    R^{2(N+1)}; the score is scale invariant, so their directions are
    uniform on the unit sphere.  The bidisk maximum is taken over the
    LP's torus grid with grid_points per axis, and ||P||_K is bounded by
    grid_max + (pi/M) sum |c||a|e^{|a|} over the LP's circle grid of
    M = _ORACLE_CIRCLE_POINTS points.  That K bound is first order and
    evaluated in float64 with no rounding allowance, so the score is an
    estimate of a lower bound on e_n(alpha), not a certified one.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    require_alpha(alpha)
    idx = canonical_indices(n)
    ncoef = len(idx)
    nodes = _nodes_f64(n, alpha, bits)
    t = np.exp(2j * np.pi * np.arange(_ORACLE_CIRCLE_POINTS) / _ORACLE_CIRCLE_POINTS)
    E = np.exp(np.outer(t, nodes))
    mono = _torus_monomials(n, grid_points)
    deriv_weight = (np.pi / _ORACLE_CIRCLE_POINTS) * np.abs(nodes) * np.exp(np.abs(nodes))

    witness = build_witness(n, alpha, max(bits, required_witness_bits(n)))
    fixed = np.zeros((3, ncoef), dtype=np.complex128)
    fixed[0, idx.index((1, 0))] = 1.0
    fixed[1, idx.index((0, 1))] = 1.0
    fixed[2] = [complex(witness.p.coefficient(jk.j, jk.k)) for jk in idx]
    v = default_rng(seed).standard_normal((trials, 2 * ncoef))
    cols = np.concatenate([fixed, v[:, :ncoef] + 1j * v[:, ncoef:]]).T

    best = -math.inf
    for lo in range(0, cols.shape[1], _BOUND_CHUNK):
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
    """
    lo, up = theorem2_bounds(n, alpha, bits)
    wbits = max(bits, required_witness_bits(n))
    _, _, _, wlower = witness_certificate(n, alpha, bits=wbits)
    lp_val = en_lp_estimate(n, alpha, cfg, bits, max_degree)
    oracle_val = en_random_search(
        n, alpha, trials, seed, grid_points=cfg.torus_points, bits=bits
    )
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
