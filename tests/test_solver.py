"""Solver tests: LP relaxation, random-search oracle, bracket assembly.

Small discretizations keep each LP run under a second while still
exercising the full row-generation machinery; the default-config runs
live in the acceptance suite.
"""

import math
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from mpmath import mp
from scipy.optimize import linprog

from bwexp import construct, solver
from bwexp.construct import divided_difference_weights
from bwexp.core import (
    MultiIndex,
    Poly2,
    canonical_indices,
    make_alpha,
    monomial_nodes,
    space_dimension,
)
from bwexp.norms import unit_roots
from bwexp.solver import (
    FEASIBILITY_TOL,
    EnEstimate,
    LPConfig,
    SolverGridError,
    _dual_certificate,
    _DualBounds,
    _lp_problem,
    _newton_basis,
    _nodes_f64,
    _torus_monomials,
    _WorkingSetLP,
    en_bracket,
    en_lp_estimate,
    en_random_search,
    phase_residues,
)

SEED = 20240816
SMALL = LPConfig(circle_points=64, polygon_sides=16, torus_points=8, phase_samples=8)
A05 = make_alpha(0.0, 0.5)


def test_lpconfig_defaults_and_validation():
    cfg = LPConfig()
    assert (cfg.circle_points, cfg.polygon_sides, cfg.torus_points,
            cfg.phase_samples) == (512, 64, 32, 16)
    with pytest.raises(ValueError):
        LPConfig(polygon_sides=7)
    with pytest.raises(ValueError):
        LPConfig(torus_points=4)
    with pytest.raises(ValueError):
        LPConfig(phase_samples=2)
    with pytest.raises(ValueError):
        LPConfig(circle_points=4)


def test_slack_formula():
    assert LPConfig().slack() == pytest.approx(
        -math.log(math.cos(math.pi / 16)), abs=1e-15
    )
    # more phases, thinner allowance
    assert LPConfig(phase_samples=32).slack() < LPConfig(phase_samples=8).slack()


def test_phase_residues_symmetry_reduction():
    # defaults: S divides the phase lattice down to a single objective
    assert phase_residues(64, 16) == [0.0]
    assert phase_residues(8, 8) == [0.0]
    # gcd(8, 12) = 4: three distinct residues inside [0, 2pi/S)
    got = phase_residues(8, 12)
    assert len(got) == 12 // math.gcd(8, 12)
    assert all(0 <= t < 2 * math.pi / 8 for t in got)
    want = [2 * math.pi * r / 96 for r in (0, 4, 8)]
    assert got == pytest.approx(want, abs=1e-15)


def test_lp_guard_errors():
    with pytest.raises(ValueError):
        en_lp_estimate(0, A05, SMALL)
    with pytest.raises(ValueError):
        en_lp_estimate(9, A05)  # default degree guard
    with pytest.raises(ValueError):
        # circle grid below 4N for n=3 (N = 9)
        en_lp_estimate(3, A05, LPConfig(circle_points=32, polygon_sides=16,
                                        torus_points=8, phase_samples=8))
    with pytest.raises(ValueError):
        en_lp_estimate(1, make_alpha(0.5, 0.0), SMALL)
    # the Newton table overflows at |alpha| = 60, its scales underflow at
    # n = 20, and W's entries leave the float64 range at n = 11, 1e-30i;
    # the nodes at 1e-200i coincide at 256 bits.  The error is the only
    # report, with no NumPy warning and no HiGHS solve before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverGridError, match="float64 range"):
            en_lp_estimate(3, make_alpha(0.0, 60.0), SMALL)
        with pytest.raises(SolverGridError, match="float64 range"):
            en_lp_estimate(20, A05, LPConfig(circle_points=1024), max_degree=20)
        with pytest.raises(SolverGridError, match="float64 range"):
            en_lp_estimate(11, make_alpha(0.0, 1e-30), max_degree=11)
        with pytest.raises(ValueError, match="coincide to working precision"):
            en_lp_estimate(2, make_alpha(0.0, 1e-200), SMALL)
    assert [str(w.message) for w in caught] == []


def test_lp_small_config_frozen_value():
    # pinned by an independent run of the same discretization
    got = en_lp_estimate(1, A05, SMALL)
    assert got == pytest.approx(2.2355737734393291, abs=1e-9)


def test_lp_within_analytic_bracket():
    val = en_lp_estimate(1, A05, SMALL)
    # theorem window for n=1: [-1, 8.6931]; the relaxation sits inside
    assert -1.0 - 1e-9 <= val <= 8.693147180559945 + 1e-6


def test_lp_monotone_under_circle_doubling():
    # constraint grids nest (angles k/M), so doubling M1 only shrinks
    for n in (1, 2, 4):
        coarse = en_lp_estimate(n, A05, SMALL)
        fine = en_lp_estimate(
            n, A05, LPConfig(circle_points=128, polygon_sides=16,
                             torus_points=8, phase_samples=8)
        )
        assert fine <= coarse + 1e-8, f"n={n}: {fine} > {coarse}"


@pytest.mark.parametrize("alpha", [A05, make_alpha(0.3, 0.4)], ids=str)
def test_lp_monotone_under_torus_doubling(alpha):
    # torus grids nest (angles k/M2), so doubling M2 only adds candidates;
    # a non-multiple need not (12 -> 16 lowers n = 2 at 0.5i on 64/16)
    for n in (1, 2, 3):
        vals = [en_lp_estimate(n, alpha, replace(SMALL, torus_points=m)) for m in (8, 16, 32)]
        assert vals[0] <= vals[1] + 1e-8 and vals[1] <= vals[2] + 1e-8, f"n={n}: {vals}"


def test_lp_solves_degree_four_on_a_coarse_grid():
    # a coarse grid at n = 4; the value was first pinned in the monomial
    # basis exp(t * nodes), where this grid solved and the default did not
    val = en_lp_estimate(4, make_alpha(0.0, 0.9), LPConfig(circle_points=64, polygon_sides=16))
    assert val == pytest.approx(19.998292560750425, abs=1e-6)


@pytest.mark.parametrize("n", range(1, 9))
def test_newton_weights_are_divided_difference_weights(n):
    # W's last column is the divided difference over all nodes
    for alpha in (A05, make_alpha(0.1, 0.1)):
        _, W = _newton_basis(_nodes_f64(n, alpha, 256), 64, 256)
        ref = np.array([complex(w) for w in divided_difference_weights(
            [e.value for e in monomial_nodes(n, alpha)])])
        assert np.abs(W[:, -1] - ref).max() <= 1e-13 * np.abs(ref).max(), alpha


def _exact_newton_weight(nodes, i, k):
    """1/prod_{j<=k, j!=i}(a_i - a_j) over float64 nodes, each part rounded once."""
    re, im = Fraction(1), Fraction(0)
    for j in range(k + 1):
        if j != i:
            u = Fraction(nodes[i].real) - Fraction(nodes[j].real)
            v = Fraction(nodes[i].imag) - Fraction(nodes[j].imag)
            re, im = re * u - im * v, re * v + im * u
    norm = re * re + im * im
    return complex(float(re / norm), float(-im / norm))


@pytest.mark.parametrize("n, alpha", [(3, A05), (3, make_alpha(-0.2, 0.6)), (8, make_alpha(0.1, 0.1))],
                         ids=str)
def test_newton_weights_are_rounded_once(n, alpha):
    # every entry of W is its exact value over the float64 nodes, rounded
    # once; a float64 product of the differences misses it by up to 16 ulps
    # of |W[i, k]| at n = 8, 0.1+0.1i
    nodes = _nodes_f64(n, alpha, 256)
    _, W = _newton_basis(nodes, 64, 256)
    want = np.zeros_like(W)
    for k in range(len(nodes)):
        for i in range(k + 1):
            want[i, k] = _exact_newton_weight(nodes, i, k)
    assert np.array_equal(W, want)


def test_conjugated_nodes_give_conjugated_weights():
    # the exactness en_bracket's conjugate pairs rely on: W and the witness
    # weights of conj(alpha) are bit for bit the conjugates of alpha's
    for re, im in ((0.0, 0.5), (0.3, 0.4), (-0.2, 0.6)):
        alpha, conj = make_alpha(re, im), make_alpha(re, -im)
        for n in (1, 3, 5):
            _, W = _newton_basis(_nodes_f64(n, alpha, 256), 64, 256)
            _, Wc = _newton_basis(_nodes_f64(n, conj, 256), 64, 256)
            assert np.array_equal(Wc, np.conj(W)), (alpha, n)
            w = divided_difference_weights([e.value for e in monomial_nodes(n, alpha)])
            wc = divided_difference_weights([e.value for e in monomial_nodes(n, conj)])
            with mp.workprec(256):
                assert wc == [mp.conj(c) for c in w], (alpha, n)


@pytest.mark.parametrize("alpha", [(0.0, 0.5), (0.1, 0.1), (0.0, 0.9)])
def test_newton_basis_at_degree_eight(alpha):
    # the columns against E W in mpmath at 64 + 16N bits, where the
    # cancellation of exp(t * nodes) is harmless; and the scaled matrix
    # is well conditioned where exp(t * nodes) is singular in float64
    a = make_alpha(*alpha)
    N = space_dimension(8)
    psi, _ = _newton_basis(_nodes_f64(8, a, 256), 512, 256)
    with mp.workprec(64 + 16 * N):
        nodes = [e.value for e in monomial_nodes(8, a, 64 + 16 * N)]
        ts = [mp.expjpi(mp.mpf(i) / 256) for i in range(0, 512, 64)]
        for k in range(N + 1):
            w = divided_difference_weights(nodes[:k + 1], 64 + 16 * N)
            ref = np.array([complex(mp.fsum(c * mp.exp(x * t) for c, x in zip(w, nodes)))
                            for t in ts])
            err = np.abs(psi[::64, k] - ref).max()
            assert err <= 1e-12 * np.abs(ref).max(), (k, err)
    assert np.linalg.cond(psi / np.abs(psi).max(axis=0)) < 1e4


def test_lp_solves_high_degrees_on_the_default_grid():
    # values of an independent mpmath Newton-basis prototype
    assert en_lp_estimate(4, A05) == pytest.approx(23.536547, abs=1e-6)
    assert en_lp_estimate(8, A05) == pytest.approx(96.658499, abs=1e-6)


def test_lp_solves_every_grid_at_a_small_alpha():
    # n = 3 at 0.1+0.1i failed with status 4 on half of these grids in
    # the monomial basis; doubling the circle grid only shrinks the value
    a = make_alpha(0.1, 0.1)
    vals = {
        grid: en_lp_estimate(3, a, LPConfig(circle_points=grid[0], polygon_sides=grid[1]))
        for grid in [(512, 64), (1024, 64), (256, 64), (256, 32), (128, 32), (64, 16)]
    }
    assert vals[1024, 64] <= vals[512, 64] + 1e-8
    assert vals[512, 64] <= vals[256, 64] + 1e-8


def test_highs_solves_per_degree_on_the_default_grid(monkeypatch):
    # one HiGHS solve per working set: 5, 11 and 13 solves at n = 1, 2, 3
    real = solver.linprog
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "linprog", counting)
    counts = []
    for n in (1, 2, 3):
        calls.clear()
        en_lp_estimate(n, A05)
        counts.append(len(calls))
    assert counts == [5, 11, 13]


def _converged_values(n, alpha, cfg):
    """Every torus point's LP value, each residue phase solved to convergence.

    The exhaustive reference for the pruned sweep: no candidate is
    skipped and none is abandoned.
    """
    E, mono = _lp_problem(n, alpha, cfg, 256)
    lp = _WorkingSetLP(E, cfg.polygon_sides)
    thetas = phase_residues(cfg.polygon_sides, cfg.phase_samples)
    values = np.array([
        max(
            lp.maximize(np.concatenate([dm.real, -dm.imag]))
            for dm in m * np.exp(1j * np.array(thetas))[:, None]
        )
        for m in mono
    ])
    return E, mono, values


@pytest.mark.parametrize("alpha", [(0.0, 0.5), (0.0, -0.5), (0.3, 0.4)])
def test_pruning_matches_exhaustive_sweep(alpha):
    a = make_alpha(*alpha)
    S = SMALL.polygon_sides
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3):
        E, mono, values = _converged_values(n, a, SMALL)
        assert en_lp_estimate(n, a, SMALL) == pytest.approx(
            math.log(values.max()), abs=1e-9
        ), f"n={n}"
        # each tier bounds every converged value, and the O(N) bound the
        # least-squares certificate it stands for
        duals = _DualBounds(E, S, mono)
        least = np.array([duals.least_squares(p) for p in range(len(mono))])
        assert np.all(duals.bounds >= least), f"n={n}: O(N) bound below its certificate"
        assert np.all(least >= values), f"n={n}: bound below a converged value"
        # the support tier holds on any support, not only the incumbent's
        duals.set_support(sorted(rng.choice(SMALL.circle_points, 2 * E.shape[1], replace=False)))
        wrong = np.array([duals.on_support(p) for p in range(len(mono))])
        assert np.all(np.isfinite(wrong)) and np.all(wrong >= values), f"n={n}"
        # the certificate holds for any weights, not only least-squares
        # ones: with half the weights the residual term carries the rest
        lam = np.linalg.lstsq(E.T, mono.T, rcond=None)[0]
        sigma = np.linalg.svd(E, compute_uv=False)[-1] / 2
        assert np.all(_dual_certificate(E, S, sigma, lam / 2, mono.T) >= values)


def test_dual_bounds_singular_basis_prunes_nothing(monkeypatch):
    E, mono = _lp_problem(2, A05, SMALL, 256)
    S = SMALL.polygon_sides
    singular = E.copy()
    singular[:, -1] = singular[:, 0]
    near = E.copy()
    near[:, -1] = near[:, 0] + 1e-14 * near[:, 1]
    overflow = E.copy()
    overflow[0, -1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (singular, near, overflow):
            duals = _DualBounds(bad, S, mono)
            duals.set_support(list(range(SMALL.circle_points)))
            assert np.all(np.isinf(duals.bounds))
            assert [duals.least_squares(p) for p in (0, 5)] == [math.inf] * 2
            assert duals.on_support(0) == math.inf

    real = solver._DualBounds

    def singular_bounds(E, S, mono):
        bad = E.copy()
        bad[:, -1] = bad[:, 0]
        return real(bad, S, mono)

    monkeypatch.setattr(solver, "_DualBounds", singular_bounds)
    _, _, values = _converged_values(2, A05, SMALL)
    assert en_lp_estimate(2, A05, SMALL) == pytest.approx(
        math.log(values.max()), abs=1e-9
    )


@pytest.mark.parametrize("alpha", [(0.0, 0.5), (0.3, 0.4)])
def test_working_set_matches_cold_full_grid_solve(alpha):
    # an independent reference for the persistent, hot-started model: one
    # cold linprog over all M1*S rows per torus point (SMALL solves one
    # phase).  Two cold HiGHS solves of the same rows, presolve on and
    # off, differ by up to 6.4e-9 relative at n = 3, so the values are
    # compared at 1e-8 and not at that rounding level
    a = make_alpha(*alpha)
    S = SMALL.polygon_sides
    tolerances = {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}
    for n in (1, 2, 3):
        E, mono = _lp_problem(n, a, SMALL, 256)
        lp = _WorkingSetLP(E, S)
        rows = lp._rows(np.arange(SMALL.circle_points * S))
        for p, m in enumerate(mono):
            d = np.concatenate([m.real, -m.imag])
            ref = linprog(-d, A_ub=rows, b_ub=np.ones(len(rows)), bounds=(None, None),
                          method="highs", options=tolerances)
            assert ref.status == 0
            assert lp.maximize(d) == pytest.approx(-ref.fun, rel=1e-8), (n, p)


@pytest.mark.parametrize("n", range(1, 9))
def test_torus_rows_read_one_root_per_phase(n):
    # z^j w^k at (w^a, w^b) is the table entry at phase (a j + b k) mod M,
    # the value norm_on_bidisk evaluates, not a product of complex powers
    for M in (8, 12, 32):
        roots = unit_roots(M)
        ref = [[roots[(a * jk.j + b * jk.k) % M] for jk in canonical_indices(n)]
               for a in range(M) for b in range(M)]
        assert np.array_equal(_torus_monomials(n, M), np.array(ref)), M


@pytest.mark.parametrize("alpha", [(0.0, 0.5), (0.3, 0.4)])
def test_accepted_points_satisfy_every_row(monkeypatch, alpha):
    # the acceptance scan scores each circle point by the row it would
    # add; at every point it accepts, each row of the full discretization
    # outside the working set, as the model holds it, is within tolerance
    a = make_alpha(*alpha)
    real = _WorkingSetLP.maximize
    accepted = []

    def checked(lp, d, abandon_below=-math.inf):
        val = real(lp, d, abandon_below)
        if val is not None:
            x = np.array(lp.model.getSolution().col_value)
            ids = np.arange(lp.M1 * lp.S)
            outside = ids[~np.isin(ids, sorted(lp.working))]
            assert (lp._rows(outside) @ x).max() <= 1 + FEASIBILITY_TOL
            accepted.append(val)
        return val

    monkeypatch.setattr(_WorkingSetLP, "maximize", checked)
    for n in (1, 2, 3):
        en_lp_estimate(n, a, SMALL)
    assert accepted


def test_unbounded_working_set_raises_status_3():
    # no mocks: one circle point leaves the 2(N+1) free columns unbounded
    E, mono = _lp_problem(2, A05, SMALL, 256)
    lp = _WorkingSetLP(E[:1], SMALL.polygon_sides)
    m = mono[1]
    with pytest.raises(SolverGridError, match="solver status 3"):
        lp.maximize(np.concatenate([m.real, -m.imag]))


@pytest.mark.parametrize("status", [4, 3])
@pytest.mark.parametrize("k", [1, 4])
def test_nonzero_status_raises_at_once(monkeypatch, status, k):
    # each working set gets one HiGHS solve: the first nonzero status ends
    # the estimate, with no retry and no wider working set after it
    real = solver.linprog
    calls = []

    def failing_on_kth(*args, **kwargs):
        calls.append(kwargs)
        res = real(*args, **kwargs)
        if len(calls) == k:
            res.status, res.x = status, None
        return res

    monkeypatch.setattr(solver, "linprog", failing_on_kth)
    with pytest.raises(SolverGridError, match=f"solver status {status}"):
        en_lp_estimate(1, A05, SMALL)
    assert len(calls) == k


def test_binding_is_scipys_own_when_bwexp_imported_first():
    # the order of a script that imports bwexp before SciPy: the extension
    # solver loaded from its file is the one scipy.optimize then imports,
    # and SciPy's own linprog still works after it
    script = (
        "import sys\n"
        "import bwexp.solver\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "import scipy.optimize\n"
        "from scipy.optimize._highspy._core import _Highs\n"
        "assert bwexp.solver._Highs is _Highs\n"
        "assert scipy.optimize.linprog([1.0], bounds=[(0, 1)]).status == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=Path(solver.__file__).parents[1])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("alpha", [(0.0, 0.5), (0.3, 0.4)])
def test_lp_conjugate_symmetry(alpha):
    # t -> conj t maps the curve for alpha onto the one for conj alpha
    a, conj = make_alpha(*alpha), make_alpha(alpha[0], -alpha[1])
    for n in (1, 2, 3, 4):
        assert en_lp_estimate(n, a, SMALL) == pytest.approx(
            en_lp_estimate(n, conj, SMALL), abs=1e-9
        ), f"n={n}"


def test_bracket_of_conj_alpha_is_the_bracket_of_alpha():
    # en_bracket answers Im alpha < 0 with the bracket of conj(alpha);
    # test_lp_conjugate_symmetry and the conjugate-symmetry verify suite
    # compare the two sides computed directly
    a, conj = make_alpha(0.3, 0.4), make_alpha(0.3, -0.4)
    est = en_bracket(2, conj, SMALL, trials=10, seed=0)
    assert est == replace(en_bracket(2, a, SMALL, trials=10, seed=0), alpha=conj)
    with pytest.raises(ValueError, match=r"\(alpha = 0\.9-0\.9i\)"):
        en_bracket(1, make_alpha(0.9, -0.9), SMALL)


def test_lp_deterministic():
    a = en_lp_estimate(2, A05, SMALL)
    b = en_lp_estimate(2, A05, SMALL)
    assert a == b


def test_oracle_deterministic_and_seed_dependent():
    v1 = en_random_search(2, A05, 500, seed=7, grid_points=8)
    v2 = en_random_search(2, A05, 500, seed=7, grid_points=8)
    assert v1 == v2
    # a different seed draws different samples; the max may coincide
    # (deterministic candidates often win) but must stay a lower bound
    v3 = en_random_search(2, A05, 500, seed=8, grid_points=8)
    assert v3 <= 34.772588722239782 + 1e-6


def test_oracle_trials_zero_uses_seeded_candidates():
    # with no random samples the max runs over {z, w, witness}; the z
    # candidate alone gives about ln(1/e) = -1 up to grid slack
    val = en_random_search(1, A05, 0, seed=0, grid_points=8)
    assert val >= -1.0 - 0.05


def test_oracle_within_theorem_window():
    val = en_random_search(2, A05, 10_000, seed=42, grid_points=8)
    lo, up = -2.6137056388801092, 34.772588722239782
    assert lo - 0.05 <= val <= up + 1e-6


def test_oracle_validation():
    with pytest.raises(ValueError):
        en_random_search(0, A05, 10, seed=0)
    with pytest.raises(ValueError):
        en_random_search(1, A05, -1, seed=0)
    with pytest.raises(ValueError):
        en_random_search(1, make_alpha(0.5, 0.0), 10, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        en_random_search(1, A05, 10, seed=-1)


def test_bracket_rejects_trials_and_seed_before_the_lp(monkeypatch):
    # the oracle checks its inputs before the LP and the certificate run
    monkeypatch.setattr(solver, "en_lp_estimate", None)
    monkeypatch.setattr(solver, "witness_certificate", None)
    with pytest.raises(ValueError, match="trials must be >= 0"):
        solver.en_bracket(8, A05, trials=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        solver.en_bracket(8, A05, seed=-1)


def test_bracket_builds_one_witness(monkeypatch):
    # the oracle scores the witness the certificate built
    calls = []

    def counting(real):
        def build(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)
        return build

    monkeypatch.setattr(construct, "build_witness", counting(construct.build_witness))
    monkeypatch.setattr(solver, "build_witness", counting(solver.build_witness))
    for n in (1, 2):
        calls.clear()
        est = en_bracket(n, A05, SMALL, trials=10, seed=0)
        assert calls == [(n, A05)]
        assert est.oracle_log_value == en_random_search(n, A05, 10, 0, grid_points=SMALL.torus_points)


def _reference_random_search(n, alpha, trials, seed, grid_points, bits=256):
    """The oracle scored one candidate per call, with its own grids."""
    idx = canonical_indices(n)
    ncoef = len(idx)
    nodes = _nodes_f64(n, alpha, bits)
    zgrid = np.exp(2j * np.pi * np.arange(grid_points) / grid_points)
    B = np.empty((grid_points * grid_points, ncoef), dtype=np.complex128)
    for p, jk in enumerate(idx):
        B[:, p] = np.outer(zgrid**jk.j, zgrid**jk.k).ravel()
    MK = 512
    EK = np.exp(np.outer(np.exp(2j * np.pi * np.arange(MK) / MK), nodes))
    deriv_weight = np.abs(nodes) * np.exp(np.abs(nodes))

    def score(c):
        certk = np.abs(EK @ c).max() + (np.pi / MK) * float(np.abs(c) @ deriv_weight)
        return math.log(np.abs(B @ c).max()) - math.log(certk)

    fixed = [np.zeros(ncoef, dtype=np.complex128) for _ in range(2)]
    fixed[0][idx.index((1, 0))] = 1.0
    fixed[1][idx.index((0, 1))] = 1.0
    witness = solver.build_witness(n, alpha, bits)
    fixed.append(np.array([complex(witness.p.coefficient(jk.j, jk.k)) for jk in idx]))
    best = max(score(c) for c in fixed)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        v = rng.standard_normal(2 * ncoef)
        v /= math.sqrt(float(v @ v))
        best = max(best, score(v[:ncoef] + 1j * v[ncoef:]))
    return best


@pytest.mark.parametrize("grid_points", [8, 16])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_matches_per_trial_reference(monkeypatch, n, grid_points):
    # with z in place of the witness the random trials beat the fixed
    # candidates, so a changed draw order changes the value
    monkeypatch.setattr(solver, "build_witness", lambda n, alpha, bits: SimpleNamespace(
        p=Poly2(n, {MultiIndex(1, 0): 1.0})))
    fixed_only = en_random_search(n, A05, 0, seed=0, grid_points=grid_points)
    for trials in (0, 50, 200):
        for seed in (0, 7):
            got = en_random_search(n, A05, trials, seed=seed, grid_points=grid_points)
            want = _reference_random_search(n, A05, trials, seed, grid_points)
            assert got == pytest.approx(want, abs=1e-12), (trials, seed)
            if trials == 200:
                assert got > fixed_only + 1e-6, seed


def _chunk_loop_reference(n, alpha, trials, seed, grid_points, witness, bits=256):
    """The oracle scoring every chunk of 64 candidates, none skipped."""
    idx = canonical_indices(n)
    ncoef = len(idx)
    nodes = _nodes_f64(n, alpha, bits)
    t = np.exp(2j * np.pi * np.arange(512) / 512)
    E = np.exp(np.outer(t, nodes))
    mono = _torus_monomials(n, grid_points)
    deriv_weight = (np.pi / 512) * np.abs(nodes) * np.exp(np.abs(nodes))
    fixed = np.zeros((3, ncoef), dtype=np.complex128)
    fixed[0, idx.index((1, 0))] = 1.0
    fixed[1, idx.index((0, 1))] = 1.0
    fixed[2] = [complex(witness.p.coefficient(jk.j, jk.k)) for jk in idx]
    v = np.random.default_rng(seed).standard_normal((trials, 2 * ncoef))
    cols = np.concatenate([fixed, v[:, :ncoef] + 1j * v[:, ncoef:]]).T
    best = -math.inf
    for lo in range(0, cols.shape[1], 64):
        c = cols[:, lo:lo + 64]
        top = np.abs(mono @ c).max(axis=0)
        certk = np.abs(E @ c).max(axis=0) + deriv_weight @ np.abs(c)
        best = max(best, float(np.max(np.log(top) - np.log(certk))))
    return best


class _CountingMatrix(np.ndarray):
    """A matrix that counts the products taken with it on the left."""

    products = 0

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return self.view(np.ndarray) @ other


def test_oracle_skips_only_chunks_that_cannot_win(monkeypatch):
    # skipped chunks change no bit of the value, also where random trials
    # win (z in place of the witness); on the solve-default inputs the
    # deterministic candidates win by far and only their chunk is scored
    for re, im in ((0.0, 0.5), (0.3, 0.4), (0.0, 3.0), (0.5, 0.05)):
        alpha = make_alpha(re, im)
        for n in (1, 2, 3):
            z = SimpleNamespace(p=Poly2(n, {MultiIndex(1, 0): 1.0}))
            w = construct.build_witness(n, alpha, 256)
            for witness, trials, seed, grid in ((w, 1000, 1, 32), (w, 200, 7, 16), (z, 2000, 3, 16)):
                got = en_random_search(n, alpha, trials, seed, grid_points=grid, witness=witness)
                want = _chunk_loop_reference(n, alpha, trials, seed, grid, witness)
                assert repr(got) == repr(want), (re, im, n, trials)
    monkeypatch.setattr(solver, "_torus_monomials", lambda n, M2: _torus_monomials(n, M2).view(_CountingMatrix))
    for n in (1, 2, 3):
        for seed in (0, 1, 2):
            _CountingMatrix.products = 0
            en_random_search(n, A05, 1000, seed)
            assert _CountingMatrix.products == 1, (n, seed)


def test_base_pattern_spans_the_coefficients():
    # fewer circle points than coefficients leave the first LP unbounded
    cfg = LPConfig()
    for n in range(1, 9):
        E, _ = _lp_problem(n, A05, cfg, 256)
        lp = _WorkingSetLP(E, cfg.polygon_sides)
        points = {row // cfg.polygon_sides for row in lp.base}
        assert len(points) >= space_dimension(n) + 1, n


def test_bracket_small_config_invariants():
    est = en_bracket(1, A05, SMALL, trials=100, seed=0)
    assert isinstance(est, EnEstimate)
    assert est.analytic_lower == pytest.approx(-1.0, abs=1e-12)
    assert est.analytic_upper == pytest.approx(8.693147180559945, abs=1e-12)
    assert est.oracle_log_value <= est.lp_log_value + est.config.slack() + 1e-9
    assert est.witness_log_value <= est.analytic_upper + 1e-6
    assert est.oracle_log_value <= est.analytic_upper + 1e-6
    assert est.flags == ()
    assert est.ok


def test_bracket_feasible_point_soundness_small():
    # every lower estimate stays under the analytic ceiling
    for n in (1, 2):
        for alpha in (A05, make_alpha(0.3, 0.4)):
            est = en_bracket(n, alpha, SMALL, trials=50, seed=3)
            assert est.witness_log_value <= est.analytic_upper + 1e-6
            assert est.oracle_log_value <= est.analytic_upper + 1e-6
            assert est.flags == ()


def test_bracket_lp_dominates_seeded_oracle():
    # the normalized witness (an oracle candidate) is feasible, so the
    # LP value cannot sit below any candidate ratio by more than the
    # phase-discretization allowance
    cand = en_random_search(2, A05, 0, seed=0, grid_points=SMALL.torus_points)
    lp = en_lp_estimate(2, A05, SMALL)
    assert cand <= lp + SMALL.slack() + 1e-9


def test_bracket_propagates_guard():
    with pytest.raises(ValueError):
        en_bracket(9, A05, SMALL)
    # the guard is the max_degree parameter, not a hard-coded cap
    with pytest.raises(ValueError):
        en_bracket(2, A05, SMALL, max_degree=1)
    N = space_dimension(2)
    assert SMALL.circle_points >= 4 * N  # sanity: n=2 runs under SMALL
    est = en_bracket(2, A05, SMALL, trials=10, seed=0, max_degree=2)
    assert est.flags == ()
