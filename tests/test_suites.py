"""The verify harness: suites yield one verdict per case, run_suites counts."""

import pytest
from mpmath import mp

from bwexp import construct, suites
from bwexp.core import make_alpha
from bwexp.analytic_bounds import INEQUALITIES
from bwexp.norms import NormEstimate

BITS = 256


def test_run_suites_counts_verdicts(monkeypatch):
    calls = []

    def passing(level, bits):
        calls.append((level, bits))
        yield from (None, None)

    def failing(level, bits):
        yield from (None, "case 2: first", None, "case 4: second")

    monkeypatch.setattr(suites, "SUITES", {"passing": passing, "failing": failing})
    results = suites.run_suites("full", 128)
    assert calls == [("full", 128)]
    assert [(r.name, r.cases, r.failures, r.first_failure, r.ok) for r in results] == [
        ("passing", 2, 0, None, True),
        ("failing", 4, 2, "case 2: first", False),
    ]
    assert all(r.seconds >= 0 for r in results)
    with pytest.raises(ValueError, match="level"):
        suites.run_suites("exhaustive")


def test_suite_witness_reports_a_failed_build(monkeypatch):
    # a witness that misses its residual check is one failed case, and the
    # next degree still runs
    build = construct.build_witness

    def failing_at_two(n, alpha, bits):
        if n == 2:
            raise ValueError("power-sum residual too large; increase precision")
        return build(n, alpha, bits)

    monkeypatch.setattr(construct, "build_witness", failing_at_two)
    verdicts = list(suites.suite_witness("quick", BITS))
    assert len(verdicts) == 9  # n = 1 and 3: a residual case and three radii each
    assert [v for v in verdicts if v is not None] == [
        "n=2: power-sum residual too large; increase precision"
    ]


def test_norm_refinement_fails_a_case_once(monkeypatch):
    # at M = 128 the grid max lies above its certificate and below the
    # M = 64 grid max: two broken checks, one failed case
    one, half, quarter = mp.mpf(1), mp.mpf("0.5"), mp.mpf("0.25")
    fake = {64: NormEstimate(one, one), 128: NormEstimate(half, quarter), 256: NormEstimate(one, one)}
    monkeypatch.setattr(suites, "norm_on_K", lambda p, alpha, M, bits: fake[M])
    verdicts = list(suites.suite_norm_refinement("quick", BITS))
    failed = [v for v in verdicts if v is not None]
    assert len(verdicts) == 18
    assert len(failed) == 6  # n = 1, 2 with three polynomials each
    assert all(v.endswith("M=128: grid above certificate") for v in failed)


def test_inequality_scan_counts_the_n_it_scanned(monkeypatch):
    # the scan stops at its first violation, so the n past it are not cases;
    # each n reports the first row of the table that fails there
    check = "n < 7"
    monkeypatch.setattr(suites, "INEQUALITIES",
                        INEQUALITIES[:2] + ((check, lambda n, *_: n < 7),) + INEQUALITIES[2:])
    verdicts = list(suites.suite_inequalities("quick", BITS))
    assert verdicts == [None] * 6 + [f"n=7: {check}"]
    # no working-precision context is held while the scan is suspended
    prec = mp.prec
    scan = suites.suite_inequalities("quick", prec + 64)
    next(scan)
    assert mp.prec == prec


def test_annihilator_identity_holds_at_the_least_precision():
    # the annihilator is expanded, applied and evaluated at its target
    # exactly and rounded once, so 64 bits leave no isolation residual
    # above the suite's 2^(4-bits), also at n = 8, alpha = 0.5 + 2^-10 i
    # and 0.5 + 2^-40 i, where the nodes crowd in pairs
    assert [v for v in suites.suite_annihilator("full", 64) if v is not None] == []


def test_conjugate_symmetry_computes_both_sides(monkeypatch):
    # an LP that reads the sign of Im alpha fails the LP cases, and only them
    real = suites.en_lp_estimate

    def skewed(n, alpha, cfg, bits):
        return real(n, alpha, cfg, bits) + (1e-6 if alpha.im < 0 else 0.0)

    monkeypatch.setattr(suites, "en_lp_estimate", skewed)
    verdicts = list(suites.suite_conjugate_symmetry("quick", BITS))
    cases = [(n, make_alpha(*a)) for a in suites.STANDARD_ALPHAS[:2] for n in (1, 2, 3)]
    assert len(verdicts) == 2 * len(cases)  # an LP and a witness case each
    assert verdicts[1::2] == [None] * len(cases)
    assert [v.split(": lp ")[0] for v in verdicts[::2]] == [f"n={n} alpha={a}" for n, a in cases]
