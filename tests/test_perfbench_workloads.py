"""One pass of each benchmark workload, with its own output checks.

perfbench/workloads.py checks every output of a pass against reference
values (the LP, the witness lower bound, the bidisk grid maximum).  A
change that moves one of them past its tolerance fails here before the
benchmark would report it.  The module is loaded from its file, as
test_perfbench_bindings.py loads the tracer, and handed the real entry
points; nothing under perfbench/ is written.
"""

import importlib.util
import sys
from pathlib import Path

import bwexp.cli
import bwexp.construct
import bwexp.norms

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
CALLS = {
    "cli.main": bwexp.cli.main,
    "construct.witness_certificate": bwexp.construct.witness_certificate,
    "norms.norm_on_bidisk": bwexp.norms.norm_on_bidisk,
}


def run_pass(monkeypatch, name: str, seed: int = 1):
    """One pass of the named workload; its dataclasses need the module in sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    workload = module.WORKLOADS[name]
    return workload.run(workload.inputs(seed), CALLS)


def test_certify_witness_pass_has_no_failures(monkeypatch):
    res = run_pass(monkeypatch, "certify-witness")
    assert res.failures == []
    assert res.attempted == len(res.outputs) == 6


def test_solve_default_pass_has_no_failures(monkeypatch):
    res = run_pass(monkeypatch, "solve-default")
    assert res.failures == []
    assert res.attempted == len(res.outputs) == 3


def test_sweep_conj_pass_has_no_failures(monkeypatch):
    res = run_pass(monkeypatch, "sweep-conj")
    assert res.failures == []
    assert res.attempted == len(res.outputs) == 6
