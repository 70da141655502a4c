"""The benchmark's tracer wraps bindings that still exist.

perfbench/tracing.py replaces named functions with timing wrappers and
reads some of their arguments; a renamed or dropped binding would pass
every other test and crash each traced benchmark pass.  The module is
loaded from its file and only read: nothing is installed.
"""

import importlib.util
import inspect
from pathlib import Path

import bwexp.solver

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_resolve():
    tracing = load_tracing()
    assert tracing.TRACED_BINDINGS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.TRACED_BINDINGS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_traced_arguments_exist():
    # _linprog_attrs reads A_ub and options; _lp_candidates reads cfg and
    # calls phase_residues
    assert {"A_ub", "options"} <= set(inspect.signature(bwexp.solver.linprog).parameters)
    assert "cfg" in inspect.signature(bwexp.solver.en_lp_estimate).parameters
    assert callable(bwexp.solver.phase_residues)
