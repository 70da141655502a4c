"""Every import in the package is used, every public name resolves,
durations use a monotonic clock, every verify suite is registered, and
each input check is stated once (a stdlib stand-in for a linter)."""

import ast
import subprocess
import sys
from pathlib import Path

import bwexp

PACKAGE = Path(bwexp.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by an import and never read; names in __all__ count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detector_sees_unused_imports():
    source = "import os.path\nimport re as regex\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os)\n"
    assert unused_imports(source) == ["pi (line 3)", "regex (line 2)"]


def test_package_has_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    unused = {path.name: unused_imports(path.read_text()) for path in paths}
    assert not {name: names for name, names in unused.items() if names}


def test_public_names_resolve():
    # unused_imports reads __all__ as a use, so a name whose import is gone
    # would pass it; `from bwexp import *` would then fail
    assert len(bwexp.__all__) == len(set(bwexp.__all__))
    assert [name for name in bwexp.__all__ if not hasattr(bwexp, name)] == []


def wall_clock_reads(source: str) -> list:
    """Lines that read time.time, which can jump; durations use time.perf_counter."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "time"
        and isinstance(node.value, ast.Name) and node.value.id == "time"
        or isinstance(node, ast.ImportFrom) and node.module == "time"
        and any(alias.name == "time" for alias in node.names)
    )


def test_detector_sees_wall_clock_reads():
    source = (
        "import time\nfrom time import time as now\nt0 = time.perf_counter()\n"
        "dt = time.time() - t0\nf = time.time\n"
    )
    assert wall_clock_reads(source) == [2, 4, 5]


def test_package_times_with_a_monotonic_clock():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    reads = {path.name: wall_clock_reads(path.read_text()) for path in paths}
    assert not {name: lines for name, lines in reads.items() if lines}


def test_cli_solve_never_imports_scipy_optimize():
    # scipy.optimize took about 0.6 s of a 0.85 s start; the solver loads only
    # SciPy's HiGHS extension.  A fresh interpreter, because this one may hold
    # scipy.optimize already; checked after a solve too, since a lazy import
    # would only move that cost into the first solve.
    script = (
        "import sys\n"
        "import bwexp.cli\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "assert bwexp.cli.main(['solve', '--n', '1', '--alpha', '0.0+0.5i']) == 0\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=PACKAGE.parent)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_set():
    # a fresh `import bwexp.cli` loads, besides the standard library and
    # bwexp, only numpy, mpmath, SciPy's HiGHS extension and the Cython
    # runtime it needs, so that no new import reaches the start-up time
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bwexp.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=PACKAGE.parent)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    allowed = set(sys.stdlib_module_names) | {"bwexp", "numpy", "mpmath", "scipy", "cython_runtime"}
    tops = {name.split(".")[0] for name in loaded}
    assert not {top for top in tops if top not in allowed and not top.startswith("_cython_")}
    highs = "scipy.optimize._highspy._core."
    assert not [name for name in loaded if name.split(".")[0] == "scipy" and not name.startswith(highs)]
    # the oracle draws from its own stream, and only verify reads the suites
    unused = ("numpy.random", "hashlib", "secrets", "bwexp.suites")
    assert not [name for name in loaded if any(name == u or name.startswith(u + ".") for u in unused)]


def test_verify_imports_its_suites_on_demand():
    script = (
        "import contextlib, io, sys\n"
        "import bwexp.cli\n"
        "assert 'bwexp.suites' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert bwexp.cli.main(['verify', '--level', 'quick']) == 0\n"
        "assert 'bwexp.suites' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, cwd=PACKAGE.parent)
    assert proc.returncode == 0, proc.stderr


def test_commands_import_nothing_after_start_up():
    # a module first imported inside a command is paid in its timed pass
    # (one np.unique pulls in numpy.ma, about 33 ms); the locale lookup of
    # the output stream is the only such import
    script = (
        "import contextlib, io, sys\n"
        "import bwexp.cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert bwexp.cli.main(['solve', '--n', '2', '--alpha', '0.0+0.5i']) == 0\n"
        "    assert bwexp.cli.main(['witness', '--n', '2', '--alpha', '0.0+0.5i']) == 0\n"
        "    assert bwexp.cli.main(['sweep', '--n-range', '1..2', '--alpha-grid', 'im:-0.5..0.5:2,re:0',\n"
        "                           '--jobs', '1', '--circle-points', '128', '--torus-points', '16']) == 0\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=PACKAGE.parent)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= {"locale", "_locale"}


def test_every_suite_is_registered_and_reported():
    # a suite_* function missing from SUITES would never run under verify
    from bwexp.suites import SUITES

    tree = ast.parse((PACKAGE / "suites.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("suite_")}
    assert defined == {suite.__name__ for suite in SUITES.values()}
    proc = subprocess.run([sys.executable, "-m", "bwexp.cli", "verify", "--level", "quick"],
                          capture_output=True, text=True, timeout=300, cwd=PACKAGE.parent)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()[1:]] == list(SUITES)


def raising_functions(source: str) -> dict:
    """{message head: names of the functions that raise it}, each raise
    counted in its innermost function.  A message's head is its literal
    text before the first substitution."""
    out = {}

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call) and child.exc.args:
                message = child.exc.args[0]
                head = message.values[0] if isinstance(message, ast.JoinedStr) else message
                if function and isinstance(head, ast.Constant) and isinstance(head.value, str):
                    out.setdefault(head.value, set()).add(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return out


def raised_messages(source: str, functions) -> list:
    """The heads of the messages that the named functions raise, sorted."""
    return sorted(head for head, where in raising_functions(source).items() if where & set(functions))


def test_detector_sees_raised_messages():
    source = (
        "def check(x):\n    if x:\n        raise ValueError(f'x must be 0, got {x}')\n"
        "    raise ValueError('plain')\n"
        "def other():\n    raise ValueError('not read')\n"
    )
    assert raised_messages(source, {"check"}) == ["plain", "x must be 0, got "]


def test_shared_checks_are_stated_once():
    # a copy of a core check elsewhere in the package drifts from it
    checks = {"require_degree", "require_alpha", "require_bits"}
    messages = raised_messages((PACKAGE / "core.py").read_text(), checks)
    assert len(messages) == 4
    copies = {
        path.name: [m for m in messages if m in path.read_text()]
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"
    }
    assert not {name: found for name, found in copies.items() if found}
    core = (PACKAGE / "core.py").read_text()
    assert all(core.count(m) == 1 for m in messages)


def test_detector_sees_each_raise_in_its_innermost_function():
    source = (
        "def outer(x):\n    def inner():\n        raise ValueError(f'bad {x}')\n"
        "    raise ValueError('plain')\n"
        "def other(x):\n    raise TypeError(f'bad {x}')\n    raise ValueError(x)\n"
    )
    assert raising_functions(source) == {"bad ": {"inner", "other"}, "plain": {"outer"}}


def test_every_check_is_stated_once():
    # a message raised by two functions is a check stated twice; one
    # helper states it, and both callers call the helper
    raisers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for head, functions in raising_functions(path.read_text()).items():
            raisers.setdefault(head, set()).update(f"{path.name}:{name}" for name in functions)
    assert raisers
    assert not {head: sorted(where) for head, where in raisers.items() if len(where) > 1}


def workprec_arguments(source: str) -> list:
    """(innermost function, argument text) of every mp.workprec(...) call, in order."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "workprec" and ast.unparse(child.func.value) == "mp"):
                out.append((function, ", ".join(ast.unparse(arg) for arg in child.args)))
            visit(child, function)

    visit(ast.parse(source), None)
    return out


def test_detector_sees_workprec_arguments():
    source = (
        "def f(bits):\n    with mp.workprec(bits + 1):\n"
        "        def g(w):\n            return mp.workprec(w.bits)\n"
        "mp.workprec(64)\nother.workprec(2)\n"
    )
    assert workprec_arguments(source) == [("f", "bits + 1"), ("g", "w.bits"), (None, "64")]


def test_every_working_precision_is_a_named_precision():
    # a precision computed from the caller's is a guess about the inputs it
    # must cover; a routine works at the precision its caller or its check
    # names.  The one exception is the doubled-precision reference the
    # endpoint suite compares against.
    named = {"bits", "prec", "w.bits", "table.bits"}
    computed = {
        (path.name, function, arg)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, arg in workprec_arguments(path.read_text())
        if arg not in named
    }
    assert computed == {("suites.py", "suite_endpoint_formulas", "2 * bits")}
