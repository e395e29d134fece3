"""What the package holds and what the README shows of it.

The numerical-integration oracles live in `tests/oracles.py`; under
`src/mrrlink` only the Rytov path integral (`channel.py`) integrates
with scipy.  Every random draw is keyed by (seed, block), so only
`montecarlo._block_generator` calls into `numpy.random`; block tasks run
on a thread pool per run, which only `montecarlo._in_order` makes; and
the block machinery (`BLOCK`, `SUB_BLOCK`, `THREADS` and the private
helpers) is used by `montecarlo.py` alone.  The README's library quick
tour is run as written, so a trimmed export cannot break the documented
example.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mrrlink"


def imports_scipy_integrate(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "scipy.integrate" or a.name.startswith("scipy.integrate.")
                   for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "scipy.integrate" or node.module.startswith("scipy.integrate."):
                return True
            if node.module == "scipy" and any(a.name == "integrate" for a in node.names):
                return True
    return False


def test_only_channel_imports_scipy_integrate():
    users = sorted(p.name for p in PACKAGE.rglob("*.py")
                   if imports_scipy_integrate(ast.parse(p.read_text(encoding="utf-8"))))
    assert users == ["channel.py"]


def test_scan_sees_every_import_form():
    for source in ("import scipy.integrate", "from scipy.integrate import quad",
                   "from scipy import integrate", "def f():\n    from scipy.integrate import quad"):
        assert imports_scipy_integrate(ast.parse(source)), source
    assert not imports_scipy_integrate(ast.parse("from scipy import special"))


def numpy_random_calls(tree: ast.AST) -> list[tuple[str, str]]:
    """(enclosing function, callee) of each call into `numpy.random`: through
    the `np`/`numpy` module, an alias of `numpy.random`, or a name imported
    from it."""
    modules, names = {"np.random", "numpy.random"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "numpy.random" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            modules |= {a.asname or a.name for a in node.names if a.name == "random"}
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                callee = ast.unparse(child.func)
                if callee in names or callee.rpartition(".")[0] in modules:
                    found.append((where, callee))
            visit(child, where)

    visit(tree, "")
    return found


def test_only_the_block_generator_calls_numpy_random():
    calls = sorted((p.name, *call) for p in PACKAGE.rglob("*.py")
                   for call in numpy_random_calls(ast.parse(p.read_text(encoding="utf-8"))))
    assert calls == [("montecarlo.py", "_block_generator", "np.random.Generator"),
                     ("montecarlo.py", "_block_generator", "np.random.Philox")]


def test_random_scan_sees_every_call_form():
    for source, want in (
            ("import numpy as np\nx = np.random.default_rng(1)", [("", "np.random.default_rng")]),
            ("def f():\n    return numpy.random.normal()", [("f", "numpy.random.normal")]),
            ("import numpy.random as npr\nclass A:\n    def g(self):\n        npr.PCG64(0)",
             [("A.g", "npr.PCG64")]),
            ("from numpy.random import Philox as P\nP(3)", [("", "P")]),
            ("from numpy import random\nrandom.seed(0)", [("", "random.seed")])):
        assert numpy_random_calls(ast.parse(source)) == want, source
    assert numpy_random_calls(ast.parse("def f(g: np.random.Generator):\n    g.normal()")) == []


# What starts a thread or a process, by the last part of the called name
_STARTERS = {"Thread", "Timer", "start_new_thread", "ThreadPoolExecutor", "ThreadPool",
             "ProcessPoolExecutor", "Pool", "Process", "Popen", "fork"}


def thread_starts(tree: ast.AST) -> list[tuple[str, str]]:
    """(enclosing function, callee) of each call that starts threads or
    processes: a thread, a timer, a pool or executor of either, a process."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                callee = ast.unparse(child.func)
                if callee.rpartition(".")[2] in _STARTERS:
                    found.append((where, callee))
            visit(child, where)

    visit(tree, "")
    return found


def test_only_the_block_pool_starts_threads():
    # block tasks run on a pool per run, made in one function
    calls = sorted((p.name, *call) for p in PACKAGE.rglob("*.py")
                   for call in thread_starts(ast.parse(p.read_text(encoding="utf-8"))))
    assert calls == [("montecarlo.py", "_in_order", "ThreadPoolExecutor")]


def test_thread_scan_sees_every_call_form():
    for source, want in (
            ("import threading\nthreading.Thread(target=f).start()", [("", "threading.Thread")]),
            ("def f():\n    return concurrent.futures.ProcessPoolExecutor(2)",
             [("f", "concurrent.futures.ProcessPoolExecutor")]),
            ("from multiprocessing import Pool\nclass A:\n    def g(self):\n        Pool(2)",
             [("A.g", "Pool")]),
            ("import _thread\n_thread.start_new_thread(f, ())", [("", "_thread.start_new_thread")])):
        assert thread_starts(ast.parse(source)) == want, source
    assert thread_starts(ast.parse("pool.submit(task)\nthreading.active_count()")) == []


# The block machinery's names, which no module but montecarlo.py may use
_BLOCK_MACHINERY = {"BLOCK", "SUB_BLOCK", "THREADS"}


def montecarlo_internals(tree: ast.AST) -> list[str]:
    """Each block-machinery or underscore name a module takes from the
    `montecarlo` module: imported from it, or read as an attribute of a name
    bound to it."""
    def internal(name):
        return name in _BLOCK_MACHINERY or name.startswith("_")

    def is_montecarlo(module, level):
        return module == "montecarlo" if level else module == "mrrlink.montecarlo"

    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if is_montecarlo(node.module, node.level):
                found += [a.name for a in node.names if internal(a.name)]
            elif (node.module, node.level) in ((None, 1), ("mrrlink", 0)):
                aliases |= {a.asname or a.name for a in node.names if a.name == "montecarlo"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.name == "mrrlink.montecarlo" and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and internal(node.attr):
            owner = ast.unparse(node.value)
            if owner in aliases or owner == "mrrlink.montecarlo":
                found.append(node.attr)
    return found


def test_only_montecarlo_uses_the_block_machinery():
    users = sorted((p.name, name) for p in PACKAGE.rglob("*.py") if p.name != "montecarlo.py"
                   for name in montecarlo_internals(ast.parse(p.read_text(encoding="utf-8"))))
    assert users == []


def test_machinery_scan_sees_every_use_form():
    for source, want in (
            ("from .montecarlo import BLOCK, SimPlan, _slots", ["BLOCK", "_slots"]),
            ("from mrrlink.montecarlo import SUB_BLOCK", ["SUB_BLOCK"]),
            ("from . import montecarlo\ndef f():\n    return montecarlo.THREADS", ["THREADS"]),
            ("from mrrlink import montecarlo as mc\nmc._in_order(t, 2)", ["_in_order"]),
            ("import mrrlink.montecarlo as mc\nmc.block_normals, mc._mirror_product",
             ["_mirror_product"]),
            ("import mrrlink.montecarlo\nmrrlink.montecarlo._POOL", ["_POOL"])):
        assert montecarlo_internals(ast.parse(source)) == want, source
    for source in ("from .montecarlo import SimPlan, draw_channel", "from .mrr import _MOM_MU",
                   "from . import montecarlo\nmontecarlo.draw_channel(p)"):
        assert montecarlo_internals(ast.parse(source)) == [], source


def test_readme_quick_tour_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(code, "README.md quick tour", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == code.count("print(")
