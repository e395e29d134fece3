"""What the package holds and what the README shows of it.

The numerical-integration oracles live in `tests/oracles.py`; under
`src/mrrlink` only the Rytov path integral (`channel.py`) integrates
with scipy.  The README's library quick tour is run as written, so a
trimmed export cannot break the documented example.
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


def test_readme_quick_tour_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(code, "README.md quick tour", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == code.count("print(")
