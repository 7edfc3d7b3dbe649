"""One L-BFGS-B driver: an AST scan of the package fails if a
`minimize` is called or imported anywhere, or if a module other than
compiled names scipy's compiled _lbfgsb or _special_ufuncs module, which
compiled.compiled loads without its package. That every scipy import
stays lazy is checked in test_family_table_path.py."""

import ast
import re
from pathlib import Path

import logicood

PACKAGE = Path(logicood.__file__).parent


def _owner(top):
    return top.name if isinstance(top, ast.FunctionDef | ast.ClassDef) else None


def _minimize_calls(tree):
    """(enclosing top-level definition or None, line) of each call of a
    `minimize` function or attribute, and each import of that name."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute) and func.attr == "minimize") or (
                    isinstance(func, ast.Name) and func.id == "minimize"
                ):
                    found.append((_owner(top), node.lineno))
            elif isinstance(node, ast.ImportFrom) and any(
                a.name == "minimize" for a in node.names
            ):
                found.append((_owner(top), node.lineno))
    return found


COMPILED_MODULES = frozenset({"_lbfgsb", "_special_ufuncs"})


def _compiled_module_names(tree):
    """(enclosing top-level definition or None, line) of each import, name,
    attribute or string that names scipy's _lbfgsb or _special_ufuncs
    module."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                words = [*(node.module or "").split("."), *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                words = [w for a in node.names for w in a.name.split(".")]
            elif isinstance(node, ast.Attribute):
                words = [node.attr]
            elif isinstance(node, ast.Name):
                words = [node.id]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                words = re.findall(r"\w+", node.value)
            else:
                continue
            if COMPILED_MODULES.intersection(words):
                found.append((_owner(top), node.lineno))
    return found


def _scan(scanner):
    return {
        (path.stem, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, _ in scanner(ast.parse(path.read_text(encoding="utf-8")))
    }


def test_minimize_is_called_nowhere():
    assert _scan(_minimize_calls) == set()


def test_compiled_modules_are_named_only_by_the_loader():
    assert {module for module, _ in _scan(_compiled_module_names)} == {"compiled"}


def test_minimize_scan_flags_each_form():
    source = (
        "from scipy.optimize import minimize\n"
        "def f():\n"
        "    return optimize.minimize(g, x0)\n"
        "class C:\n"
        "    def m(self):\n"
        "        minimize(g, x0)\n"
        "def g():\n"
        "    return optimize.minimize_scalar(h)\n"
    )
    assert _minimize_calls(ast.parse(source)) == [(None, 1), ("f", 3), ("C", 6)]


def test_compiled_module_scan_flags_each_form():
    source = (
        "import scipy.optimize._lbfgsb as lb\n"
        "def f():\n"
        "    from scipy.optimize import _lbfgsb\n"
        "class C:\n"
        "    def m(self):\n"
        "        from scipy.optimize._lbfgsb import setulb\n"
        "def g():\n"
        "    from scipy.optimize import _lbfgsb_py, optimize\n"
        "    return load('special', '_special_ufuncs'), special._special_ufuncs\n"
        "def h():\n"
        "    return _lbfgsb.setulb, 'scipy/special/_special_ufuncs.so', _minimize_lbfgsb\n"
    )
    assert _compiled_module_names(ast.parse(source)) == [
        (None, 1), ("f", 3), ("C", 6), ("g", 9), ("g", 9), ("h", 11), ("h", 11),
    ]
