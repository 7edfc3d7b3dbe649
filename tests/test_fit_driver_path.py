"""One L-BFGS-B driver: an AST scan of the package fails if
optimize.minimize is called outside distributions (the GEV and gennorm
fits), or if scipy.optimize._lbfgsb is imported anywhere but
mln.fit_stats. That every scipy import stays lazy is checked in
test_family_table_path.py."""

import ast
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


def _lbfgsb_imports(tree):
    """(enclosing top-level definition or None, line) of each import of
    scipy.optimize._lbfgsb, in any spelling."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.ImportFrom)
                and (
                    node.module == "scipy.optimize._lbfgsb"
                    or (node.module == "scipy.optimize"
                        and any(a.name == "_lbfgsb" for a in node.names))
                )
            ) or (
                isinstance(node, ast.Import)
                and any(a.name == "scipy.optimize._lbfgsb" for a in node.names)
            ):
                found.append((_owner(top), node.lineno))
    return found


def _scan(scanner):
    return {
        (path.stem, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, _ in scanner(ast.parse(path.read_text(encoding="utf-8")))
    }


def test_minimize_is_called_only_by_the_distribution_fits():
    assert {module for module, _ in _scan(_minimize_calls)} == {"distributions"}


def test_lbfgsb_routine_is_imported_only_by_fit_stats():
    assert _scan(_lbfgsb_imports) == {("mln", "fit_stats")}


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


def test_lbfgsb_scan_flags_each_form():
    source = (
        "import scipy.optimize._lbfgsb as lb\n"
        "def f():\n"
        "    from scipy.optimize import _lbfgsb\n"
        "class C:\n"
        "    def m(self):\n"
        "        from scipy.optimize._lbfgsb import setulb\n"
        "def g():\n"
        "    from scipy.optimize import _lbfgsb_py, optimize\n"
    )
    assert _lbfgsb_imports(ast.parse(source)) == [(None, 1), ("f", 3), ("C", 6)]
