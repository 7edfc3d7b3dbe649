"""One tie-block table: an AST scan fails if metrics.py imports scipy, if
any package module uses rankdata, if metrics.py sorts or groups equal
scores anywhere but _tie_table, or if it loops in Python over scores or
tie blocks."""

import ast
from pathlib import Path

import logicood

PACKAGE = Path(logicood.__file__).parent
METRICS = ast.parse((PACKAGE / "metrics.py").read_text(encoding="utf-8"))

# Calls that sort values or group equal ones.
GROUPERS = {"unique", "sort", "argsort", "lexsort", "reduceat", "rankdata"}


def _called_name(node):
    func = node.func if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _adjacent_compare(node):
    """`np.diff(s) != 0` or `s[1:] != s[:-1]`: block edges found by hand."""
    return isinstance(node, ast.Compare) and any(
        _called_name(side) == "diff"
        or (isinstance(side, ast.Subscript) and isinstance(side.slice, ast.Slice))
        for side in (node.left, *node.comparators)
    )


def _groupings(tree):
    """(enclosing function, line) of every sort, grouping call or
    adjacent-element comparison."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if _called_name(child) in GROUPERS or _adjacent_compare(child):
                found.append((function, child.lineno))
            inner = child.name if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef) else function
            visit(child, inner)

    visit(tree, None)
    return found


def _loops(tree):
    """Lines of every loop except one over a literal tuple or list."""
    return [
        node.lineno if hasattr(node, "lineno") else node.iter.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.While)
        or (
            isinstance(node, ast.For | ast.AsyncFor | ast.comprehension)
            and not isinstance(node.iter, ast.Tuple | ast.List)
        )
    ]


def _scipy_imports(tree):
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
        or (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names))
    ]


def _rankdata_uses(tree):
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "rankdata")
        or (isinstance(node, ast.Attribute) and node.attr == "rankdata")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "rankdata" for a in node.names))
    ]


def test_metrics_imports_no_scipy():
    assert _scipy_imports(METRICS) == []


def test_no_module_uses_rankdata():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _rankdata_uses(ast.parse(path.read_text(encoding="utf-8"))) == [], path.name


def test_only_tie_table_groups_scores():
    assert [function for function, _ in _groupings(METRICS)] == ["_tie_table"]


def test_metrics_has_no_python_loop_over_scores():
    assert _loops(METRICS) == []


def test_scans_flag_each_form():
    source = (
        "import scipy\n"
        "from scipy.stats import rankdata\n"
        "from numpy import unique\n"
        "def table():\n"
        "    values, inverse = np.unique(s, return_inverse=True)\n"
        "    return [c for c in (a, b)]\n"
        "def other():\n"
        "    order = np.argsort(s, kind='stable')\n"
        "    edges = np.diff(s) != 0\n"
        "    starts = s[1:] != s[:-1]\n"
        "    blocks = np.add.reduceat(c, starts)\n"
        "    ranks = stats.rankdata(s)\n"
        "    total = np.cumsum(np.diff(r, prepend=0.0) * p)\n"
        "    for p, r in zip(precision, recall):\n"
        "        pass\n"
        "    while k:\n"
        "        k -= 1\n"
        "    return sum(x for x in blocks)\n"
    )
    tree = ast.parse(source)
    assert _scipy_imports(tree) == [1, 2]
    assert _rankdata_uses(tree) == [2, 12]
    assert _groupings(tree) == [
        ("table", 5), ("other", 8), ("other", 9), ("other", 10), ("other", 11), ("other", 12),
    ]
    assert sorted(_loops(tree)) == [14, 16, 18]
