"""Every function, class and method of the package has a caller outside
the tests: a helper only the tests call is removed, with its tests. The
package's __init__ re-exports names and calls none, so it counts as no
caller."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logicood"
CALLERS = ("src", "scripts", "perfbench")
REEXPORTS = PACKAGE / "__init__.py"

ALLOWED = {
    # Reads the dist.json that `fuse --dist-out` writes; its caller is the
    # planned `fuse --dist`, which fuses with a saved fit instead of refitting.
    "load_distribution",
    # The metric oracles of acceptance criterion 7: `eval` reports both
    # through evaluate_scores's one tie table, not through these.
    "aupr",
    "fpr_at_tpr",
    # The exact NLL and gradient that acceptance criterion 3 checks against
    # finite differences; fits count worlds through mln.fit_stats instead.
    "nll_and_gradient",
}


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths]


def _defined(tree):
    """The module-level defs and classes of a module, and their non-dunder methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                is_method = isinstance(item, ast.FunctionDef | ast.AsyncFunctionDef)
                if is_method and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name


def _used(tree):
    """Each name a module reads: as a name, an attribute, an imported name
    or a string, the last as perfbench's tracer names what it wraps."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _defined_and_used():
    defined = {name for tree in _trees(sorted(PACKAGE.glob("*.py"))) for name in _defined(tree)}
    callers = sorted(p for d in CALLERS for p in (ROOT / d).rglob("*.py") if p != REEXPORTS)
    return defined, {name for tree in _trees(callers) for name in _used(tree)}


def test_every_package_definition_has_a_caller_outside_the_tests():
    defined, used = _defined_and_used()
    assert sorted(defined - used - ALLOWED) == []


def test_every_allowed_name_is_defined_and_has_no_caller_yet():
    defined, used = _defined_and_used()
    assert ALLOWED <= defined
    assert not ALLOWED & used
