"""One family table: an AST scan fails if distributions.py compares a family
name with a string literal outside the _FAMILIES table, if a package
module imports scipy at module level, or if distributions.py imports
scipy.stats outside the generalized-normal fit; a subprocess checks which
scipy modules each CLI stage loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import logicood
from logicood.distributions import FAMILIES, FAMILY_BY_FLAG

PACKAGE = Path(logicood.__file__).parent
FAMILY_NAMES = frozenset(FAMILIES) | frozenset(FAMILY_BY_FLAG)


def _is_name(node, names):
    if isinstance(node, ast.Tuple | ast.List | ast.Set):
        return any(_is_name(e, names) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value in names


def _family_literal_compares(tree, names=FAMILY_NAMES):
    """Lines outside the `_FAMILIES = {...}` table where a family name is
    compared with, or matched against, a string literal."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_FAMILIES" for t in child.targets
            ):
                continue
            if isinstance(child, ast.Compare) and any(
                _is_name(side, names) for side in (child.left, *child.comparators)
            ):
                found.append(child.lineno)
            if isinstance(child, ast.MatchValue) and _is_name(child.value, names):
                found.append(child.value.lineno)
            visit(child)

    visit(tree)
    return found


def _module_level_scipy_imports(tree):
    """Lines of scipy imports that run when the module is imported."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda):
                continue
            if (
                isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "scipy"
            ) or (
                isinstance(child, ast.Import)
                and any(a.name.split(".")[0] == "scipy" for a in child.names)
            ):
                found.append(child.lineno)
            visit(child)

    visit(tree)
    return found


def _scipy_stats_imports(tree):
    """(enclosing top-level function or None, line) of each scipy.stats import."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if (
                isinstance(node, ast.ImportFrom)
                and (node.module == "scipy.stats" or (
                    node.module == "scipy" and any(a.name == "stats" for a in node.names)
                ))
            ) or (
                isinstance(node, ast.Import) and any(a.name == "scipy.stats" for a in node.names)
            ):
                found.append((owner, node.lineno))
    return found


def test_distributions_imports_scipy_stats_only_in_the_gennorm_fit():
    tree = ast.parse((PACKAGE / "distributions.py").read_text(encoding="utf-8"))
    owners = {owner for owner, _ in _scipy_stats_imports(tree)}
    assert owners == {"_fit_gennorm", "_gennorm_profile_nll"}


def test_scipy_stats_scan_flags_each_form():
    source = (
        "import scipy.stats as sps\n"
        "def f():\n"
        "    from scipy import optimize, stats\n"
        "    from scipy.special import ndtr\n"
        "class C:\n"
        "    def m(self):\n"
        "        from scipy.stats import gennorm\n"
        "def g():\n"
        "    import scipy.stats\n"
    )
    assert _scipy_stats_imports(ast.parse(source)) == [(None, 1), ("f", 3), (None, 7), ("g", 9)]


def test_distributions_names_families_only_in_the_table():
    tree = ast.parse((PACKAGE / "distributions.py").read_text(encoding="utf-8"))
    assert _family_literal_compares(tree) == []


def test_no_module_imports_scipy_at_module_level():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _module_level_scipy_imports(ast.parse(path.read_text(encoding="utf-8"))) == [], (
            path.name
        )


def test_scans_flag_each_form():
    source = (
        "import scipy.stats as sps\n"
        "from scipy import optimize\n"
        "_FAMILIES = {'gev': f(lambda p: p == 'gev')}\n"
        "class C:\n"
        "    from scipy.special import gamma\n"
        "    def m(self):\n"
        "        from scipy import stats\n"
        "        if self.family == 'gev' or family in ('normal', 'x'):\n"
        "            return 'gennorm' != name\n"
        "        match family:\n"
        "            case 'none':\n"
        "                pass\n"
        "        return family == 'cauchy'\n"
        "f = lambda: __import__('scipy')\n"
        "if flag:\n"
        "    import numpy, scipy\n"
    )
    tree = ast.parse(source)
    assert _family_literal_compares(tree, {"gev", "normal", "gennorm", "none"}) == [8, 8, 9, 11]
    assert _module_level_scipy_imports(tree) == [1, 2, 5, 16]


def test_importing_the_cli_loads_no_scipy_module():
    # Every benchmarked CLI stage pays this import; a scipy package would add to it.
    out = subprocess.run(
        [sys.executable, "-c", "import sys, logicood.cli; print(sorted(m for m in sys.modules"
         " if m.partition('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout == "[]\n"


# Runs in a fresh interpreter: the CLI stages in order, then a GEV survival.
# synth draws GEV detector scores through the quantile before any stage has
# fitted; fuse fits and applies a GEV after fit and search.
PROBE = """
import json, sys
from pathlib import Path
d = Path(sys.argv[1])
loaded = {}
def note(step):
    loaded[step] = sorted(
        m for m in ("scipy", "scipy.optimize", "scipy.special", "scipy.stats") if m in sys.modules
    )
import logicood.cli
note("import logicood.cli")
def cli(*argv):
    assert logicood.cli.main([str(a) for a in argv]) == 0, argv
model = ("--schema", d / "schema.json", "--constraints", d / "kb.txt")
cli("score", *model, "--weights", d / "w.json", "--data", d / "data.csv", "--out", d / "s.csv")
note("score")
cli("eval", "--schema", d / "schema.json", "--data", d / "data.csv", "--scores", d / "s.csv",
    "--out", d / "e.json")
note("eval (metrics.evaluate_scores)")
cli("synth", "--config", d / "spec.json", "--out-dir", d / "synth")
note("synth (gev quantile)")
cli("fit", *model, "--train", d / "data.csv", "--out", d / "fitted.json")
note("fit (mln.fit_weights)")
cli("search", "--schema", d / "schema.json", "--train", d / "data.csv", "--val", d / "data.csv",
    "--out", d / "search.json")
note("search")
cli("fuse", *model, "--weights", d / "w.json", "--train", d / "synth" / "data.csv",
    "--data", d / "synth" / "data.csv", "--family", "gev", "--out", d / "f.csv")
note("fuse --family gev")
from logicood import distributions
distributions.survival(distributions.ScoreDistribution(
    "gev", {"location": 0.0, "scale": 1.0, "shape": 0.1}), 0.0)
note("gev survival")
print(json.dumps(loaded))
"""


def test_cli_stages_load_only_the_scipy_they_use(tmp_path):
    (tmp_path / "schema.json").write_text('{"a": "binary", "b": "binary"}', encoding="utf-8")
    (tmp_path / "kb.txt").write_text("a -> b\n", encoding="utf-8")
    (tmp_path / "w.json").write_text('[{"constraint": "a -> b", "weight": 1.0}]', encoding="utf-8")
    (tmp_path / "spec.json").write_text(json.dumps({
        "schema": {"a": "binary", "b": "binary"},
        "model": {"constraints": ["a -> b"], "weights": [1.0]},
        "n_id": 40,
        "n_ood": 40,
        "detector": {
            "family": "gev",
            "id_params": {"location": 0.0, "scale": 1.0, "shape": 0.1},
            "ood_params": {"location": 1.5, "scale": 1.0, "shape": -0.1},
        },
    }), encoding="utf-8")
    rows = ["true,true,0", "false,true,0", "false,false,0", "true,false,1"] * 10
    (tmp_path / "data.csv").write_text(
        "a,b,__is_ood\n" + "\n".join(rows) + "\n", encoding="utf-8"
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    # The fits and the laws load scipy's compiled modules alone
    # (compiled.compiled), which runs no scipy package's __init__.
    assert json.loads(out.stdout) == {
        "import logicood.cli": [],
        "score": [],
        "eval (metrics.evaluate_scores)": [],
        "synth (gev quantile)": [],
        "fit (mln.fit_weights)": [],
        "search": [],
        "fuse --family gev": [],
        "gev survival": [],
    }
