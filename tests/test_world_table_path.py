"""One world table: an AST scan of the package fails if rows are coded to
worlds anywhere but mln.WorldTable.codes, if rows are grouped by world
anywhere but mln.WorldCounts.of, if greedy_search evaluates a constraint
itself instead of reading its trees' own columns, if its candidate loop
builds a world table or a model, codes anything or compiles or replaces a
constraint, if world_table, the search's own columns or synthesis
evaluate a constraint or enumerate worlds instead of reading each
compiled constraint's own table, or if candidate generation compiles,
evaluates or enumerates anything or keys candidates on anything but
constraints.truth_table."""

import ast
from pathlib import Path

import logicood

PACKAGE = Path(logicood.__file__).parent

# Calls that evaluate constraints on rows.
EVALUATIONS = frozenset(
    {
        "_truth",
        "evaluate",
        "evaluate_batch",
        "satisfaction_matrix",
        "mln_score",
        "mln_score_batch",
        "explain",
        "explain_batch",
    }
)


def _is_radix_step(node):
    """`t = t * s + c` in either operand order, or `t *= s`."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.target, ast.Name) and isinstance(node.op, ast.Mult)
    if not (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.Add)
    ):
        return False
    name = node.targets[0].id
    return any(
        isinstance(term, ast.BinOp)
        and isinstance(term.op, ast.Mult)
        and any(isinstance(f, ast.Name) and f.id == name for f in (term.left, term.right))
        for term in (node.value.left, node.value.right)
    )


def _world_coding(tree):
    """(enclosing function, line) of every use of ravel_multi_index and of
    every radix step inside a loop."""
    found = []

    def visit(node, function, in_loop):
        for child in ast.iter_child_nodes(node):
            named = (
                (isinstance(child, ast.Name) and child.id == "ravel_multi_index")
                or (isinstance(child, ast.Attribute) and child.attr == "ravel_multi_index")
                or (isinstance(child, ast.alias) and child.name == "ravel_multi_index")
            )
            if named or (in_loop and _is_radix_step(child)):
                found.append((function, child.lineno))
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                visit(child, child.name, False)
            else:
                visit(child, function, in_loop or isinstance(child, ast.For | ast.While))

    visit(tree, None, False)
    return found


def _row_grouping(tree):
    """(enclosing class and function, dotted, line) of every np.unique with
    an axis keyword, which groups equal rows, and of every use of lexsort,
    which sorts rows so that equal ones are adjacent. A 1-d np.unique, such
    as metrics' grouping of equal scores, is not flagged."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            lexsort = (
                (isinstance(child, ast.Name) and child.id == "lexsort")
                or (isinstance(child, ast.Attribute) and child.attr == "lexsort")
                or (isinstance(child, ast.alias) and child.name == "lexsort")
            )
            unique_rows = False
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                unique_rows = name == "unique" and any(k.arg == "axis" for k in child.keywords)
            if lexsort or unique_rows:
                found.append((scope, child.lineno))
            if isinstance(child, ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(tree, None)
    return sorted(found, key=lambda hit: hit[1])


def _calls(function, names):
    """(called name, line) of every call to one of names in a function,
    nested functions included."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append((name, node.lineno))
    return found


def _evaluations(function):
    """(called name, line) of every constraint evaluation in a function."""
    return _calls(function, EVALUATIONS)


def _loop_calls(tree, function, names):
    """(called name, line) of every call to one of names inside a loop of
    the function, following the loop's calls into the functions nested in
    it and the module's own functions."""
    reachable = {
        node.name: node
        for node in [*ast.walk(function), *tree.body]
        if isinstance(node, ast.FunctionDef) and node is not function
    }
    found, followed = set(), set()

    def scan(node):
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.add((name, call.lineno))
                if name in reachable and name not in followed:
                    followed.add(name)
                    scan(reachable[name])

    for loop in ast.walk(function):
        if isinstance(loop, ast.For | ast.While):
            scan(loop)
    return sorted(found, key=lambda hit: hit[1])


def _function(tree, name):
    (function,) = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return function


def test_only_world_table_codes_rows_to_worlds():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        hits = _world_coding(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert set(found) == {"mln.py"}
    assert [function for function, _ in found["mln.py"]] == ["codes"]


def test_only_world_counts_groups_rows_by_world():
    """explain.json and greedy search both group rows through
    mln.WorldCounts.of, which sorts and never codes a world."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        hits = _row_grouping(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert set(found) == {"mln.py"}
    assert {function for function, _ in found["mln.py"]} == {"WorldCounts.of"}


def test_grouping_scan_flags_each_form():
    source = (
        "from numpy import lexsort, unique\n"
        "class WorldCounts:\n"
        "    def of(cls, values):\n"
        "        order = np.lexsort(values.T[::-1])\n"
        "        return np.unique(values, axis=0)\n"
        "def write(rows, scores):\n"
        "    _, first, inverse = np.unique(rows, axis=0, return_index=True)\n"
        "    unique(rows, axis=-1)\n"
        "    distinct, inverse = np.unique(scores, return_inverse=True)\n"
        "    key = numpy.lexsort\n"
        "    def inner():\n"
        "        return lexsort(rows)\n"
    )
    assert _row_grouping(ast.parse(source)) == [
        (None, 1),
        ("WorldCounts.of", 4),
        ("WorldCounts.of", 5),
        ("write", 7),
        ("write", 8),
        ("write", 10),
        ("write.inner", 12),
    ]


def test_greedy_search_evaluates_no_constraint():
    tree = ast.parse((PACKAGE / "search.py").read_text(encoding="utf-8"))
    greedy = _function(tree, "greedy_search")
    assert _evaluations(greedy) == []
    # The scan sees the satisfaction matrix's evaluation, so it is not blind.
    mln_tree = ast.parse((PACKAGE / "mln.py").read_text(encoding="utf-8"))
    assert _evaluations(_function(mln_tree, "satisfaction_matrix"))


def test_world_tables_are_joins_of_own_tables():
    """world_table, greedy search's own columns and synthesis read each
    compiled constraint's cached table, CompiledConstraint.table, the one
    place a constraint is evaluated over worlds: none evaluates a
    constraint or enumerates worlds."""
    building = EVALUATIONS | {"enumerate_space"}
    mln_tree = ast.parse((PACKAGE / "mln.py").read_text(encoding="utf-8"))
    search_tree = ast.parse((PACKAGE / "search.py").read_text(encoding="utf-8"))
    synth_tree = ast.parse((PACKAGE / "synth.py").read_text(encoding="utf-8"))
    assert _calls(_function(mln_tree, "world_table"), building) == []
    assert _calls(_function(search_tree, "_own_columns"), building) == []
    assert _calls(synth_tree, building) == []
    # The scan sees a module enumerate the full space and evaluate over
    # it, so it is not blind to either name.
    source = (
        "from .mln import enumerate_space, satisfaction_matrix\n"
        "def _world_probabilities(model, space_cap):\n"
        "    worlds = enumerate_space(model.schema, space_cap)\n"
        "    return worlds, mln.satisfaction_matrix(model, worlds) @ model.weights\n"
    )
    assert _calls(ast.parse(source), building) == [
        ("enumerate_space", 3),
        ("satisfaction_matrix", 4),
    ]


def test_greedy_candidate_loop_builds_and_codes_no_table():
    """Every tree's own column is evaluated and the rows grouped once,
    before the loop; each fit joins those columns and sums the counts onto
    its worlds through mln.WorldCounts.onto, which codes the distinct
    worlds only (see test_search)."""
    tree = ast.parse((PACKAGE / "search.py").read_text(encoding="utf-8"))
    greedy = _function(tree, "greedy_search")
    building = {"codes", "world_table", "enumerate_space", "satisfaction_matrix"}
    assert _loop_calls(tree, greedy, building) == []
    # The scan follows the loop into the nested fit, which calls the
    # shared L-BFGS site, so it is not blind.
    assert [name for name, _ in _loop_calls(tree, greedy, {"fit_stats"})] == ["fit_stats"]


def test_loop_scan_flags_each_form():
    source = (
        "def greedy_search(pool):\n"
        "    table = world_table(model)\n"
        "    def fit(members):\n"
        "        return refit(members)\n"
        "    def refit(members):\n"
        "        return world_table(members)\n"
        "    def unused():\n"
        "        return table.codes(rows)\n"
        "    for candidate in pool:\n"
        "        table.codes(candidate)\n"
        "        fit(candidate)\n"
        "        _tally(candidate)\n"
        "    while pool:\n"
        "        pool = [world_table(m) for m in pool]\n"
        "def _tally(model):\n"
        "    return enumerate_space(model)\n"
        "def _unused(model):\n"
        "    return enumerate_space(model)\n"
    )
    tree = ast.parse(source)
    greedy = _function(tree, "greedy_search")
    assert _loop_calls(tree, greedy, {"codes", "world_table", "enumerate_space"}) == [
        ("world_table", 6),
        ("codes", 10),
        ("world_table", 14),
        ("enumerate_space", 16),
    ]


def test_greedy_candidate_loop_compiles_and_builds_no_model():
    """Each fit reads only its statistics: the loop compiles no tree,
    builds no MlnModel and replaces nothing. Trees are compiled once before
    it, and the accepted set once after it, for the model."""
    tree = ast.parse((PACKAGE / "search.py").read_text(encoding="utf-8"))
    greedy = _function(tree, "greedy_search")
    assert _loop_calls(tree, greedy, {"MlnModel", "replace", "compile_constraint"}) == []
    # The scan sees greedy_search compile the accepted set and build its
    # model after the loop, so it is not blind to these names.
    assert {name for name, _ in _calls(greedy, {"MlnModel", "compile_constraint"})} == {
        "MlnModel",
        "compile_constraint",
    }


def test_loop_scan_flags_models_replacements_and_compiles():
    source = (
        "def greedy_search(pool, schema):\n"
        "    model = MlnModel(schema, (), w)\n"
        "    def fit(members):\n"
        "        return dataclasses.replace(model, weights=w)\n"
        "    for tree in pool:\n"
        "        MlnModel(schema, (tree,), w)\n"
        "        fit(tree)\n"
        "    while pool:\n"
        "        pool = _compiled(pool, schema)\n"
        "    return [compile_constraint(t, schema) for t in pool]\n"
        "def _compiled(pool, schema):\n"
        "    compiled = compile_constraint(pool[0], schema)\n"
        "    return replace(compiled, constraint_id=1)\n"
    )
    tree = ast.parse(source)
    greedy = _function(tree, "greedy_search")
    assert _loop_calls(tree, greedy, {"MlnModel", "replace", "compile_constraint"}) == [
        ("replace", 4),
        ("MlnModel", 6),
        ("compile_constraint", 12),
        ("replace", 13),
    ]


def test_candidate_generation_compiles_and_enumerates_nothing():
    """Candidates are deduplicated on each candidate's own truth table from
    constraints.truth_table, the function behind CompiledConstraint.table,
    not on compiled constraints evaluated over an enumerated space nor on
    tables composed from the connectives' truth functions."""
    tree = ast.parse((PACKAGE / "search.py").read_text(encoding="utf-8"))
    generate = _function(tree, "generate_candidates")
    assert _evaluations(generate) == []
    building = {"compile_constraint", "compile_source", "enumerate_space"}
    assert _calls(generate, building) == []
    assert _calls(generate, {"truth_table"})
    truths = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "truth"]
    assert truths == []
    # The scan sees greedy_search compile the accepted set, so it is not blind.
    assert _calls(_function(tree, "greedy_search"), building)


def test_scans_flag_each_form():
    source = (
        "from numpy import ravel_multi_index\n"
        "def outer(rows):\n"
        "    codes = np.ravel_multi_index(tuple(rows.T), sizes)\n"
        "    for column, size in zip(columns, sizes):\n"
        "        code = code * size + column\n"
        "        code = column + size * code\n"
        "        other = a * size + column\n"
        "    while i:\n"
        "        code *= size\n"
        "    code = code * size + column\n"
        "    def greedy_search():\n"
        "        c._truth(rows)\n"
        "        fit_weights(model, data)\n"
        "        def inner():\n"
        "            return satisfaction_matrix(m, worlds), w.codes(columns)\n"
        "        x = 2 * inner() + is_ood\n"
        "    mln_score_batch(model, rows)\n"
    )
    tree = ast.parse(source)
    assert _world_coding(tree) == [
        (None, 1),
        ("outer", 3),
        ("outer", 5),
        ("outer", 6),
        ("outer", 9),
    ]
    assert _evaluations(_function(tree, "greedy_search")) == [
        ("_truth", 12),
        ("satisfaction_matrix", 15),
    ]
    assert ("mln_score_batch", 17) in _evaluations(_function(tree, "outer"))
