"""One scoring path: an AST scan of the package fails if a score is summed
anywhere but mln.scores_from_columns, if a module other than schema.py
raises the out-of-domain error that Schema.validate_rows owns, or if a
module other than schema.py picks a row dtype or layout, which
Schema.row_dtype and Schema.empty_rows own."""

import ast
from pathlib import Path

import logicood

PACKAGE = Path(logicood.__file__).parent


def _score_sums(tree):
    """(enclosing function, line) of every augmented `-=` of a product."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.AugAssign)
                and isinstance(child.op, ast.Sub)
                and isinstance(child.value, ast.BinOp)
                and isinstance(child.value.op, ast.Mult)
            ):
                found.append((function, child.lineno))
            inner = child.name if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef) else function
            visit(child, inner)

    visit(tree, None)
    return found


def _domain_raises(tree):
    """Lines of every raise whose message text says out-of-domain."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and any(
            isinstance(part, ast.Constant)
            and isinstance(part.value, str)
            and "out-of-domain" in part.value
            for part in ast.walk(node.exc)
        )
    ]


ROW_FORM_PICKERS = {"min_scalar_type", "asfortranarray"}


def _row_form_picks(tree):
    """Lines of every name, attribute or import of a row-form picker."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in ROW_FORM_PICKERS)
        or (isinstance(node, ast.Attribute) and node.attr in ROW_FORM_PICKERS)
        or (isinstance(node, ast.ImportFrom) and ROW_FORM_PICKERS & {a.name for a in node.names})
    )


def _scan(scanner):
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        hits = scanner(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    return found


def test_only_scores_from_columns_sums_a_score():
    found = _scan(_score_sums)
    assert set(found) == {"mln.py"}
    assert [function for function, _ in found["mln.py"]] == ["scores_from_columns"]


def test_only_schema_raises_out_of_domain():
    found = _scan(_domain_raises)
    assert set(found) == {"schema.py"}
    assert len(found["schema.py"]) == 1


def test_only_schema_picks_the_row_form():
    found = _scan(_row_form_picks)
    assert set(found) == {"schema.py"}


def test_scans_flag_each_form():
    source = (
        "def outer():\n"
        "    def inner():\n"
        "        table -= w * column\n"
        "    s -= float(w) * c.evaluate(z)\n"
        "    s -= w\n"
        "    s += w * x\n"
        "    s = s - w * x\n"
        "total -= a * b\n"
        "raise ValidationError(f'row {r}: out-of-domain index')\n"
        "raise CompileError('batch contains out-of-domain index')\n"
        "raise ValidationError('rows of shape')\n"
        "raise\n"
        "dtype = np.min_scalar_type(k)\n"
        "rows = numpy.asfortranarray(rows)\n"
        "from numpy import asfortranarray, zeros\n"
        "f = min_scalar_type\n"
        "rows = np.ascontiguousarray(rows, dtype=np.uint8)\n"
    )
    tree = ast.parse(source)
    assert _score_sums(tree) == [("inner", 3), ("outer", 4), (None, 8)]
    assert _domain_raises(tree) == [9, 10]
    assert _row_form_picks(tree) == [13, 14, 15, 16]
