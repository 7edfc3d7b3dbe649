"""One connective table: each binary connective's token, AST class,
binding order and truth function are written once, in
constraints.CONNECTIVES. An AST scan of the package fails if a module
other than constraints.py names a binary AST class (And, Or, Xor,
Implies), or if constraints.py names one inside a function, such as an
isinstance test in _eval_batch; the parser, printer, evaluator and search
read the table instead."""

import ast
import itertools
from pathlib import Path

import pytest

import logicood
from logicood.constraints import CONNECTIVES, Atom, parse, pretty
from logicood.errors import ValidationError
from logicood.search import GeneratorConfig

PACKAGE = Path(logicood.__file__).parent
BINARY = {"And", "Or", "Xor", "Implies"}


def _binary_names(tree):
    """(enclosing function, line) of every name, attribute or import of a
    binary AST class."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name
            else:
                name = None
            if name in BINARY:
                found.append((function, child.lineno))
            inner = child.name if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef) else function
            visit(child, inner)

    visit(tree, None)
    return found


def test_only_the_table_names_binary_classes():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        hits = _binary_names(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            found[path.name] = hits
    assert set(found) == {"constraints.py"}
    assert {function for function, _ in found["constraints.py"]} == {None}


def test_scan_flags_each_form():
    source = (
        "from .constraints import And, Atom\n"
        "import logicood.constraints as c\n"
        "def _eval_batch(node):\n"
        "    if isinstance(node, (Or, Not)):\n"
        "        return c.Xor\n"
        "    match node:\n"
        "        case Implies(left, right):\n"
        "            pass\n"
        "    return Atom, Android, node.Orange, 'And'\n"
        "TABLE = {Implies: 1}\n"
    )
    assert _binary_names(ast.parse(source)) == [
        (None, 1),
        ("_eval_batch", 4),
        ("_eval_batch", 5),
        ("_eval_batch", 7),
        (None, 10),
    ]


def test_table_order_is_binding_order():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    for loose, tight in itertools.combinations(CONNECTIVES, 2):
        right = loose.node(a, tight.node(b, c))
        left = loose.node(tight.node(a, b), c)
        assert parse(f"a {loose.token} b {tight.token} c") == right
        assert parse(f"a {tight.token} b {loose.token} c") == left
        assert parse(pretty(right)) == right
        assert parse(pretty(left)) == left


def test_only_implication_is_right_associative():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    for conn in CONNECTIVES:
        chain = parse(f"a {conn.token} b {conn.token} c")
        nested_right = conn.node(a, conn.node(b, c))
        nested_left = conn.node(conn.node(a, b), c)
        assert chain == (nested_right if conn.token == "->" else nested_left)
        assert conn.right_assoc == (conn.token == "->")
        for tree in (nested_right, nested_left):
            assert parse(pretty(tree)) == tree


def test_search_accepts_every_table_token():
    tokens = tuple(c.token for c in CONNECTIVES)
    assert GeneratorConfig(connectives=tokens).connectives == tokens
    with pytest.raises(ValidationError, match="unknown connective"):
        GeneratorConfig(connectives=("nand",))
