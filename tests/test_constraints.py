import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interpret, random_ast, random_schema, random_vectors
from logicood.constraints import (
    MAX_DEPTH,
    And,
    Atom,
    Implies,
    Not,
    Or,
    Xor,
    compile_constraint,
    compile_source,
    load_constraints,
    parse,
    pretty,
)
from logicood.errors import CompileError, ParseError, ValidationError
from logicood.mln import MlnModel, explain, mln_score_batch
from logicood.schema import Schema

SIGN_SCHEMA = Schema(
    (
        ("class_label", ("stop_sign", "speed_limit")),
        ("color", ("red", "blue", "white")),
        ("shape", ("octagon", "circle")),
        ("is_octagon", ("false", "true")),
    )
)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_stop_sign_rule():
    ast = parse("class_label=stop_sign -> color=red and shape=octagon")
    assert ast == Implies(
        Atom("class_label", "stop_sign"),
        And(Atom("color", "red"), Atom("shape", "octagon")),
    )


def test_parse_depth3_tree():
    ast = parse("class_label=stop_sign -> not color=blue and is_octagon")
    assert ast == Implies(
        Atom("class_label", "stop_sign"),
        And(Not(Atom("color", "blue")), Atom("is_octagon")),
    )


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        parse("color=")
    assert err.value.offset == 6
    with pytest.raises(ParseError, match="empty"):
        parse("   ")
    with pytest.raises(ParseError):
        parse("a and")
    with pytest.raises(ParseError):
        parse("(a or b")
    with pytest.raises(ParseError):
        parse("a ==b")


def test_precedence():
    assert parse("not a and b") == And(Not(Atom("a")), Atom("b"))
    assert parse("a -> b -> c") == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))
    assert parse("a or b and c") == Or(Atom("a"), And(Atom("b"), Atom("c")))
    assert parse("a xor b or c") == Xor(Atom("a"), Or(Atom("b"), Atom("c")))
    assert parse("a -> b xor c") == Implies(Atom("a"), Xor(Atom("b"), Atom("c")))
    assert parse("(a -> b) -> c") == Implies(Implies(Atom("a"), Atom("b")), Atom("c"))


def test_parentheses_honored():
    assert parse("not (a and b)") == Not(And(Atom("a"), Atom("b")))


# ---------------------------------------------------------------------------
# Compilation


def test_compile_bare_binary_shorthand():
    c = compile_source("is_octagon", SIGN_SCHEMA)
    assert c.evaluate([0, 0, 0, 1]) == 1
    assert c.evaluate([0, 0, 0, 0]) == 0


def test_compile_unknown_value_lists_domain():
    with pytest.raises(Exception) as err:
        compile_source("color=purple", SIGN_SCHEMA)
    assert "red" in str(err.value) and "blue" in str(err.value)


def test_compile_unknown_concept():
    with pytest.raises(Exception, match="unknown concept"):
        compile_source("nope=red", SIGN_SCHEMA)


def test_compile_bare_on_non_binary():
    with pytest.raises(CompileError, match="binary"):
        compile_source("color", SIGN_SCHEMA)


def test_evaluate_stop_sign_rule():
    c = compile_source("class_label=stop_sign -> color=red and shape=octagon", SIGN_SCHEMA)
    assert c.evaluate([0, 0, 0, 0]) == 1  # all conjuncts hold
    assert c.evaluate([1, 1, 1, 0]) == 1  # vacuous implication
    assert c.evaluate([0, 1, 0, 0]) == 0  # consequent fails


def test_evaluate_batch_matches_scalar(rng):
    c = compile_source("class_label=stop_sign -> not color=blue and is_octagon", SIGN_SCHEMA)
    rows = random_vectors(rng, SIGN_SCHEMA, 500)
    expected = [int(interpret(c.ast, SIGN_SCHEMA, row)) for row in rows]
    assert c.evaluate_batch(rows).tolist() == expected
    assert [c.evaluate(row) for row in rows] == expected


def test_evaluate_batch_empty():
    c = compile_source("is_octagon", SIGN_SCHEMA)
    assert c.evaluate_batch(np.zeros((0, 4), dtype=np.int64)).tolist() == []


def test_evaluate_schema_mismatch():
    c = compile_source("is_octagon", SIGN_SCHEMA)
    with pytest.raises(Exception):
        c.evaluate([0, 0])
    with pytest.raises(Exception):
        c.evaluate_batch(np.zeros((3, 2), dtype=np.int64))


def test_evaluate_bad_rows_raise_validation_error():
    c = compile_source("is_octagon", SIGN_SCHEMA)
    for bad in ([0, 0], [0, 0, 0, 0, 0], [[0, 0, 0]]):
        with pytest.raises(ValidationError, match="rows of shape"):
            c.evaluate_batch(bad)
    with pytest.raises(ValidationError, match="rows of shape"):
        c.evaluate([0, 0])
    for bad in ([[0, 0, 0, 2]], [[0, 3, 0, 0]], [[-1, 0, 0, 0]]):
        with pytest.raises(ValidationError, match="out-of-domain"):
            c.evaluate_batch(bad)
        with pytest.raises(ValidationError, match="out-of-domain"):
            c.evaluate(bad[0])


def test_tree_at_the_depth_bound_compiles_scores_explains_and_prints():
    schema = Schema((("c0", ("false", "true")),))
    chain = " and ".join(["c0"] * MAX_DEPTH)
    for source in (chain, "not " * (MAX_DEPTH - 1) + "c0"):
        c = compile_source(source, schema)
        m = MlnModel(schema, (c,), np.ones(1))
        truth = [int(interpret(c.ast, schema, [v])) for v in (0, 1)]
        assert mln_score_batch(m, [[0], [1]]).tolist() == [-float(t) for t in truth]
        assert explain(m, [1]).total_score == -float(truth[1])
        assert pretty(c.ast) == source.replace("c0", "c0=true")
    with pytest.raises(CompileError, match=f"{MAX_DEPTH + 1} levels deep"):
        compile_source(chain + " and c0", schema)


# ---------------------------------------------------------------------------
# Knowledge base files


def test_load_constraints_with_comments(tmp_path):
    path = tmp_path / "kb.txt"
    path.write_text(
        "# header comment\n"
        "is_octagon  # trailing comment\n"
        "\n"
        "color=red or color=white\n",
        encoding="utf-8",
    )
    kb = load_constraints(path, SIGN_SCHEMA)
    assert [c.source for c in kb] == ["is_octagon", "color=red or color=white"]
    assert [c.constraint_id for c in kb] == [0, 1]


def test_load_constraints_error_names_line(tmp_path):
    path = tmp_path / "kb.txt"
    path.write_text("is_octagon\ncolor=\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":2:"):
        load_constraints(path, SIGN_SCHEMA)


@pytest.mark.parametrize(
    "line, error, message",
    [
        ("(" * 200 + "is_octagon" + ")" * 200, ParseError, "too deeply to parse"),
        ("not " * 1000 + "is_octagon", ParseError, "too deeply to parse"),
        (" and ".join(["is_octagon"] * 3000), CompileError, "3000 levels deep"),
        (" and ".join(["is_octagon"] * 986), CompileError, "986 levels deep"),
    ],
    ids=["parens-200", "nots-1000", "chain-3000", "chain-986"],
)
def test_load_constraints_rejects_deep_tree_with_its_line(tmp_path, line, error, message):
    path = tmp_path / "kb.txt"
    path.write_text(f"is_octagon\n{line}\n", encoding="utf-8")
    with pytest.raises(error, match=message) as err:
        load_constraints(path, SIGN_SCHEMA)
    assert f"{path}:2: " in str(err.value)


# ---------------------------------------------------------------------------
# Properties


@st.composite
def ast_and_schema(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    schema = random_schema(rng)
    ast = random_ast(rng, schema, max_depth=5)
    return schema, ast, rng


@given(ast_and_schema())
@settings(max_examples=150, deadline=None)
def test_compiled_matches_interpreter(case):
    schema, ast, rng = case
    c = compile_constraint(ast, schema)
    rows = random_vectors(rng, schema, 50)
    expected = [int(interpret(ast, schema, tuple(row))) for row in rows]
    assert c.evaluate_batch(rows).tolist() == expected


@given(ast_and_schema())
@settings(max_examples=100, deadline=None)
def test_connective_identities(case):
    schema, ast, rng = case
    other = random_ast(rng, schema, max_depth=3)
    rows = random_vectors(rng, schema, 30)
    not_a = compile_constraint(Not(ast), schema).evaluate_batch(rows)
    a = compile_constraint(ast, schema).evaluate_batch(rows)
    assert np.array_equal(not_a, 1 - a)
    impl = compile_constraint(Implies(ast, other), schema).evaluate_batch(rows)
    as_or = compile_constraint(Or(Not(ast), other), schema).evaluate_batch(rows)
    assert np.array_equal(impl, as_or)
    xor = compile_constraint(Xor(ast, other), schema).evaluate_batch(rows)
    b = compile_constraint(other, schema).evaluate_batch(rows)
    assert np.array_equal(xor, a ^ b)


@given(ast_and_schema())
@settings(max_examples=150, deadline=None)
def test_pretty_roundtrip(case):
    schema, ast, rng = case
    # Resolve bare atoms first so the printed form is canonical.
    resolved = compile_constraint(ast, schema).ast
    assert parse(pretty(resolved)) == resolved
