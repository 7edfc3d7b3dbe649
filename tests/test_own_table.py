"""A compiled constraint's own table: its truth over the worlds of the
concepts it mentions, checked against evaluating the constraint over
those worlds enumerated, and never built over the space cap."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicood import search
from logicood.constraints import (
    And,
    Atom,
    CompiledConstraint,
    Implies,
    Not,
    Or,
    Xor,
    compile_constraint,
    compile_source,
    parse,
)
from logicood.errors import SpaceCapError
from logicood.mln import (
    MlnModel,
    enumerate_space,
    fit_weights,
    log_partition,
    world_table,
)
from logicood.schema import BINARY_DOMAIN, Dataset, Schema
from logicood.search import SearchConfig, greedy_search
from logicood.synth import SynthSpec, sample_id, sample_ood


@st.composite
def mixed_schema_and_tree(draw):
    """A schema of binary and 3- to 5-valued concepts, and a tree over it
    whose binary atoms may be bare."""
    sizes = draw(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1, max_size=6))
    schema = Schema(
        tuple(
            (f"c{i}", BINARY_DOMAIN if size == 2 else tuple(f"v{j}" for j in range(size)))
            for i, size in enumerate(sizes)
        )
    )

    def atom(ci, vi, bare):
        name, domain = schema.concepts[ci]
        if bare and schema.is_binary(ci):
            return Atom(name)
        return Atom(name, domain[vi % len(domain)])

    leaves = st.builds(atom, st.integers(0, len(sizes) - 1), st.integers(0, 4), st.booleans())
    trees = st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(Not, kids), *(st.builds(cls, kids, kids) for cls in (And, Or, Xor, Implies))
        ),
        max_leaves=12,
    )
    return schema, draw(trees)


def resolved_atoms(node):
    if isinstance(node, Atom):
        return {node}
    if isinstance(node, Not):
        return resolved_atoms(node.child)
    return resolved_atoms(node.left) | resolved_atoms(node.right)


@given(mixed_schema_and_tree())
@settings(max_examples=200, deadline=None)
def test_own_table_is_the_constraint_over_its_enumerated_worlds(case):
    schema, tree = case
    c = compile_constraint(tree, schema)
    atoms = resolved_atoms(c.ast)
    assert c.atoms == {
        a: (schema.concept_index(a.concept), schema.value_index(a.concept, a.value)) for a in atoms
    }
    assert c.concepts == tuple(sorted({schema.concept_index(a.concept) for a in atoms}))
    expected = c.evaluate_batch(enumerate_space(schema, concepts=c.concepts))
    assert c.table.dtype == expected.dtype
    assert c.table.tobytes() == expected.tobytes()


def test_atom_map_is_not_compared():
    schema = Schema((("p", BINARY_DOMAIN), ("q", BINARY_DOMAIN)))
    c = compile_source("p -> q", schema)
    same = CompiledConstraint(c.ast, c.source, schema, {})
    assert same == c and hash(same) == hash(c) and "atoms" not in repr(c)


WIDE = Schema(tuple((f"c{i}", BINARY_DOMAIN) for i in range(40)))


@pytest.fixture
def unbuilt(monkeypatch):
    """The constraints whose table is asked for, which must be none: a
    table over 2^40 worlds fails the test before it is built."""
    asked = []

    def refuse(c):
        asked.append(c)
        raise AssertionError(f"the table of {c.source!r} was read over the cap")

    guard = functools.cached_property(refuse)
    guard.__set_name__(CompiledConstraint, "table")
    monkeypatch.setattr(CompiledConstraint, "table", guard)
    return asked


def test_no_table_is_built_over_the_space_cap(unbuilt, monkeypatch):
    source = " and ".join(name for name, _ in WIDE.concepts)
    c = compile_source(source, WIDE)
    model = MlnModel(WIDE, (c,), np.zeros(1))
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 2, (20, len(WIDE)))
    flags = np.arange(20) % 2 == 1
    data = Dataset(WIDE, rows, tuple(map(str, range(20))), None, flags)
    message = "semantic space of 40 concepts: 1099511627776 exceeds cap 1000000"
    for run in (world_table, log_partition):
        with pytest.raises(SpaceCapError, match=message):
            run(model)
    with pytest.raises(SpaceCapError, match=message):
        fit_weights(model, data)
    compiled, compile_own = [], search.compile_constraint

    def compile_kept(*args, **kwargs):
        compiled.append(compile_own(*args, **kwargs))
        return compiled[-1]

    monkeypatch.setattr(search, "compile_constraint", compile_kept)
    with pytest.raises(SpaceCapError, match=message):
        greedy_search(data, data, (parse(source),), SearchConfig())
    assert len(compiled) == 1
    for constraint in (c, *compiled):
        assert "table" not in vars(constraint)
    assert unbuilt == []


def test_synthesis_builds_no_table_over_the_space_cap(unbuilt):
    """Synthesis joins over every concept, and its cap is checked before
    any constraint's table is read, in either OOD mode."""
    c = compile_source(" and ".join(name for name, _ in WIDE.concepts), WIDE)
    model = MlnModel(WIDE, (c,), np.zeros(1))
    message = "semantic space of 40 concepts: 1099511627776 exceeds cap 1000000"
    with pytest.raises(SpaceCapError, match=message):
        sample_id(SynthSpec(WIDE, model, n_id=1, n_ood=1))
    with pytest.raises(SpaceCapError, match=message):
        sample_ood(SynthSpec(WIDE, model, 1, 1, "alternate_mln", alternate_model=model))
    assert unbuilt == [] and "table" not in vars(c)
