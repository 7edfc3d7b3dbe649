"""The candidate generator as it was before candidates were keyed by their
own truth tables: every candidate is compiled and evaluated on every world
of all the selected concepts, and a candidate whose column of truth values
was already seen is dropped. Kept verbatim as the reference the generator
is checked against; it enumerates 2^k worlds for k selected concepts, so
use it on small selections only."""

from __future__ import annotations

from logicood.constraints import CONNECTIVES, Atom, Node, Not, compile_constraint
from logicood.errors import ValidationError
from logicood.mln import enumerate_space
from logicood.schema import Schema
from logicood.search import GeneratorConfig

_CONNECTIVES = {c.token: c.node for c in CONNECTIVES}


def _truth_signature(ast: Node, schema: Schema, worlds) -> bytes:
    compiled = compile_constraint(ast, schema)
    return compiled.evaluate_batch(worlds).tobytes()


def generate_candidates(schema: Schema, config: GeneratorConfig) -> tuple[Node, ...]:
    """Deterministic pool: literals first (schema order, positive before
    negated), then implications by antecedent and consequent, then depth-3
    trees; logically equivalent duplicates keep the first-generated form."""
    names = config.concepts if config.concepts is not None else schema.names
    if not names:
        raise ValidationError("empty concept selection")
    if len(set(names)) != len(names):
        raise ValidationError("duplicate concept in selection")
    for name in names:
        if not schema.is_binary(name):
            raise ValidationError(
                f"candidate generation uses bare literals; concept {name!r} is not binary"
            )

    literals: list[Node] = []
    for name in names:
        literals.append(Atom(name, "true"))
        if config.allow_negation:
            literals.append(Not(Atom(name, "true")))

    def concept_of(literal: Node) -> str:
        return (literal.child if isinstance(literal, Not) else literal).concept

    # Truth tables over the selected concepts only keep dedup cheap even
    # when the full schema space is large.
    worlds = enumerate_space(schema, concepts=[schema.concept_index(n) for n in names])

    pool: list[Node] = []
    seen: set[bytes] = set()

    def add(ast: Node) -> None:
        sig = _truth_signature(ast, schema, worlds)
        if sig not in seen:
            seen.add(sig)
            pool.append(ast)

    for lit in literals:
        add(lit)

    if config.max_depth >= 2:
        for conn in config.connectives:
            cls = _CONNECTIVES[conn]
            for a in literals:
                for b in literals:
                    if concept_of(a) == concept_of(b):
                        continue
                    add(cls(a, b))

    if config.max_depth >= 3:
        for outer in config.connectives:
            outer_cls = _CONNECTIVES[outer]
            for inner in config.connectives:
                inner_cls = _CONNECTIVES[inner]
                for a in literals:
                    for b in literals:
                        for c in literals:
                            used = {concept_of(a), concept_of(b), concept_of(c)}
                            if len(used) < 3:
                                continue
                            add(outer_cls(a, inner_cls(b, c)))
                            add(outer_cls(inner_cls(a, b), c))

    return tuple(pool)
