"""Constraint DSL: lexer, recursive-descent parser, and batch compiler.

A constraint is a universally quantified boolean formula over concept
atoms, written e.g.

    class=stop_sign -> color=red and shape=octagon

The binary connectives, their binding order and their truth functions
are the CONNECTIVES table; `not` binds tighter than any of them. Bare
identifiers abbreviate binary atoms (`is_octagon` means
`is_octagon=true`). Compilation resolves each atom once, to a (concept
index, value index) pair; a compiled constraint evaluates matrices of
domain indices and owns its truth table over its own concepts' worlds.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .artifacts import open_text, write_text
from .errors import CompileError, ParseError, ValidationError
from .schema import Schema


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Atom:
    concept: str
    value: str | None = None  # None: bare binary shorthand


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Xor:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Implies:
    left: "Node"
    right: "Node"


Node = Atom | Not | And | Or | Xor | Implies


@dataclass(frozen=True)
class Connective:
    """A binary connective: its token, its AST class and its truth function
    on boolean arrays."""

    token: str
    node: type
    truth: Callable[[np.ndarray, np.ndarray], np.ndarray]
    right_assoc: bool = False


# The binary connectives, loosest binding first; `not` binds tighter than all.
CONNECTIVES = (
    Connective("->", Implies, lambda a, b: ~a | b, right_assoc=True),
    Connective("xor", Xor, lambda a, b: a ^ b),
    Connective("or", Or, lambda a, b: a | b),
    Connective("and", And, lambda a, b: a & b),
)
_CONNECTIVE_OF = {c.node: c for c in CONNECTIVES}


# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = frozenset({"not", *(c.token for c in CONNECTIVES)})
# Identifiers, and the connective tokens that are not words (->).
_SYMBOLS = [re.escape(k) for k in sorted(KEYWORDS) if not k.isidentifier()]
_TOKEN_RE = re.compile("|".join([*_SYMBOLS, "[A-Za-z_][A-Za-z0-9_]*"]))

_TOK_IDENT = "IDENT"
_TOK_EQ = "="
_TOK_LPAREN = "("
_TOK_RPAREN = ")"
_TOK_EOF = "EOF"


def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        if ch in "()":
            tokens.append((ch, ch, i))
            i += 1
        elif ch == "=":
            tokens.append((_TOK_EQ, "=", i))
            i += 1
        else:
            m = _TOKEN_RE.match(source, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", i, source)
            word = m.group(0)
            kind = word if word in KEYWORDS else _TOK_IDENT
            tokens.append((kind, word, i))
            i += len(word)
    tokens.append((_TOK_EOF, "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok[1]!r}" if tok[1] else f"expected {kind!r}",
                tok[2],
                self.source,
            )
        return self.advance()

    def parse(self) -> Node:
        if self.peek()[0] == _TOK_EOF:
            raise ParseError("empty constraint", 0, self.source)
        node = self.expr()
        tok = self.peek()
        if tok[0] != _TOK_EOF:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], self.source)
        return node

    def expr(self, level: int = 0) -> Node:
        """A chain of CONNECTIVES[level] over operands that bind tighter;
        past the last level, a negation or an atom."""
        if level == len(CONNECTIVES):
            if self.peek()[0] == "not":
                self.advance()
                return Not(self.expr(level))
            return self.atom()
        conn = CONNECTIVES[level]
        parts = [self.expr(level + 1)]
        while self.peek()[0] == conn.token:
            self.advance()
            parts.append(self.expr(level + 1))
        if conn.right_assoc:
            return reduce(lambda right, left: conn.node(left, right), reversed(parts))
        return reduce(conn.node, parts)

    def atom(self) -> Node:
        tok = self.peek()
        if tok[0] == _TOK_LPAREN:
            self.advance()
            node = self.expr()
            self.expect(_TOK_RPAREN)
            return node
        if tok[0] != _TOK_IDENT:
            raise ParseError(
                f"expected atom, found {tok[1]!r}" if tok[1] else "expected atom",
                tok[2],
                self.source,
            )
        self.advance()
        if self.peek()[0] == _TOK_EQ:
            self.advance()
            val = self.expect(_TOK_IDENT)
            return Atom(tok[1], val[1])
        return Atom(tok[1])


def parse(source: str) -> Node:
    """Parse one constraint; raises ParseError with a character offset."""
    try:
        return _Parser(source).parse()
    except RecursionError:
        raise ParseError("constraint nests too deeply to parse", 0, source) from None


# ---------------------------------------------------------------------------
# Pretty-printer (canonical form; parse(print(ast)) == ast)

# Binding strength: the connectives in table order, then not, then atoms.
_PREC = {c.node: level for level, c in enumerate(CONNECTIVES, start=1)}
_PREC |= {Not: len(_PREC) + 1, Atom: len(_PREC) + 2}


def pretty(node: Node) -> str:
    return _pretty(node, 0)


def _pretty(node: Node, parent_prec: int) -> str:
    prec = _PREC[type(node)]
    if isinstance(node, Atom):
        text = node.concept if node.value is None else f"{node.concept}={node.value}"
    elif isinstance(node, Not):
        text = f"not {_pretty(node.child, prec)}"
    else:
        conn = _CONNECTIVE_OF[type(node)]
        # The left child of a right-associative connective needs parens at
        # equal precedence; left-associative ones need them on the right.
        if conn.right_assoc:
            left = _pretty(node.left, prec + 1)
            right = _pretty(node.right, prec)
        else:
            left = _pretty(node.left, prec)
            right = _pretty(node.right, prec + 1)
        text = f"{left} {conn.token} {right}"
    if prec < parent_prec:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Compiler

# Deepest tree that compiles, counting an atom as one level. Resolution,
# evaluation and printing recurse once per level, and Python's default
# limit of 1000 frames must leave room for their callers.
MAX_DEPTH = 400


@dataclass(frozen=True)
class CompiledConstraint:
    """A schema-resolved constraint evaluable on single vectors or batches."""

    ast: Node  # resolved: every Atom has an explicit value
    source: str
    schema: Schema
    # Each distinct atom's (concept index, value index); it follows from ast and schema.
    atoms: dict[Atom, tuple[int, int]] = field(compare=False, repr=False)
    constraint_id: int = 0

    def evaluate(self, z) -> int:
        """Truth value (0/1) on a single semantic vector."""
        return int(self.evaluate_batch([z])[0])

    def evaluate_batch(self, rows) -> np.ndarray:
        """Vectorized truth values on a (n, n_concepts) index matrix."""
        return self._truth(self.schema.validate_rows(rows))

    def _truth(self, rows: np.ndarray) -> np.ndarray:
        """0/1 truth values on rows already checked against self.schema."""
        return _eval(self.ast, self.atoms, lambda ci, vi: rows[:, ci] == vi).astype(np.int8)

    @cached_property
    def concepts(self) -> tuple[int, ...]:
        """Schema indices of the concepts this constraint mentions, ascending."""
        return tuple(sorted({ci for ci, _ in self.atoms.values()}))

    @cached_property
    def table(self) -> np.ndarray:
        """0/1 truth values over the worlds of self.concepts alone, in
        enumerate_space's order."""
        return truth_table(self.ast, self.atoms, world_values(self.schema, self.concepts))


def world_values(schema: Schema, concepts) -> dict[int, np.ndarray]:
    """Each concept's value index on the worlds of the given concepts
    (ascending schema indices), in enumerate_space's order."""
    sizes = [schema.domain_sizes[ci] for ci in concepts]
    return dict(zip(concepts, np.unravel_index(np.arange(math.prod(sizes)), sizes)))


def truth_table(ast: Node, atoms, values) -> np.ndarray:
    """0/1 truth values of a resolved tree on worlds given by world_values
    of the concepts it names: the one evaluation of a constraint over worlds."""
    return _eval(ast, atoms, lambda ci, vi: values[ci] == vi).astype(np.int8)


def _eval(node: Node, atoms, leaf) -> np.ndarray:
    """The truth of a resolved tree; an atom's is leaf(*atoms[atom])."""
    if isinstance(node, Atom):
        return leaf(*atoms[node])
    if isinstance(node, Not):
        return ~_eval(node.child, atoms, leaf)
    return _CONNECTIVE_OF[type(node)].truth(
        _eval(node.left, atoms, leaf), _eval(node.right, atoms, leaf)
    )


def compile_constraint(
    ast: Node, schema: Schema, source: str | None = None, constraint_id: int = 0
) -> CompiledConstraint:
    """Resolve all atoms against the schema; bare atoms become =true."""
    depth, level = 0, [ast]
    while level:  # breadth first: a deep tree must not exhaust the stack here
        depth += 1
        level = [child for node in level for child in _children(node)]
    if depth > MAX_DEPTH:
        raise CompileError(f"constraint is {depth} levels deep; at most {MAX_DEPTH} compile")
    atoms = {}
    resolved = _resolve_ast(ast, schema, atoms)
    if source is None:
        source = pretty(resolved)
    return CompiledConstraint(resolved, source, schema, atoms, constraint_id)


def _children(node: Node) -> tuple:
    if isinstance(node, Atom):
        return ()
    return (node.child,) if isinstance(node, Not) else (node.left, node.right)


def _resolve_ast(node: Node, schema: Schema, atoms: dict) -> Node:
    """node with bare atoms as =true; records each distinct atom in atoms."""
    if isinstance(node, Atom):
        ci = schema.concept_index(node.concept)
        if node.value is None:
            if not schema.is_binary(ci):
                raise CompileError(
                    f"bare atom {node.concept!r} requires a binary concept; "
                    f"domain is {list(schema.domain(ci))}"
                )
            node = Atom(node.concept, "true")
        if node not in atoms:
            atoms[node] = (ci, schema.value_index(ci, node.value))  # validates
        return node
    if isinstance(node, Not):
        return Not(_resolve_ast(node.child, schema, atoms))
    cls = type(node)
    return cls(_resolve_ast(node.left, schema, atoms), _resolve_ast(node.right, schema, atoms))


def compile_source(source: str, schema: Schema, constraint_id: int = 0) -> CompiledConstraint:
    return compile_constraint(parse(source), schema, source.strip(), constraint_id)


def load_constraints(path, schema: Schema) -> list[CompiledConstraint]:
    """Read a knowledge base: one constraint per non-empty non-comment line."""
    compiled = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                compiled.append(compile_source(stripped, schema, len(compiled)))
            except ParseError as exc:
                raise ParseError(
                    f"{path}:{lineno}: {exc.message}", exc.offset, stripped
                ) from exc
            except ValidationError as exc:  # an unknown concept or value too
                raise CompileError(f"{path}:{lineno}: {exc}") from exc
    return compiled


def save_constraints(constraints, path) -> None:
    write_text(path, "".join(c.source + "\n" for c in constraints))
