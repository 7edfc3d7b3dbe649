"""Constraint DSL: lexer, recursive-descent parser, and batch compiler.

A constraint is a universally quantified boolean formula over concept
atoms, written e.g.

    class=stop_sign -> color=red and shape=octagon

Precedence (tightest first): not, and, or, xor, ->; implication is
right-associative. Bare identifiers abbreviate binary atoms
(`is_octagon` means `is_octagon=true`). Compilation resolves atoms to
(concept index, value index) pairs against a schema and produces a
vectorized evaluator over matrices of domain indices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import write_text
from .errors import CompileError, ParseError
from .schema import Schema

KEYWORDS = frozenset({"and", "or", "xor", "not"})
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def depth(node: Node) -> int:
    if isinstance(node, Atom):
        return 1
    if isinstance(node, Not):
        return 1 + depth(node.child)
    return 1 + max(depth(node.left), depth(node.right))


# ---------------------------------------------------------------------------
# Lexer

_TOK_IDENT = "IDENT"
_TOK_EQ = "="
_TOK_LPAREN = "("
_TOK_RPAREN = ")"
_TOK_ARROW = "->"
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
        elif source.startswith("->", i):
            tokens.append((_TOK_ARROW, "->", i))
            i += 2
        else:
            m = _WORD_RE.match(source, i)
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
        node = self.impl()
        tok = self.peek()
        if tok[0] != _TOK_EOF:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], self.source)
        return node

    def impl(self) -> Node:
        parts = [self.xor()]
        while self.peek()[0] == _TOK_ARROW:
            self.advance()
            parts.append(self.xor())
        node = parts[-1]
        for left in reversed(parts[:-1]):  # right-associative
            node = Implies(left, node)
        return node

    def xor(self) -> Node:
        node = self.disj()
        while self.peek()[0] == "xor":
            self.advance()
            node = Xor(node, self.disj())
        return node

    def disj(self) -> Node:
        node = self.conj()
        while self.peek()[0] == "or":
            self.advance()
            node = Or(node, self.conj())
        return node

    def conj(self) -> Node:
        node = self.unary()
        while self.peek()[0] == "and":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[0] == "not":
            self.advance()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Node:
        tok = self.peek()
        if tok[0] == _TOK_LPAREN:
            self.advance()
            node = self.impl()
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
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Pretty-printer (canonical form; parse(print(ast)) == ast)

_PREC = {Implies: 1, Xor: 2, Or: 3, And: 4, Not: 5, Atom: 6}


def pretty(node: Node) -> str:
    return _pretty(node, 0)


def _pretty(node: Node, parent_prec: int) -> str:
    prec = _PREC[type(node)]
    if isinstance(node, Atom):
        text = node.concept if node.value is None else f"{node.concept}={node.value}"
    elif isinstance(node, Not):
        text = f"not {_pretty(node.child, prec)}"
    else:
        op = {And: "and", Or: "or", Xor: "xor", Implies: "->"}[type(node)]
        # Left child of a right-associative -> needs parens at equal precedence;
        # left-associative operators need them on the right instead.
        if isinstance(node, Implies):
            left = _pretty(node.left, prec + 1)
            right = _pretty(node.right, prec)
        else:
            left = _pretty(node.left, prec)
            right = _pretty(node.right, prec + 1)
        text = f"{left} {op} {right}"
    if prec < parent_prec:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Compiler


@dataclass(frozen=True)
class CompiledConstraint:
    """A schema-resolved constraint evaluable on single vectors or batches."""

    ast: Node  # resolved: every Atom has an explicit value
    source: str
    schema: Schema
    constraint_id: int = 0

    def evaluate(self, z) -> int:
        """Truth value (0/1) on a single semantic vector."""
        return int(self.evaluate_batch([z])[0])

    def evaluate_batch(self, rows) -> np.ndarray:
        """Vectorized truth values on a (n, n_concepts) index matrix."""
        return self._truth(self.schema.validate_rows(rows))

    def _truth(self, rows: np.ndarray) -> np.ndarray:
        """0/1 truth values on rows already checked against self.schema."""
        return _eval_batch(self.ast, self._atoms, rows).astype(np.int8)

    @property
    def concept_indices(self) -> frozenset[int]:
        """Schema indices of the concepts this constraint mentions."""
        return frozenset(ci for ci, _ in self._atoms.values())

    @cached_property
    def _atoms(self):
        return _resolve_atoms(self.ast, self.schema)


def _resolve_atoms(node: Node, schema: Schema, table=None):
    if table is None:
        table = {}
    if isinstance(node, Atom):
        if node not in table:
            ci = schema.concept_index(node.concept)
            table[node] = (ci, schema.value_index(ci, node.value))
    elif isinstance(node, Not):
        _resolve_atoms(node.child, schema, table)
    else:
        _resolve_atoms(node.left, schema, table)
        _resolve_atoms(node.right, schema, table)
    return table


def _eval_batch(node: Node, atoms, rows: np.ndarray) -> np.ndarray:
    if isinstance(node, Atom):
        ci, vi = atoms[node]
        return rows[:, ci] == vi
    if isinstance(node, Not):
        return ~_eval_batch(node.child, atoms, rows)
    a = _eval_batch(node.left, atoms, rows)
    b = _eval_batch(node.right, atoms, rows)
    if isinstance(node, And):
        return a & b
    if isinstance(node, Or):
        return a | b
    if isinstance(node, Xor):
        return a ^ b
    return ~a | b  # Implies


def compile_constraint(
    ast: Node, schema: Schema, source: str | None = None, constraint_id: int = 0
) -> CompiledConstraint:
    """Resolve all atoms against the schema; bare atoms become =true."""
    resolved = _resolve_ast(ast, schema)
    if source is None:
        source = pretty(resolved)
    return CompiledConstraint(resolved, source, schema, constraint_id)


def _resolve_ast(node: Node, schema: Schema) -> Node:
    if isinstance(node, Atom):
        ci = schema.concept_index(node.concept)
        if node.value is None:
            if not schema.is_binary(ci):
                raise CompileError(
                    f"bare atom {node.concept!r} requires a binary concept; "
                    f"domain is {list(schema.domain(ci))}"
                )
            return Atom(node.concept, "true")
        schema.value_index(ci, node.value)  # validates
        return node
    if isinstance(node, Not):
        return Not(_resolve_ast(node.child, schema))
    cls = type(node)
    return cls(_resolve_ast(node.left, schema), _resolve_ast(node.right, schema))


def compile_source(source: str, schema: Schema, constraint_id: int = 0) -> CompiledConstraint:
    return compile_constraint(parse(source), schema, source.strip(), constraint_id)


def load_constraints(path, schema: Schema) -> list[CompiledConstraint]:
    """Read a knowledge base: one constraint per non-empty non-comment line."""
    compiled = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                compiled.append(compile_source(stripped, schema, len(compiled)))
            except ParseError as exc:
                raise ParseError(
                    f"{path}:{lineno}: {exc.args[0]}", exc.offset, stripped
                ) from exc
            except CompileError as exc:
                raise CompileError(f"{path}:{lineno}: {exc}") from exc
    return compiled


def save_constraints(constraints, path) -> None:
    write_text(path, "".join(c.source + "\n" for c in constraints))
