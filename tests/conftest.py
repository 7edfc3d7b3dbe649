"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's vectorized code paths:
the AST interpreter walks trees on plain Python ints, and the metric
oracles are O(n^2) pairwise/sweep implementations.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest

from logicood import artifacts
from logicood.constraints import And, Atom, Implies, Node, Not, Or, Xor
from logicood.schema import Schema

# Rows per CSV block at which readers are tested beside the default block size.
SMALL_BLOCKS = pytest.mark.parametrize("block", [1, 2, 3], ids=["1-row", "2-row", "3-row"])


def block_rows(rows, width):
    """artifacts.BLOCK_CELLS patched so that a block holds the given rows of
    a file `width` cells wide; None keeps the default."""
    if rows is None:
        return contextlib.nullcontext()
    return mock.patch.object(artifacts, "BLOCK_CELLS", rows * width)


# ---------------------------------------------------------------------------
# Independent AST interpreter (boolean semantics oracle)


def interpret(node: Node, schema: Schema, z) -> bool:
    """Direct AST walk on a single vector of domain indices."""
    if isinstance(node, Atom):
        ci = schema.concept_index(node.concept)
        value = node.value if node.value is not None else "true"
        return z[ci] == schema.domain(ci).index(value)
    if isinstance(node, Not):
        return not interpret(node.child, schema, z)
    a = interpret(node.left, schema, z)
    b = interpret(node.right, schema, z)
    if isinstance(node, And):
        return a and b
    if isinstance(node, Or):
        return a or b
    if isinstance(node, Xor):
        return a != b
    if isinstance(node, Implies):
        return (not a) or b
    raise TypeError(node)


# ---------------------------------------------------------------------------
# Random structure generators (plain RNG; hypothesis strategies live in the
# test modules that need shrinking)


def random_schema(rng: np.random.Generator, max_concepts=5, max_domain=4) -> Schema:
    n = rng.integers(1, max_concepts + 1)
    concepts = []
    for i in range(n):
        size = rng.integers(2, max_domain + 1)
        if rng.random() < 0.4:
            domain = ("false", "true")
        else:
            domain = tuple(f"v{j}" for j in range(size))
        concepts.append((f"c{i}", domain))
    return Schema(tuple(concepts))


def random_ast(rng: np.random.Generator, schema: Schema, max_depth=5) -> Node:
    if max_depth <= 1 or rng.random() < 0.3:
        ci = int(rng.integers(0, len(schema)))
        name, domain = schema.concepts[ci]
        value = domain[int(rng.integers(0, len(domain)))]
        return Atom(name, value)
    kind = rng.integers(0, 5)
    if kind == 0:
        return Not(random_ast(rng, schema, max_depth - 1))
    cls = (And, Or, Xor, Implies)[kind - 1]
    return cls(
        random_ast(rng, schema, max_depth - 1),
        random_ast(rng, schema, max_depth - 1),
    )


def random_vectors(rng: np.random.Generator, schema: Schema, n: int) -> np.ndarray:
    sizes = np.asarray(schema.domain_sizes)
    return (rng.random((n, len(schema))) * sizes).astype(np.int64)


# ---------------------------------------------------------------------------
# Brute-force metric oracles


def auroc_brute(id_scores, ood_scores) -> float:
    total = 0.0
    for o in ood_scores:
        for i in id_scores:
            if o > i:
                total += 1.0
            elif o == i:
                total += 0.5
    return total / (len(id_scores) * len(ood_scores))


def fpr_at_tpr_brute(id_scores, ood_scores, tpr_target=0.95) -> float:
    id_scores = np.asarray(id_scores)
    ood_scores = np.asarray(ood_scores)
    best_tau = None
    for tau in np.unique(ood_scores):
        if np.mean(ood_scores >= tau) >= tpr_target:
            if best_tau is None or tau > best_tau:
                best_tau = tau
    assert best_tau is not None
    return float(np.mean(id_scores >= best_tau))


def aupr_brute(scores_pos, scores_neg) -> float:
    scores_pos = np.asarray(scores_pos)
    scores_neg = np.asarray(scores_neg)
    thresholds = np.unique(np.concatenate([scores_pos, scores_neg]))[::-1]
    area = 0.0
    prev_recall = 0.0
    for tau in thresholds:
        tp = np.sum(scores_pos >= tau)
        fp = np.sum(scores_neg >= tau)
        precision = tp / (tp + fp)
        recall = tp / scores_pos.size
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return float(area)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
