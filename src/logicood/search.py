"""Candidate constraint generation and greedy constraint-set search.

Candidates are boolean trees over (possibly negated) binary concept
literals, enumerated in a fixed deterministic order and deduplicated so
that no two pool members are logically equivalent (in particular,
contrapositive pairs of implications collapse to one entry). The greedy
pass considers each candidate once, refits all weights with the candidate
added, and keeps it only if validation AUROC improves by more than the
acceptance margin delta_min.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import product
from typing import NamedTuple

import numpy as np

from .constraints import CONNECTIVES, Atom, CompiledConstraint, Node, Not, compile_constraint, pretty
from .errors import NumericalError, ValidationError
from .metrics import auroc_from_counts
from .mln import FitConfig, FitResult, MlnModel, fit_weights, scores_from_columns
from .schema import Dataset, Schema, id_subset

_CONNECTIVES = {c.token: c for c in CONNECTIVES}


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of the candidate pool."""

    max_depth: int = 2
    connectives: tuple[str, ...] = ("->",)
    allow_negation: bool = True
    concepts: tuple[str, ...] | None = None  # None: all schema concepts

    def __post_init__(self):
        if not 1 <= self.max_depth <= 3:
            raise ValidationError("max_depth must be 1, 2, or 3")
        for c in self.connectives:
            if c not in _CONNECTIVES:
                raise ValidationError(f"unknown connective {c!r}")


@dataclass(frozen=True)
class CandidatePool:
    config: GeneratorConfig
    candidates: tuple[Node, ...]

    def __len__(self):
        return len(self.candidates)


class _Literal(NamedTuple):
    ast: Node
    concept: int  # position in the concept selection
    truth: np.ndarray  # on the concept's values [false, true]


def generate_candidates(schema: Schema, config: GeneratorConfig) -> CandidatePool:
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

    literals: list[_Literal] = []
    for position, name in enumerate(names):
        literals.append(_Literal(Atom(name, "true"), position, np.array([False, True])))
        if config.allow_negation:
            literals.append(_Literal(Not(Atom(name, "true")), position, np.array([True, False])))
    connectives = [_CONNECTIVES[token] for token in config.connectives]

    # A candidate is keyed by the concepts it names and its truth table over
    # those concepts alone. The key is exact because every connective depends
    # on both operands and a candidate names each concept once, so a
    # candidate depends on every concept it names: two candidates are
    # equivalent exactly when they name the same concepts and have the same
    # table. Were a connective to ignore an operand, the key could only keep
    # a duplicate; it could never merge two different candidates.
    pool: list[Node] = []
    seen: set[tuple[tuple[int, ...], bytes]] = set()

    def add(ast: Node, lits: list[_Literal], truth) -> None:
        """Pool ast unless an equivalent candidate is pooled; truth maps its
        literals' truths, each on its own axis, to its table."""
        concepts = [lit.concept for lit in lits]
        table = truth(*np.meshgrid(*(lit.truth for lit in lits), indexing="ij", sparse=True))
        key = (tuple(sorted(concepts)), np.transpose(table, np.argsort(concepts)).tobytes())
        if key not in seen:
            seen.add(key)
            pool.append(ast)

    for lit in literals:
        add(lit.ast, [lit], lambda x: x)

    if config.max_depth >= 2:
        for conn in connectives:
            for a, b in product(literals, repeat=2):
                if a.concept != b.concept:
                    add(conn.node(a.ast, b.ast), [a, b], conn.truth)

    if config.max_depth >= 3:
        for outer, inner in product(connectives, repeat=2):
            for a, b, c in product(literals, repeat=3):
                if len({a.concept, b.concept, c.concept}) < 3:
                    continue
                add(outer.node(a.ast, inner.node(b.ast, c.ast)), [a, b, c],
                    lambda x, y, z: outer.truth(x, inner.truth(y, z)))
                add(outer.node(inner.node(a.ast, b.ast), c.ast), [a, b, c],
                    lambda x, y, z: outer.truth(inner.truth(x, y), z))

    return CandidatePool(config, tuple(pool))


@dataclass(frozen=True)
class SearchConfig:
    delta_min: float = 0.01
    baseline_j0: float = 0.5
    seed_constraints: tuple[Node, ...] = ()
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.delta_min < 0:
            raise ValidationError("delta_min must be >= 0")


@dataclass(frozen=True)
class AuditEntry:
    candidate: str
    auroc: float | None
    accepted: bool
    error: str | None = None


@dataclass(frozen=True)
class SearchResult:
    model: MlnModel  # fitted model over the accepted set
    final_auroc: float
    audit: tuple[AuditEntry, ...]
    pool_size: int
    delta_min: float

    def to_json_dict(self):
        return {
            "delta_min": self.delta_min,
            "pool_size": self.pool_size,
            "final_auroc": self.final_auroc,
            "accepted": [
                {"constraint": c.source, "weight": float(w)}
                for c, w in zip(self.model.constraints, self.model.weights)
            ],
            "audit": [asdict(e) for e in self.audit],
        }


def greedy_search(
    train: Dataset, val: Dataset, pool: CandidatePool, config: SearchConfig
) -> SearchResult:
    """One pass over the pool, accepting candidates that lift validation
    AUROC by more than delta_min; exactly len(pool) fit/evaluate rounds.

    No constraint is evaluated on a validation row: each fit's AUROC comes
    from the counts of ID and OOD validation rows per world the fit
    enumerated, each world scored once."""
    if len(pool) == 0:
        raise ValidationError("candidate pool is empty")
    if val.schema != train.schema:
        raise ValidationError("validation schema differs from the training schema")
    if val.is_ood is None or not (np.any(val.is_ood) and np.any(~val.is_ood)):
        raise ValidationError("validation set must contain both ID and OOD rows")
    train_id = id_subset(train)
    if len(train_id) == 0:
        raise ValidationError("training set has no ID rows")
    schema = train.schema
    columns = np.ascontiguousarray(val.vectors.T)
    is_ood = val.is_ood.astype(np.intp)

    def fit(constraints):
        base = MlnModel(schema, tuple(constraints), np.zeros(len(constraints)))
        return fit_weights(base, train_id, config.fit)

    def val_auroc(fitted: FitResult) -> float:
        """A constraint reads only the concepts it mentions, so a row scores
        as its world: bit-equal to auroc over mln_score_batch of every row."""
        worlds = fitted.worlds
        n = len(worlds.phi)
        counts = np.bincount(2 * worlds.codes(columns) + is_ood, minlength=2 * n)
        scores = scores_from_columns(fitted.model.weights, worlds.phi.T, n)
        return auroc_from_counts(scores, counts[0::2], counts[1::2])

    working: list[CompiledConstraint] = []
    for ast in config.seed_constraints:
        working.append(compile_constraint(ast, schema, constraint_id=len(working)))
    best_j = config.baseline_j0
    best = fit(working)
    if working:
        best_j = max(best_j, val_auroc(best))

    audit: list[AuditEntry] = []
    for ast in pool.candidates:
        source = pretty(ast)
        candidate = compile_constraint(ast, schema, constraint_id=len(working))
        try:
            fitted = fit(working + [candidate])
        except NumericalError as exc:
            audit.append(AuditEntry(source, None, False, str(exc)))
            continue
        j_prime = val_auroc(fitted)
        accepted = j_prime > best_j + config.delta_min
        audit.append(AuditEntry(source, j_prime, accepted))
        if accepted:
            working.append(candidate)
            best_j = j_prime
            best = fitted

    return SearchResult(best.model, best_j, tuple(audit), len(pool), config.delta_min)
