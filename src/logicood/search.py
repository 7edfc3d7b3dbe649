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

import json
from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    And,
    Atom,
    CompiledConstraint,
    Implies,
    Node,
    Not,
    Or,
    Xor,
    compile_constraint,
    pretty,
)
from .errors import NumericalError, ValidationError
from .metrics import auroc
from .mln import FitConfig, MlnModel, enumerate_space, fit_weights, mln_score_batch
from .schema import Dataset, Schema

_CONNECTIVES = {"->": Implies, "and": And, "or": Or, "xor": Xor}


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

    def sources(self):
        return [pretty(c) for c in self.candidates]


def _truth_signature(ast: Node, schema: Schema, worlds) -> bytes:
    compiled = compile_constraint(ast, schema)
    return compiled.evaluate_batch(worlds).tobytes()


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
            "audit": [
                {
                    "candidate": e.candidate,
                    "auroc": e.auroc,
                    "accepted": e.accepted,
                    "error": e.error,
                }
                for e in self.audit
            ],
        }


def _id_subset(data: Dataset) -> Dataset:
    if data.is_ood is None:
        return data
    keep = ~data.is_ood
    return Dataset(
        data.schema,
        data.vectors[keep],
        tuple(np.asarray(data.sample_ids, dtype=object)[keep]),
        None if data.detector_scores is None else data.detector_scores[keep],
        data.is_ood[keep],
    )


def _val_auroc(model: MlnModel, val: Dataset) -> float:
    scores = mln_score_batch(model, val.vectors)
    return auroc(scores[~val.is_ood], scores[val.is_ood])


def greedy_search(
    train: Dataset, val: Dataset, pool: CandidatePool, config: SearchConfig
) -> SearchResult:
    """One pass over the pool, accepting candidates that lift validation
    AUROC by more than delta_min; exactly len(pool) fit/evaluate rounds."""
    if len(pool) == 0:
        raise ValidationError("candidate pool is empty")
    if val.is_ood is None or not (np.any(val.is_ood) and np.any(~val.is_ood)):
        raise ValidationError("validation set must contain both ID and OOD rows")
    train_id = _id_subset(train)
    if len(train_id) == 0:
        raise ValidationError("training set has no ID rows")
    schema = train.schema

    def fit_set(asts):
        compiled = tuple(
            compile_constraint(ast, schema, constraint_id=i)
            for i, ast in enumerate(asts)
        )
        base = MlnModel(schema, compiled, np.zeros(len(compiled)))
        return fit_weights(base, train_id, config.fit).model

    working: list[Node] = list(config.seed_constraints)
    best_j = config.baseline_j0
    best_model = fit_set(working)
    if working:
        best_j = max(best_j, _val_auroc(best_model, val))

    audit: list[AuditEntry] = []
    for ast in pool.candidates:
        source = pretty(ast)
        try:
            candidate_model = fit_set(working + [ast])
            j_prime = _val_auroc(candidate_model, val)
        except NumericalError as exc:
            audit.append(AuditEntry(source, None, False, str(exc)))
            continue
        accepted = j_prime > best_j + config.delta_min
        audit.append(AuditEntry(source, j_prime, accepted))
        if accepted:
            working.append(ast)
            best_j = j_prime
            best_model = candidate_model

    return SearchResult(best_model, best_j, tuple(audit), len(pool), config.delta_min)


def objective(j: float, constraint_count: int, lam: float) -> float:
    """Regularized search objective: performance minus lam * set size."""
    if not 0.0 <= j <= 1.0:
        raise ValidationError("performance J must be in [0, 1]")
    if lam < 0:
        raise ValidationError("lambda must be >= 0")
    return j - lam * constraint_count


def save_search_report(result: SearchResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json_dict(), fh, indent=2)
        fh.write("\n")
