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

from dataclasses import dataclass, field

import numpy as np

from .constraints import CONNECTIVES, Atom, CompiledConstraint, Node, Not, compile_constraint, pretty
from .errors import NumericalError, ValidationError
from .metrics import auroc_from_counts
from .mln import FitConfig, MlnModel, enumerate_space, fit_weights, scores_from_columns
from .schema import Dataset, Schema, id_subset

_CONNECTIVES = {c.token: c.node for c in CONNECTIVES}


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


@dataclass(frozen=True)
class _RowPatterns:
    """Rows grouped by which working-set constraints they satisfy: row r
    has pattern index[r], and bits[p, i] is 1 when pattern p satisfies
    member i. Only patterns that some row has are kept, so there are never
    more patterns than rows, whatever the working-set size."""

    index: np.ndarray  # (n,) in [0, len(bits))
    bits: np.ndarray  # (patterns, members) of 0/1

    def extend(self, column: np.ndarray) -> "_RowPatterns":
        """The patterns after appending one member with this 0/1 column."""
        codes = 2 * self.index + column
        present = np.flatnonzero(np.bincount(codes, minlength=2 * len(self.bits)))
        compact = np.empty(2 * len(self.bits), dtype=np.intp)
        compact[present] = np.arange(present.size)
        bits = np.column_stack([self.bits[present >> 1], present & 1])
        return _RowPatterns(compact[codes], bits)

    def auroc(self, weights: np.ndarray, is_ood: np.ndarray) -> float:
        """Validation AUROC of mln_score_batch with these member weights,
        bit-equal to scoring every row: each pattern is scored by the same
        scores_from_columns that mln_score_batch uses."""
        counts = np.bincount(2 * self.index + is_ood, minlength=2 * len(self.bits))
        table = scores_from_columns(weights, self.bits.T, len(self.bits))
        return auroc_from_counts(table, counts[0::2], counts[1::2])


def greedy_search(
    train: Dataset, val: Dataset, pool: CandidatePool, config: SearchConfig
) -> SearchResult:
    """One pass over the pool, accepting candidates that lift validation
    AUROC by more than delta_min; exactly len(pool) fit/evaluate rounds.

    Each candidate is compiled and evaluated on the validation rows once;
    its AUROC comes from the counts of ID and OOD rows per satisfaction
    pattern of the working set plus the candidate."""
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
    # The Dataset checked val's rows against this schema once; candidates
    # evaluate them with _truth, unchecked.
    is_ood = val.is_ood.astype(np.intp)

    def fit(constraints):
        base = MlnModel(schema, tuple(constraints), np.zeros(len(constraints)))
        return fit_weights(base, train_id, config.fit).model

    working: list[CompiledConstraint] = []
    patterns = _RowPatterns(np.zeros(len(val), dtype=np.intp), np.zeros((1, 0), np.intp))
    for ast in config.seed_constraints:
        working.append(compile_constraint(ast, schema, constraint_id=len(working)))
        patterns = patterns.extend(working[-1]._truth(val.vectors))
    best_j = config.baseline_j0
    best_model = fit(working)
    if working:
        best_j = max(best_j, patterns.auroc(best_model.weights, is_ood))

    audit: list[AuditEntry] = []
    for ast in pool.candidates:
        source = pretty(ast)
        candidate = compile_constraint(ast, schema, constraint_id=len(working))
        try:
            candidate_model = fit(working + [candidate])
        except NumericalError as exc:
            audit.append(AuditEntry(source, None, False, str(exc)))
            continue
        extended = patterns.extend(candidate._truth(val.vectors))
        j_prime = extended.auroc(candidate_model.weights, is_ood)
        accepted = j_prime > best_j + config.delta_min
        audit.append(AuditEntry(source, j_prime, accepted))
        if accepted:
            working.append(candidate)
            patterns = extended
            best_j = j_prime
            best_model = candidate_model

    return SearchResult(best_model, best_j, tuple(audit), len(pool), config.delta_min)
