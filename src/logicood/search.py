"""Candidate constraint generation and greedy constraint-set search.

Candidates are boolean trees over (possibly negated) binary concept
literals, enumerated in a fixed deterministic order and deduplicated so
that no two pool members are logically equivalent (in particular,
contrapositive pairs of implications collapse to one entry): each is
keyed on its concepts and its truth table over their worlds alone, from
constraints.truth_table, the function behind CompiledConstraint.table.
The greedy pass considers each candidate once, refits all weights with
the candidate added, and keeps it only if validation AUROC improves by
more than the acceptance margin delta_min.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np

from .constraints import (
    CONNECTIVES, Atom, Node, Not, compile_constraint, pretty, truth_table, world_values,
)
from .errors import NumericalError, ValidationError
from .metrics import auroc_from_counts
from .mln import (
    FitConfig,
    MlnModel,
    SufficientStats,
    WorldCounts,
    fit_stats,
    joined_table,
    scores_from_columns,
)
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


def generate_candidates(schema: Schema, config: GeneratorConfig) -> tuple[Node, ...]:
    """Deterministic pool: literals first (selection order, positive before
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

    literals: list[tuple[Node, int]] = []  # (tree, schema index)
    atoms: dict[Atom, tuple[int, int]] = {}
    for name in names:
        ci, atom = schema.concept_index(name), Atom(name, "true")
        atoms[atom] = (ci, schema.value_index(ci, "true"))
        literals.append((atom, ci))
        if config.allow_negation:
            literals.append((Not(atom), ci))
    connectives = [_CONNECTIVES[token] for token in config.connectives]

    # A candidate is keyed by the concepts it names and its truth table over
    # those concepts alone: its compiled constraint's (concepts, table). The
    # key is exact because every connective depends on both operands and a
    # candidate names each concept once, so a candidate depends on every
    # concept it names: two candidates are equivalent exactly when they name
    # the same concepts and have the same table. Were a connective to ignore
    # an operand, the key could only keep a duplicate; it could never merge
    # two different candidates.
    pool: list[Node] = []
    seen: set[tuple[tuple[int, ...], bytes]] = set()
    values: dict[tuple[int, ...], dict] = {}  # world_values per concept set

    def add(ast: Node, *concepts: int) -> None:
        """Pool ast, over the given schema indices, unless an equivalent is pooled."""
        concepts = tuple(sorted(concepts))
        if concepts not in values:
            values[concepts] = world_values(schema, concepts)
        key = (concepts, truth_table(ast, atoms, values[concepts]).tobytes())
        if key not in seen:
            seen.add(key)
            pool.append(ast)

    for a, i in literals:
        add(a, i)

    if config.max_depth >= 2:
        for conn in connectives:
            for (a, i), (b, j) in product(literals, repeat=2):
                if i != j:
                    add(conn.node(a, b), i, j)

    if config.max_depth >= 3:
        for outer, inner in product(connectives, repeat=2):
            for (a, i), (b, j), (c, k) in product(literals, repeat=3):
                if len({i, j, k}) < 3:
                    continue
                add(outer.node(a, inner.node(b, c)), i, j, k)
                add(outer.node(inner.node(a, b), c), i, j, k)

    return tuple(pool)


@dataclass(frozen=True)
class SearchConfig:
    delta_min: float = 0.01
    baseline_j0: float = 0.5
    seed_constraints: tuple[Node, ...] = ()
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if not 0 <= self.delta_min < math.inf:  # NaN too
            raise ValidationError(f"delta_min must be finite and >= 0, got {self.delta_min}")
        if not math.isfinite(self.baseline_j0):
            raise ValidationError(f"baseline_j0 must be finite, got {self.baseline_j0}")
        if not 0 <= self.baseline_j0 <= 1:  # the final AUROC when nothing is accepted
            raise ValidationError(f"baseline_j0 must be an AUROC in [0, 1], got {self.baseline_j0}")


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


def _own_columns(schema: Schema, trees, space_cap: int):
    """Each tree's (concepts, table): the schema indices it mentions,
    ascending, and its compiled constraint's 0/1 table over their worlds.
    Each tree is compiled here, so a tree that does not compile raises
    before any fit; the compiled constraint is not kept. A tree over the
    cap gets table None and its table is never built: every fit with the
    tree is over the cap too, and raises before reading it."""
    columns = []
    for tree in trees:
        constraint = compile_constraint(tree, schema, source="")  # not kept, so not printed
        concepts = constraint.concepts
        under = math.prod(schema.domain_sizes[ci] for ci in concepts) <= space_cap
        columns.append((concepts, constraint.table if under else None))
    return columns


def greedy_search(
    train: Dataset, val: Dataset, pool: Sequence[Node], config: SearchConfig
) -> SearchResult:
    """One pass over the pool, accepting candidates that lift validation
    AUROC by more than delta_min; exactly len(pool) fit/evaluate rounds.

    Each seed and candidate is compiled once, before the pass, and only
    its own table is kept; the training and validation rows are counted
    once per distinct world of the concepts any of them mentions. A fit
    joins its members' tables onto its worlds, as world_table does, and
    sums the counts onto them, so its statistics and its validation AUROC
    are those of its world table, bit for bit, with no world enumerated,
    constraint compiled or evaluated, or row coded. Only the accepted set
    is compiled again, for the model."""
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
    space_cap = config.fit.space_cap

    trees = (*config.seed_constraints, *pool)
    columns = _own_columns(schema, trees, space_cap)
    rows = WorldCounts.of(
        sorted(set().union(*(concepts for concepts, _ in columns))),
        [train_id.vectors, val.vectors[~val.is_ood], val.vectors[val.is_ood]],
    )

    def fit(members):
        """Fit the members, indices into trees; the weights and their
        validation AUROC."""
        own = [columns[i] for i in members]
        concepts = sorted(set().union(*(c for c, _ in own)))
        table = joined_table(schema, concepts, own, space_cap)
        train_counts, val_id, val_ood = rows.onto(table)
        weights = fit_stats(SufficientStats.from_counts(table, train_counts), config.fit)[0]
        # A constraint reads only the concepts it mentions, so a row scores
        # as its world: bit-equal to auroc over mln_score_batch of every row.
        scores = scores_from_columns(weights, table.phi.T, len(table.phi))
        return weights, auroc_from_counts(scores, val_id, val_ood)

    working = list(range(len(config.seed_constraints)))
    best, j = fit(working)
    best_j = max(config.baseline_j0, j) if working else config.baseline_j0

    audit: list[AuditEntry] = []
    for index, tree in enumerate(pool, len(config.seed_constraints)):
        source = pretty(tree)
        try:
            weights, j_prime = fit(working + [index])
        except NumericalError as exc:
            audit.append(AuditEntry(source, None, False, str(exc)))
            continue
        accepted = j_prime > best_j + config.delta_min
        audit.append(AuditEntry(source, j_prime, accepted))
        if accepted:
            working.append(index)
            best_j = j_prime
            best = weights

    kb = tuple(compile_constraint(trees[i], schema, constraint_id=k) for k, i in enumerate(working))
    model = MlnModel(schema, kb, best)
    return SearchResult(model, best_j, tuple(audit), len(pool), config.delta_min)
