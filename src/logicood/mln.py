"""Markov logic network: scoring, exact inference, and weight learning.

The model is a log-linear distribution over the finite semantic space:
P(z) = exp(sum_i w_i * phi_i(z)) / Z, where phi_i(z) in {0, 1} indicates
satisfaction of constraint i. The standalone outlier score
-sum_i w_i * phi_i(z) needs no partition function and therefore works for
arbitrarily large spaces; exact probabilities and maximum-likelihood weight
fitting enumerate only the worlds of the concepts the knowledge base
mentions, are guarded by a configurable cap on that count, and add
log(product of the unmentioned domain sizes) to log Z: each unmentioned
concept multiplies Z by its domain size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import read_json, write_json
from .compiled import lbfgsb
from .constraints import CompiledConstraint
from .errors import NumericalError, SpaceCapError, ValidationError
from .schema import Dataset, Schema

DEFAULT_SPACE_CAP = 1_000_000


@dataclass(frozen=True)
class MlnModel:
    """Knowledge base of compiled constraints with one real weight each."""

    schema: Schema
    constraints: tuple[CompiledConstraint, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.shape != (len(self.constraints),):
            raise ValidationError(
                f"{len(self.constraints)} constraints but {w.shape} weights"
            )
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        for c in self.constraints:
            if c.schema != self.schema:
                raise ValidationError(
                    f"constraint {c.constraint_id} ({c.source!r}) is compiled "
                    "against another schema than the model's"
                )

    @property
    def mentioned_concepts(self) -> tuple[int, ...]:
        """Schema indices of the concepts the constraints mention, ascending:
        a row's values on them, its world, decide every constraint."""
        return tuple(sorted({ci for c in self.constraints for ci in c.concepts}))


@dataclass(frozen=True)
class FitConfig:
    """Weight-learning settings; defaults follow the original recipe
    (init -1, 10 epochs) plus an early-stop tolerance. L-BFGS chooses its
    own step sizes, so there is no learning rate."""

    max_epochs: int = 10
    convergence_tol: float = 1e-9
    init_weight: float = -1.0
    space_cap: int = DEFAULT_SPACE_CAP  # worlds over the concepts the KB mentions

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValidationError("max_epochs must be >= 1")
        if not self.convergence_tol >= 0:  # NaN too
            raise ValidationError(f"convergence_tol must be >= 0, got {self.convergence_tol}")
        if not math.isfinite(self.init_weight):
            raise ValidationError(f"init_weight must be finite, got {self.init_weight}")
        if self.space_cap < 1:
            raise ValidationError("space_cap must be >= 1")


@dataclass(frozen=True)
class ExplanationEntry:
    constraint_id: int
    source: str
    satisfied: bool
    weight: float
    contribution: float  # -w_i * phi_i(z)


@dataclass(frozen=True)
class ScoreExplanation:
    total_score: float
    entries: tuple[ExplanationEntry, ...]


def scores_from_columns(weights, columns, n: int) -> np.ndarray:
    """Outlier scores -sum_i w_i * column_i of n rows, taken one 0/1 column
    per constraint. The fixed knowledge-base summation order makes every
    score, total and explanation in the package bit-equal; this is the
    only place a score is summed."""
    scores = np.zeros(n)
    for w, column in zip(weights, columns):
        scores -= w * column
    return scores


def mln_score(model: MlnModel, z) -> float:
    """Outlier score -sum_i w_i * phi_i(z); no partition function."""
    return float(mln_score_batch(model, [z])[0])


def mln_score_batch(model: MlnModel, rows) -> np.ndarray:
    """mln_score over a (n, n_concepts) index matrix, one constraint column
    at a time so that no (n, M) matrix is held."""
    rows = model.schema.validate_rows(rows)
    columns = (c._truth(rows) for c in model.constraints)
    return scores_from_columns(model.weights, columns, len(rows))


def explain_batch(model: MlnModel, rows) -> list[ScoreExplanation]:
    """Per-constraint decomposition of the outlier score of each row; each
    total is bit-equal to mln_score_batch."""
    phi = satisfaction_matrix(model, rows)
    totals = scores_from_columns(model.weights, phi.T, len(phi))
    contributions = -model.weights * phi
    weights = model.weights.tolist()
    return [
        ScoreExplanation(
            total,
            tuple(
                ExplanationEntry(c.constraint_id, c.source, bool(sat), w, contribution)
                for c, sat, w, contribution in zip(model.constraints, sats, weights, row)
            ),
        )
        for total, sats, row in zip(totals.tolist(), phi.tolist(), contributions.tolist())
    ]


def explain(model: MlnModel, z) -> ScoreExplanation:
    """Per-constraint decomposition of the outlier score of one vector."""
    return explain_batch(model, [z])[0]


def _capped_size(sizes, space_cap: int) -> int:
    """The number of worlds of concepts with the given domain sizes, which
    must not exceed the cap."""
    size = math.prod(sizes)
    if size > space_cap:
        raise SpaceCapError(
            f"semantic space of {len(sizes)} concepts: {size} exceeds cap {space_cap}"
        )
    return size


def enumerate_space(
    schema: Schema, space_cap: int = DEFAULT_SPACE_CAP, concepts=None
) -> np.ndarray:
    """All assignments to the given concepts (schema indices; default all) as
    full-width index rows, lexicographic in the given order, every other column
    0, at most space_cap rows. The tests' reference: no package path calls it."""
    concepts = range(len(schema)) if concepts is None else concepts
    sizes = [schema.domain_sizes[ci] for ci in concepts]
    size = _capped_size(sizes, space_cap)
    worlds = np.zeros((size, len(schema)), dtype=np.int64)
    grids = np.meshgrid(*(np.arange(s) for s in sizes), indexing="ij")
    for ci, grid in zip(concepts, grids):
        worlds[:, ci] = grid.reshape(-1)
    return worlds


def satisfaction_matrix(model: MlnModel, rows) -> np.ndarray:
    """(n, M) matrix of phi_i over the given rows."""
    rows = model.schema.validate_rows(rows)
    phi = np.zeros((len(rows), len(model.constraints)))
    for i, c in enumerate(model.constraints):
        phi[:, i] = c._truth(rows)
    return phi


@dataclass(frozen=True)
class WorldTable:
    """The worlds of the concepts a knowledge base mentions, joined once from
    its constraints' own tables: log Z, a fit's data counts and the search's
    validation AUROC all read this one table."""

    concepts: tuple[int, ...]  # mentioned schema indices, ascending
    sizes: tuple[int, ...]  # their domain sizes
    phi: np.ndarray  # (worlds, M) satisfaction of each constraint per world
    log_free: float  # log of the number of assignments to all other concepts

    def codes(self, columns: np.ndarray) -> np.ndarray:
        """World index, in enumerate_space's order, of each row of a checked
        index matrix given as its (n_concepts, n) transpose."""
        if not self.concepts:
            return np.zeros(columns.shape[1], dtype=np.intp)
        return np.ravel_multi_index(tuple(columns[ci] for ci in self.concepts), self.sizes)


def world_table(model: MlnModel, space_cap: int = DEFAULT_SPACE_CAP) -> WorldTable:
    """The worlds of the concepts the model mentions, under the cap, checked
    before any table is read: the join of its constraints' own tables."""
    columns = ((c.concepts, c.table) for c in model.constraints)
    return joined_table(model.schema, model.mentioned_concepts, columns, space_cap)


def joined_table(
    schema: Schema, concepts, columns, space_cap: int = DEFAULT_SPACE_CAP
) -> WorldTable:
    """The table over the given concepts (ascending schema indices), under
    the cap, whose columns are the given (concepts, values) pairs: a
    constraint's ascending concepts, among the given ones, and its 0/1
    values over their worlds in enumerate_space's order, broadcast onto
    the table's worlds. It evaluates nothing. world_table(model) is this
    join over the concepts the model mentions and its constraints' tables."""
    concepts = tuple(concepts)
    sizes = tuple(schema.domain_sizes[ci] for ci in concepts)
    n = _capped_size(sizes, space_cap)
    columns = list(columns)  # after the cap check: a generator builds its tables under it
    phi = np.empty((n, len(columns)))
    grid = phi.reshape(*sizes, len(columns))
    for i, (own, values) in enumerate(columns):
        if not set(own).issubset(concepts):
            raise ValidationError("a column has a concept outside the joined table")
        grid[..., i] = values.reshape(
            [size if ci in own else 1 for ci, size in zip(concepts, sizes)]
        )
    free = math.prod(s for ci, s in enumerate(schema.domain_sizes) if ci not in concepts)
    return WorldTable(concepts, sizes, phi, math.log(free))


@dataclass(frozen=True)
class WorldCounts:
    """Sets of rows counted per distinct world of some concepts: a row's
    values on them, every other column 0; the counts go onto the worlds of
    any table over a subset of them in one pass over the distinct worlds.
    It sorts the rows' values and never codes a world, so no space is too
    large for it: greedy search and --explain group rows with it, while
    fit_weights, under the cap, counts WorldTable.codes with np.bincount."""

    worlds: np.ndarray  # (n_concepts, k) index columns of the distinct worlds
    counts: np.ndarray  # (sets, k) rows of each set in each world
    world_of: np.ndarray  # (rows,) each row's world, the sets' rows in order

    @classmethod
    def of(cls, concepts, row_sets) -> WorldCounts:
        """Count checked (n, n_concepts) index matrices per world of the
        concepts, reading the rows' values on them in the rows' own dtype
        (a Dataset's is already the narrowest)."""
        concepts = list(concepts)
        values = np.concatenate([rows[:, concepts] for rows in row_sets])
        n = len(values)
        # Sorted, equal rows are adjacent: each world starts where a row
        # differs from the one before it.
        order = np.lexsort(values.T[::-1]) if concepts else np.arange(n)
        values = values[order]
        starts = np.ones(n, dtype=bool)
        starts[1:] = np.any(values[1:] != values[:-1], axis=1)
        world = np.empty(n, dtype=np.intp)
        world[order] = np.cumsum(starts) - 1
        k = int(starts.sum())
        worlds = np.zeros((row_sets[0].shape[1], k), dtype=np.int64)
        worlds[concepts] = values[starts].T
        sets = np.repeat(np.arange(len(row_sets)), [len(r) for r in row_sets])
        counts = np.bincount(sets * k + world, minlength=len(row_sets) * k)
        return cls(worlds, counts.reshape(len(row_sets), k), world)

    def onto(self, table: WorldTable) -> np.ndarray:
        """(sets, worlds) counts per world of the table, in enumerate_space's
        order; the table's concepts must be among the counted ones. The sums
        are of integers, so they are exact."""
        n, sets = len(table.phi), len(self.counts)
        codes = table.codes(self.worlds) + n * np.arange(sets)[:, None]
        counts = np.bincount(codes.ravel(), self.counts.ravel(), minlength=sets * n)
        return counts.astype(np.int64).reshape(sets, n)


def _logsumexp(a: np.ndarray) -> np.float64:
    """scipy.special.logsumexp of a 1-d float array, bit for bit: the same
    steps on the same (1,)-shaped intermediates, without the per-call cost
    of scipy's array-API dispatch."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(keepdims=True)
        at_max = a == a_max
        m = at_max.sum(keepdims=True, dtype=np.float64)
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out[0]):
            # scipy's fallback for infinite and NaN results.
            out = np.log(np.exp(a).sum(keepdims=True))
    return out[0]


def log_partition(model: MlnModel, space_cap: int = DEFAULT_SPACE_CAP) -> float:
    """log sum_z exp(sum_i w_i phi_i(z)), via log-sum-exp over the mentioned
    concepts' worlds plus the log count of the rest."""
    worlds = world_table(model, space_cap)
    return float(_logsumexp(worlds.phi @ model.weights)) + worlds.log_free


@dataclass(frozen=True)
class SufficientStats:
    """Everything NLL needs: the model's world table and the data means."""

    worlds: WorldTable
    data_means: np.ndarray  # (M,) empirical satisfaction rates

    @classmethod
    def from_counts(cls, worlds: WorldTable, counts: np.ndarray) -> SufficientStats:
        """Statistics of data rows given as integer counts per world of the
        table. The sums stay exact integers, so the means equal
        satisfaction_matrix(data).mean(axis=0)."""
        return cls(worlds, counts @ worlds.phi / counts.sum())

    def nll_grad(self, w: np.ndarray):
        energies = self.worlds.phi @ w
        log_z = _logsumexp(energies)
        # Normalized over the mentioned worlds: each unmentioned assignment
        # repeats the same distribution, so the expectations are unchanged.
        probs = np.exp(energies - log_z)
        model_means = probs @ self.worlds.phi
        return (
            float(log_z + self.worlds.log_free - self.data_means @ w),
            model_means - self.data_means,
        )


def _stats(model: MlnModel, data: Dataset, space_cap: int) -> SufficientStats:
    if data.schema != model.schema:
        raise ValidationError("dataset schema differs from the model's")
    if len(data) == 0:
        raise ValidationError("cannot fit on an empty dataset")
    worlds = world_table(model, space_cap)
    counts = np.bincount(worlds.codes(data.vectors.T), minlength=len(worlds.phi))
    return SufficientStats.from_counts(worlds, counts)


def nll_and_gradient(
    model: MlnModel, data: Dataset, space_cap: int = DEFAULT_SPACE_CAP
):
    """Average negative log-likelihood of the data and its weight gradient.

    Gradient component i is E_model[phi_i] - mean_data[phi_i], with the
    model expectation computed exactly over the mentioned concepts' worlds.
    """
    stats = _stats(model, data, space_cap)
    return stats.nll_grad(model.weights)


@dataclass(frozen=True)
class FitResult:
    model: MlnModel
    nll_history: tuple[float, ...]  # NLL at init and after each accepted step
    epochs_used: int
    converged: bool  # L-BFGS-B stopped on its own convergence test


def fit_weights(
    model: MlnModel, data: Dataset, cfg: FitConfig = FitConfig()
) -> FitResult:
    """Maximum-likelihood weights via deterministic L-BFGS descent.

    Weights start at cfg.init_weight; the NLL sequence across accepted
    iterations is non-increasing, and fitting stops when the improvement
    drops below cfg.convergence_tol or after cfg.max_epochs steps.
    """
    stats = _stats(model, data, cfg.space_cap)
    weights, history, converged = fit_stats(stats, cfg)
    fitted = replace(model, weights=weights)
    return FitResult(fitted, history, len(history) - 1, converged)


def fit_stats(stats: SufficientStats, cfg: FitConfig) -> tuple[np.ndarray, tuple[float, ...], bool]:
    """The weights, NLL history and convergence of fit_weights, from the
    sufficient statistics alone: one weight per column of their world
    table (cfg.space_cap is not read). It is compiled.lbfgsb with the exact
    gradient, maxiter cfg.max_epochs, ftol cfg.convergence_tol and gtol
    1e-12, so minimize(method="L-BFGS-B")'s fit, bit for bit; the NLL at
    the start is the history's first entry and the routine's first request."""
    n = stats.worlds.phi.shape[1]
    if n == 0:
        # Nothing to fit: the empty weight vector is exact, at the NLL log |space|.
        return np.zeros(0), (stats.nll_grad(np.zeros(0))[0],), True
    history = []

    def accept(nll):  # at the start, then after each iteration
        if not math.isfinite(nll):
            at = f"iteration {len(history)}" if history else "initialization"
            raise NumericalError(f"non-finite NLL at {at}")
        history.append(nll)

    x, converged = lbfgsb(stats.nll_grad, np.full(n, cfg.init_weight), maxiter=cfg.max_epochs,
                          ftol=cfg.convergence_tol, gtol=1e-12, accept=accept)
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"non-finite weights after {len(history) - 1} iterations")
    return x, tuple(history), converged


# ---------------------------------------------------------------------------
# Weights file I/O


def save_weights(model: MlnModel, path) -> None:
    payload = [
        {"constraint": c.source, "weight": float(w)}
        for c, w in zip(model.constraints, model.weights)
    ]
    write_json(path, payload)


def load_weights(path, constraints) -> np.ndarray:
    """Read a weights JSON file and check it lines up with the knowledge base."""
    payload = read_json(path)
    if not isinstance(payload, list) or len(payload) != len(constraints):
        raise ValidationError(
            f"{path}: expected {len(constraints)} weight entries, got "
            f"{len(payload) if isinstance(payload, list) else type(payload).__name__}"
        )
    weights = np.empty(len(payload))
    for i, (entry, c) in enumerate(zip(payload, constraints)):
        if not isinstance(entry, dict):
            raise ValidationError(
                f"{path}: entry {i} is {type(entry).__name__}, expected an object"
            )
        if entry.get("constraint") != c.source:
            raise ValidationError(
                f"{path}: entry {i} is for {entry.get('constraint')!r}, "
                f"knowledge base has {c.source!r}"
            )
        weight = entry.get("weight")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValidationError(
                f"{path}: entry {i}: weight must be a number, got {weight!r}"
            )
        try:
            weights[i] = weight
        except OverflowError:  # an integer past the float range
            weights[i] = math.inf if weight > 0 else -math.inf
        if not math.isfinite(weights[i]):
            raise ValidationError(f"{path}: entry {i}: weight must be finite, got {weights[i]}")
    return weights
