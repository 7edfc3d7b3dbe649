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

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize

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


@dataclass(frozen=True)
class FitConfig:
    """Weight-learning settings; defaults follow the original recipe
    (init -1, 10 epochs, learning rate 0.01) plus an early-stop tolerance."""

    max_epochs: int = 10
    learning_rate: float = 0.01
    convergence_tol: float = 1e-9
    init_weight: float = -1.0
    space_cap: int = DEFAULT_SPACE_CAP  # worlds over the concepts the KB mentions

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValidationError("max_epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be > 0")
        if self.convergence_tol < 0:
            raise ValidationError("convergence_tol must be >= 0")
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


def mln_score(model: MlnModel, z) -> float:
    """Outlier score -sum_i w_i * phi_i(z); no partition function.

    Accumulates in knowledge-base order, matching mln_score_batch bit-exactly.
    """
    score = 0.0
    for c, w in zip(model.constraints, model.weights):
        score -= float(w) * c.evaluate(z)
    return score


def mln_score_batch(model: MlnModel, rows) -> np.ndarray:
    """Vectorized mln_score over a (n, n_concepts) index matrix."""
    rows = np.asarray(rows, dtype=np.int64)
    scores = np.zeros(rows.shape[0])
    # Fixed knowledge-base summation order for bit-reproducibility.
    for c, w in zip(model.constraints, model.weights):
        scores -= w * c.evaluate_batch(rows)
    return scores


def explain(model: MlnModel, z) -> ScoreExplanation:
    """Per-constraint decomposition of the outlier score."""
    entries = []
    total = 0.0
    for c, w in zip(model.constraints, model.weights):
        sat = c.evaluate(z)
        contribution = -float(w) * sat
        total += contribution
        entries.append(
            ExplanationEntry(c.constraint_id, c.source, bool(sat), float(w), contribution)
        )
    return ScoreExplanation(total, tuple(entries))


def enumerate_space(
    schema: Schema, space_cap: int = DEFAULT_SPACE_CAP, concepts=None
) -> np.ndarray:
    """All assignments to the given concepts (schema indices; default all)
    as full-width index rows, lexicographic in the given order, with every
    other column at index 0. The cap applies to the number of rows."""
    concepts = range(len(schema)) if concepts is None else concepts
    sizes = [schema.domain_sizes[ci] for ci in concepts]
    size = math.prod(sizes)
    if size > space_cap:
        raise SpaceCapError(
            f"semantic space of {len(sizes)} concepts: {size} exceeds cap {space_cap}"
        )
    worlds = np.zeros((size, len(schema)), dtype=np.int64)
    grids = np.meshgrid(*(np.arange(s) for s in sizes), indexing="ij")
    for ci, grid in zip(concepts, grids):
        worlds[:, ci] = grid.reshape(-1)
    return worlds


def satisfaction_matrix(model: MlnModel, rows: np.ndarray) -> np.ndarray:
    """(n, M) matrix of phi_i over the given rows."""
    if not model.constraints:
        return np.zeros((rows.shape[0], 0))
    return np.stack(
        [c.evaluate_batch(rows) for c in model.constraints], axis=1
    ).astype(np.float64)


def _mentioned_worlds(model: MlnModel, space_cap: int):
    """The mentioned concepts (ascending schema indices), their enumerated
    worlds, and log of the number of assignments to all other concepts."""
    concepts = sorted({ci for c in model.constraints for ci in c.concept_indices})
    worlds = enumerate_space(model.schema, space_cap, concepts)
    sizes = model.schema.domain_sizes
    free = math.prod(s for ci, s in enumerate(sizes) if ci not in concepts)
    return concepts, worlds, math.log(free)


def _logsumexp(a: np.ndarray) -> np.float64:
    """scipy.special.logsumexp of a 1-d float array, bit for bit: the same
    steps on the same (1,)-shaped intermediates, without the per-call cost
    of scipy's array-API dispatch."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, keepdims=True)
        at_max = a == a_max
        m = np.sum(at_max, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out[0]):
            # scipy's fallback for infinite and NaN results.
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return out[0]


def log_partition(model: MlnModel, space_cap: int = DEFAULT_SPACE_CAP) -> float:
    """log sum_z exp(sum_i w_i phi_i(z)), via log-sum-exp over the mentioned
    concepts' worlds plus the log count of the rest."""
    _, worlds, log_free = _mentioned_worlds(model, space_cap)
    phi = satisfaction_matrix(model, worlds)
    return float(_logsumexp(phi @ model.weights)) + log_free


def log_prob(model: MlnModel, z, space_cap: int = DEFAULT_SPACE_CAP) -> float:
    """Exact log-probability of one possible world."""
    return -mln_score(model, z) - log_partition(model, space_cap)


@dataclass(frozen=True)
class _SufficientStats:
    """Everything NLL needs after one pass over data and space."""

    phi_worlds: np.ndarray  # (|mentioned worlds|, M)
    data_means: np.ndarray  # (M,) empirical satisfaction rates
    log_free: float  # log Z over all worlds minus log Z over mentioned ones

    def nll(self, w: np.ndarray) -> float:
        return float(_logsumexp(self.phi_worlds @ w) + self.log_free - self.data_means @ w)

    def nll_grad(self, w: np.ndarray):
        energies = self.phi_worlds @ w
        log_z = _logsumexp(energies)
        # Normalized over the mentioned worlds: each unmentioned assignment
        # repeats the same distribution, so the expectations are unchanged.
        probs = np.exp(energies - log_z)
        model_means = probs @ self.phi_worlds
        return (
            float(log_z + self.log_free - self.data_means @ w),
            model_means - self.data_means,
        )


def _stats(model: MlnModel, data: Dataset, space_cap: int) -> _SufficientStats:
    if len(data) == 0:
        raise ValidationError("cannot fit on an empty dataset")
    concepts, worlds, log_free = _mentioned_worlds(model, space_cap)
    phi_worlds = satisfaction_matrix(model, worlds)
    # Counting data rows per mentioned world keeps every sum an exact
    # integer, so the means equal satisfaction_matrix(data).mean(axis=0).
    if concepts:
        sizes = [model.schema.domain_sizes[ci] for ci in concepts]
        codes = np.ravel_multi_index(tuple(data.vectors[:, concepts].T), sizes)
    else:
        codes = np.zeros(len(data), dtype=np.intp)
    counts = np.bincount(codes, minlength=len(worlds))
    return _SufficientStats(phi_worlds, counts @ phi_worlds / len(data), log_free)


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


def fit_weights(
    model: MlnModel, data: Dataset, cfg: FitConfig = FitConfig()
) -> FitResult:
    """Maximum-likelihood weights via deterministic L-BFGS descent.

    Weights start at cfg.init_weight; the NLL sequence across accepted
    iterations is non-increasing, and fitting stops when the improvement
    drops below cfg.convergence_tol or after cfg.max_epochs steps.
    """
    if not model.constraints:
        return FitResult(replace(model, weights=np.zeros(0)), (np.nan,), 0)
    stats = _stats(model, data, cfg.space_cap)
    w0 = np.full(len(model.constraints), cfg.init_weight)

    history = [stats.nll(w0)]
    if not np.isfinite(history[0]):
        raise NumericalError("non-finite NLL at initialization")

    def record(intermediate_result):
        # The NLL L-BFGS has just computed at the accepted point.
        value = float(intermediate_result.fun)
        if not np.isfinite(value):
            raise NumericalError(
                f"non-finite NLL at iteration {len(history)}"
            )
        history.append(value)

    result = optimize.minimize(
        stats.nll_grad,
        w0,
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={
            "maxiter": cfg.max_epochs,
            "ftol": cfg.convergence_tol,
            "gtol": 1e-12,
        },
    )
    w = np.asarray(result.x, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NumericalError(f"non-finite weights after {len(history) - 1} iterations")
    return FitResult(replace(model, weights=w), tuple(history), result.nit)


# ---------------------------------------------------------------------------
# Weights file I/O


def save_weights(model: MlnModel, path) -> None:
    payload = [
        {"constraint": c.source, "weight": float(w)}
        for c, w in zip(model.constraints, model.weights)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_weights(path, constraints) -> np.ndarray:
    """Read a weights JSON file and check it lines up with the knowledge base."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}:{exc.lineno}: invalid JSON: {exc.msg} (column {exc.colno})"
            ) from None
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
        weights[i] = weight
    return weights
