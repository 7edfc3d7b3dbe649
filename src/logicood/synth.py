"""Seeded synthetic benchmarks with known ground truth.

ID semantic vectors are sampled exactly from a specified constraint model
via enumeration and inverse-CDF lookup; OOD vectors come either from the
uniform distribution over the space or from an alternate model. Detector
scores are drawn from per-class parametric laws.

Randomness: numpy's PCG64 via `default_rng`. A benchmark seed is expanded
with `SeedSequence(seed).spawn(3)` into independent streams for ID
vectors, OOD vectors, and detector scores, so adding or removing one
stage never perturbs the others.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import distributions
from .constraints import compile_source
from .errors import ValidationError
from .mln import DEFAULT_SPACE_CAP, MlnModel, enumerate_space, satisfaction_matrix
from .schema import Dataset, Schema, schema_from_dict

OOD_MODES = ("uniform_over_Z", "alternate_mln")


@dataclass(frozen=True)
class DetectorSpec:
    """Score laws for the simulated baseline detector."""

    family: str
    id_params: dict
    ood_params: dict

    def id_distribution(self):
        return distributions.ScoreDistribution(self.family, dict(self.id_params))

    def ood_distribution(self):
        return distributions.ScoreDistribution(self.family, dict(self.ood_params))


@dataclass(frozen=True)
class SynthSpec:
    schema: Schema
    model: MlnModel  # ground-truth generating model
    n_id: int
    n_ood: int
    ood_mode: str = "uniform_over_Z"
    alternate_model: MlnModel | None = None
    detector: DetectorSpec | None = None
    seed: int = 0
    space_cap: int = DEFAULT_SPACE_CAP

    def __post_init__(self):
        if self.n_id < 1 or self.n_ood < 1:
            raise ValidationError("n_id and n_ood must be >= 1")
        if self.ood_mode not in OOD_MODES:
            raise ValidationError(f"unknown ood_mode {self.ood_mode!r}")
        if self.ood_mode == "alternate_mln" and self.alternate_model is None:
            raise ValidationError("ood_mode alternate_mln requires alternate_model")


def _streams(spec: SynthSpec):
    id_seq, ood_seq, det_seq = np.random.SeedSequence(spec.seed).spawn(3)
    return (
        np.random.default_rng(id_seq),
        np.random.default_rng(ood_seq),
        np.random.default_rng(det_seq),
    )


def _world_probabilities(model: MlnModel, space_cap: int):
    worlds = enumerate_space(model.schema, space_cap)
    energies = satisfaction_matrix(model, worlds) @ model.weights
    energies -= energies.max()
    probs = np.exp(energies)
    probs /= probs.sum()
    return worlds, probs


def _sample_worlds(worlds, probs, n, rng, prefix, is_ood):
    # Inverse CDF over cumulative sums in enumeration order.
    cumulative = np.cumsum(probs)
    cumulative[-1] = 1.0
    picks = np.searchsorted(cumulative, rng.random(n), side="right")
    schema_rows = worlds[picks]
    ids = tuple(f"{prefix}{i}" for i in range(n))
    flags = np.full(n, is_ood)
    return schema_rows, ids, flags


def sample_id(spec: SynthSpec) -> Dataset:
    """n_id vectors drawn i.i.d. from the ground-truth model."""
    rng, _, _ = _streams(spec)
    worlds, probs = _world_probabilities(spec.model, spec.space_cap)
    rows, ids, flags = _sample_worlds(worlds, probs, spec.n_id, rng, "id_", False)
    return Dataset(spec.schema, rows, ids, is_ood=flags)


def sample_ood(spec: SynthSpec) -> Dataset:
    """n_ood vectors from the contrast distribution, flagged __is_ood=1."""
    _, rng, _ = _streams(spec)
    if spec.ood_mode == "uniform_over_Z":
        worlds = enumerate_space(spec.schema, spec.space_cap)
        probs = np.full(worlds.shape[0], 1.0 / worlds.shape[0])
    else:
        worlds, probs = _world_probabilities(spec.alternate_model, spec.space_cap)
    rows, ids, flags = _sample_worlds(worlds, probs, spec.n_ood, rng, "ood_", True)
    return Dataset(spec.schema, rows, ids, is_ood=flags)


def attach_detector_scores(data: Dataset, spec: SynthSpec) -> Dataset:
    """Draw per-row detector scores from the class-conditional laws."""
    if spec.detector is None:
        raise ValidationError("spec has no detector model")
    if data.is_ood is None:
        raise ValidationError("rows must be flagged before attaching scores")
    _, _, rng = _streams(spec)
    # One uniform per row in row order, so the stream is consumed identically
    # regardless of how ID and OOD rows are interleaved.
    u = rng.random(len(data))
    scores = np.empty(len(data))
    ood_mask = data.is_ood
    scores[~ood_mask] = distributions.quantile(
        spec.detector.id_distribution(), u[~ood_mask]
    )
    scores[ood_mask] = distributions.quantile(
        spec.detector.ood_distribution(), u[ood_mask]
    )
    return Dataset(data.schema, data.vectors, data.sample_ids, scores, data.is_ood)


def concat(a: Dataset, b: Dataset) -> Dataset:
    """Stack two datasets over the same schema (row order a then b)."""
    if a.schema != b.schema:
        raise ValidationError("datasets have different schemas")

    def merge(x, y):
        if x is None and y is None:
            return None
        if x is None or y is None:
            raise ValidationError("cannot concat datasets with mismatched columns")
        return np.concatenate([x, y])

    return Dataset(
        a.schema,
        np.concatenate([a.vectors, b.vectors]),
        a.sample_ids + b.sample_ids,
        merge(a.detector_scores, b.detector_scores),
        merge(a.is_ood, b.is_ood),
    )


def make_benchmark(spec: SynthSpec) -> Dataset:
    """ID + OOD rows with detector scores when a detector law is given."""
    data = concat(sample_id(spec), sample_ood(spec))
    if spec.detector is not None:
        data = attach_detector_scores(data, spec)
    return data


# ---------------------------------------------------------------------------
# JSON config


def _model_from_config(schema: Schema, raw: dict) -> MlnModel:
    sources = raw.get("constraints", [])
    weights = raw.get("weights", [])
    if len(sources) != len(weights):
        raise ValidationError("constraints and weights must have the same length")
    compiled = tuple(compile_source(s, schema, i) for i, s in enumerate(sources))
    return MlnModel(schema, compiled, np.asarray(weights, dtype=np.float64))


def load_synth_spec(path) -> SynthSpec:
    """Read a SynthSpec JSON config; see README for the full format."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}:{exc.lineno}: invalid JSON: {exc.msg} (column {exc.colno})"
            ) from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    try:
        schema = schema_from_dict(raw["schema"])
        model = _model_from_config(schema, raw["model"])
        alternate = (
            _model_from_config(schema, raw["alternate_model"])
            if "alternate_model" in raw
            else None
        )
        detector = None
        if "detector" in raw:
            d = raw["detector"]
            detector = DetectorSpec(d["family"], d["id_params"], d["ood_params"])
        return SynthSpec(
            schema=schema,
            model=model,
            n_id=int(raw["n_id"]),
            n_ood=int(raw["n_ood"]),
            ood_mode=raw.get("ood_mode", "uniform_over_Z"),
            alternate_model=alternate,
            detector=detector,
            seed=int(raw.get("seed", 0)),
            space_cap=int(raw.get("space_cap", DEFAULT_SPACE_CAP)),
        )
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from exc
