"""Seeded synthetic benchmarks with known ground truth.

ID semantic vectors are sampled exactly from a specified constraint model
by inverse-CDF lookup over the model's world table: the join of its
constraints' own tables over every concept, so no world is built as a row
and no constraint is evaluated here. OOD vectors come either from the
uniform distribution over the space, the empty model's, or from an
alternate model. Detector scores are drawn from per-class parametric laws.

Randomness: numpy's PCG64 via `default_rng`. A benchmark seed is expanded
with `SeedSequence(seed).spawn(3)` into independent streams for ID
vectors, OOD vectors, and detector scores, so adding or removing one
stage never perturbs the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions
from .artifacts import read_json
from .constraints import compile_source
from .errors import ValidationError
from .mln import DEFAULT_SPACE_CAP, MlnModel, joined_table
from .schema import Dataset, Schema, schema_from_dict

OOD_MODES = ("uniform_over_Z", "alternate_mln")


@dataclass(frozen=True)
class DetectorSpec:
    """Score laws for the simulated baseline detector."""

    family: str
    id_params: dict
    ood_params: dict

    def __post_init__(self):
        # Parameters the family refuses fail here; ones that draw a score
        # that is not finite fail in attach_detector_scores.
        self.id_distribution()
        self.ood_distribution()

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
        for key, least in (("n_id", 1), ("n_ood", 1), ("seed", 0), ("space_cap", 1)):
            if getattr(self, key) < least:
                raise ValidationError(f"{key}: must be >= {least}")
        if self.ood_mode not in OOD_MODES:
            raise ValidationError(f"ood_mode: unknown mode {self.ood_mode!r}")
        if self.ood_mode == "alternate_mln" and self.alternate_model is None:
            raise ValidationError("ood_mode: alternate_mln requires alternate_model")
        for key, model in (("model", self.model), ("alternate_model", self.alternate_model)):
            if model is not None and model.schema != self.schema:
                raise ValidationError(f"{key}: compiled against another schema than the spec's")


def _streams(spec: SynthSpec):
    id_seq, ood_seq, det_seq = np.random.SeedSequence(spec.seed).spawn(3)
    return (
        np.random.default_rng(id_seq),
        np.random.default_rng(ood_seq),
        np.random.default_rng(det_seq),
    )


def _sample(model: MlnModel, space_cap: int, n, rng, prefix, is_ood) -> Dataset:
    """n worlds of every concept drawn i.i.d. from the model, by inverse CDF
    over the cumulative sums of its world probabilities in enumeration order."""
    schema = model.schema
    columns = ((c.concepts, c.table) for c in model.constraints)
    table = joined_table(schema, range(len(schema)), columns, space_cap)
    energies = table.phi @ model.weights
    probs = np.exp(energies - energies.max())
    cumulative = np.cumsum(probs / probs.sum())
    cumulative[-1] = 1.0
    picks = np.searchsorted(cumulative, rng.random(n), side="right")
    # The one world of no concepts is the empty row, which unravel_index cannot give.
    rows = np.column_stack(np.unravel_index(picks, table.sizes)) if schema else np.zeros((n, 0))
    return Dataset(schema, rows, tuple(f"{prefix}{i}" for i in range(n)), is_ood=np.full(n, is_ood))


def sample_id(spec: SynthSpec) -> Dataset:
    """n_id vectors drawn i.i.d. from the ground-truth model."""
    rng, _, _ = _streams(spec)
    return _sample(spec.model, spec.space_cap, spec.n_id, rng, "id_", False)


def sample_ood(spec: SynthSpec) -> Dataset:
    """n_ood vectors from the contrast distribution, flagged __is_ood=1: the
    alternate model's, or the uniform one of the empty model."""
    _, rng, _ = _streams(spec)
    uniform = MlnModel(spec.schema, (), np.zeros(0))
    model = uniform if spec.ood_mode == "uniform_over_Z" else spec.alternate_model
    return _sample(model, spec.space_cap, spec.n_ood, rng, "ood_", True)


def attach_detector_scores(data: Dataset, spec: SynthSpec) -> Dataset:
    """Draw per-row detector scores from the class-conditional laws; a law
    that draws a score that is not finite raises ValidationError."""
    if spec.detector is None:
        raise ValidationError("spec has no detector model")
    if data.is_ood is None:
        raise ValidationError("rows must be flagged before attaching scores")
    _, _, rng = _streams(spec)
    # One uniform per row in row order, so the stream is consumed identically
    # regardless of how ID and OOD rows are interleaved.
    u = rng.random(len(data))
    scores = np.empty(len(data))
    for key, rows, law in (
        ("id_params", ~data.is_ood, spec.detector.id_distribution()),
        ("ood_params", data.is_ood, spec.detector.ood_distribution()),
    ):
        scores[rows] = distributions.quantile(law, u[rows])
        if not np.all(np.isfinite(scores[rows])):
            raise ValidationError(f"detector: {key}: draws scores that are not finite")
    return Dataset(data.schema, data.vectors, data.sample_ids, scores, data.is_ood)


def make_benchmark(spec: SynthSpec) -> Dataset:
    """ID rows then OOD rows, with detector scores when a detector law is given."""
    ids, oods = sample_id(spec), sample_ood(spec)
    vectors = np.concatenate([ids.vectors, oods.vectors])
    is_ood = np.concatenate([ids.is_ood, oods.is_ood])
    data = Dataset(spec.schema, vectors, ids.sample_ids + oods.sample_ids, is_ood=is_ood)
    if spec.detector is not None:
        data = attach_detector_scores(data, spec)
    return data


# ---------------------------------------------------------------------------
# JSON config


def _model_from_config(schema: Schema, raw: dict) -> MlnModel:
    if not isinstance(raw, dict):
        raise ValidationError(f"expected an object, got {type(raw).__name__}")
    sources = raw.get("constraints", [])
    weights = raw.get("weights", [])
    if len(sources) != len(weights):
        raise ValidationError("constraints and weights must have the same length")
    compiled = tuple(compile_source(s, schema, i) for i, s in enumerate(sources))
    return MlnModel(schema, compiled, np.asarray(weights, dtype=np.float64))


_REQUIRED = object()


def _whole(value) -> int:
    """int(value) of a JSON number, refusing a fractional one, a bool or a
    string."""
    if isinstance(value, bool | str) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def load_synth_spec(path) -> SynthSpec:
    """Read a SynthSpec JSON config; see README for the full format. Every
    error names the file, and the field at fault."""
    raw = read_json(path)

    def field(key, convert, default=_REQUIRED):
        """convert(raw[key]), with any failure named by its field; null counts
        as absent."""
        if raw.get(key) is None:
            if default is _REQUIRED:
                raise ValidationError(f"missing field {key!r}")
            return default
        try:
            return convert(raw[key])
        except KeyError as exc:
            raise ValidationError(f"{key}: missing field {exc}") from exc
        except (TypeError, ValueError, ValidationError) as exc:
            raise ValidationError(f"{key}: {exc}") from exc

    try:
        if not isinstance(raw, dict):
            raise ValidationError(f"expected a JSON object, got {type(raw).__name__}")
        schema = field("schema", schema_from_dict)
        return SynthSpec(  # whose own checks name their field too
            schema=schema,
            model=field("model", lambda m: _model_from_config(schema, m)),
            n_id=field("n_id", _whole),
            n_ood=field("n_ood", _whole),
            ood_mode=field("ood_mode", str, "uniform_over_Z"),
            alternate_model=field("alternate_model", lambda m: _model_from_config(schema, m), None),
            detector=field(
                "detector",
                lambda d: DetectorSpec(d["family"], d["id_params"], d["ood_params"]),
                None,
            ),
            seed=field("seed", _whole, 0),
            space_cap=field("space_cap", _whole, DEFAULT_SPACE_CAP),
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
