"""Synthetic benchmarks as they were sampled before synthesis read the
joined world table: every world of the schema enumerated as a full-width
row, every constraint evaluated over those rows, and the uniform OOD law
as its own branch. Kept as the reference the table sampler is checked
against bit for bit."""

from __future__ import annotations

import numpy as np

from logicood.mln import enumerate_space, satisfaction_matrix
from logicood.schema import Dataset
from logicood.synth import attach_detector_scores


def _streams(spec):
    id_seq, ood_seq, _ = np.random.SeedSequence(spec.seed).spawn(3)
    return np.random.default_rng(id_seq), np.random.default_rng(ood_seq)


def _world_probabilities(model, space_cap):
    worlds = enumerate_space(model.schema, space_cap)
    energies = satisfaction_matrix(model, worlds) @ model.weights
    energies -= energies.max()
    probs = np.exp(energies)
    probs /= probs.sum()
    return worlds, probs


def _sample_worlds(worlds, probs, n, rng, prefix, is_ood):
    cumulative = np.cumsum(probs)
    cumulative[-1] = 1.0
    picks = np.searchsorted(cumulative, rng.random(n), side="right")
    return worlds[picks], tuple(f"{prefix}{i}" for i in range(n)), np.full(n, is_ood)


def sample_id(spec) -> Dataset:
    rng, _ = _streams(spec)
    worlds, probs = _world_probabilities(spec.model, spec.space_cap)
    rows, ids, flags = _sample_worlds(worlds, probs, spec.n_id, rng, "id_", False)
    return Dataset(spec.schema, rows, ids, is_ood=flags)


def sample_ood(spec) -> Dataset:
    _, rng = _streams(spec)
    if spec.ood_mode == "uniform_over_Z":
        worlds = enumerate_space(spec.schema, spec.space_cap)
        probs = np.full(worlds.shape[0], 1.0 / worlds.shape[0])
    else:
        worlds, probs = _world_probabilities(spec.alternate_model, spec.space_cap)
    rows, ids, flags = _sample_worlds(worlds, probs, spec.n_ood, rng, "ood_", True)
    return Dataset(spec.schema, rows, ids, is_ood=flags)


def make_benchmark(spec) -> Dataset:
    ids, oods = sample_id(spec), sample_ood(spec)
    vectors = np.concatenate([ids.vectors, oods.vectors])
    is_ood = np.concatenate([ids.is_ood, oods.is_ood])
    data = Dataset(spec.schema, vectors, ids.sample_ids + oods.sample_ids, is_ood=is_ood)
    if spec.detector is not None:
        data = attach_detector_scores(data, spec)
    return data
