import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.special import logsumexp

from conftest import random_ast, random_schema, random_vectors
from logicood import mln
from logicood.constraints import compile_constraint, compile_source
from logicood.errors import SpaceCapError, ValidationError
from logicood.mln import (
    FitConfig,
    MlnModel,
    enumerate_space,
    explain,
    fit_weights,
    log_partition,
    log_prob,
    mln_score,
    mln_score_batch,
    nll_and_gradient,
    satisfaction_matrix,
)
from logicood.schema import Dataset, Schema, semantic_space_size

BIN2 = Schema((("p", ("false", "true")), ("q", ("false", "true"))))


def model(schema, sources, weights):
    compiled = tuple(compile_source(s, schema, i) for i, s in enumerate(sources))
    return MlnModel(schema, compiled, np.asarray(weights, dtype=np.float64))


def dataset(schema, vectors):
    vectors = np.asarray(vectors, dtype=np.int64)
    return Dataset(schema, vectors, tuple(str(i) for i in range(len(vectors))))


def random_model(rng, max_concepts=4, max_constraints=6):
    schema = random_schema(rng, max_concepts=max_concepts)
    n = int(rng.integers(1, max_constraints + 1))
    constraints = tuple(
        compile_constraint(random_ast(rng, schema, max_depth=4), schema, constraint_id=i)
        for i in range(n)
    )
    weights = rng.normal(scale=1.5, size=n)
    return MlnModel(schema, constraints, weights)


# ---------------------------------------------------------------------------
# Scoring


def test_mln_score_all_satisfied():
    m = model(BIN2, ["p", "q"], [1.0, 2.5])
    assert mln_score(m, [1, 1]) == -3.5
    assert mln_score(m, [0, 0]) == 0.0


def test_mln_score_zero_weights(rng):
    m = model(BIN2, ["p", "q or p"], [0.0, 0.0])
    for row in random_vectors(rng, BIN2, 10):
        assert mln_score(m, row) == 0.0


def test_violation_changes_score_by_weight():
    m = model(BIN2, ["p -> q"], [4.89])
    satisfied = mln_score(m, [1, 1])
    violated = mln_score(m, [1, 0])
    assert violated - satisfied == pytest.approx(4.89)


def test_mln_score_batch_matches_scalar(rng):
    m = random_model(rng)
    rows = random_vectors(rng, m.schema, 200)
    batch = mln_score_batch(m, rows)
    for i in range(200):
        assert batch[i] == mln_score(m, rows[i])  # bit-exact


def test_score_ignores_partition_cap():
    # Scoring must work even when the space is far beyond any enumeration cap.
    schema = Schema(tuple((f"b{i}", ("false", "true")) for i in range(40)))
    m = MlnModel(schema, (compile_source("b0 -> b1", schema),), np.array([2.0]))
    z = np.zeros(40, dtype=np.int64)
    assert mln_score(m, z) == -2.0


# ---------------------------------------------------------------------------
# Enumeration and exact inference


def test_enumerate_space_order():
    worlds = enumerate_space(BIN2)
    assert worlds.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_enumerate_space_sizes():
    schema = Schema((("a", ("x", "y", "z")), ("b", ("f", "t"))))
    assert enumerate_space(schema).shape == (6, 2)


def test_enumerate_space_cap():
    schema = Schema((("a", ("x", "y", "z")), ("b", ("f", "t"))))
    with pytest.raises(SpaceCapError, match="6 exceeds cap 4"):
        enumerate_space(schema, space_cap=4)


def test_enumerate_space_subset_order_and_cap():
    schema = Schema((("a", ("x", "y", "z")), ("b", ("f", "t")), ("c", ("f", "t"))))
    worlds = enumerate_space(schema, space_cap=4, concepts=[2, 1])
    assert worlds.tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]]
    with pytest.raises(SpaceCapError, match="3 exceeds cap 2"):
        enumerate_space(schema, space_cap=2, concepts=[0])


def test_log_partition_two_worlds():
    schema = Schema((("p", ("false", "true")),))
    for w in (-2.0, 0.0, 1.7):
        m = model(schema, ["p"], [w])
        assert log_partition(m) == pytest.approx(math.log(1 + math.exp(w)), rel=1e-12)


def test_log_partition_zero_weights_is_log_size(rng):
    m = random_model(rng)
    m = MlnModel(m.schema, m.constraints, np.zeros(len(m.constraints)))
    size = enumerate_space(m.schema).shape[0]
    assert log_partition(m) == pytest.approx(math.log(size), rel=1e-12)


def test_log_partition_matches_naive_sum(rng):
    for _ in range(20):
        m = random_model(rng)
        worlds = enumerate_space(m.schema)
        naive = math.log(
            sum(
                math.exp(sum(w * c.evaluate(z) for c, w in zip(m.constraints, m.weights)))
                for z in worlds
            )
        )
        assert log_partition(m) == pytest.approx(naive, rel=1e-12)


def test_log_prob_logistic_form():
    schema = Schema((("p", ("false", "true")),))
    w = 1.3
    m = model(schema, ["p"], [w])
    assert math.exp(log_prob(m, [1])) == pytest.approx(math.exp(w) / (1 + math.exp(w)))


def test_probabilities_sum_to_one(rng):
    for _ in range(20):
        m = random_model(rng)
        total = sum(math.exp(log_prob(m, z)) for z in enumerate_space(m.schema))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_rank_preservation(rng):
    # Ordering by mln_score equals ordering by negative probability.
    m = random_model(rng)
    rows = random_vectors(rng, m.schema, 50)
    scores = mln_score_batch(m, rows)
    neg_probs = np.array([-math.exp(log_prob(m, z)) for z in rows])
    assert np.array_equal(np.argsort(scores, kind="stable"), np.argsort(neg_probs, kind="stable"))


# ---------------------------------------------------------------------------
# NLL and gradient


def test_gradient_closed_form_at_zero(rng):
    m = model(BIN2, ["p -> q"], [0.0])
    data = dataset(BIN2, [[1, 1], [1, 0], [0, 0], [1, 1]])
    nll, grad = nll_and_gradient(m, data)
    space_rate = 3 / 4
    empirical_rate = 3 / 4
    assert grad[0] == pytest.approx(space_rate - empirical_rate, abs=1e-12)
    assert nll == pytest.approx(math.log(4))


def test_gradient_zero_for_exhaustive_uniform_data(rng):
    m = random_model(rng)
    m = MlnModel(m.schema, m.constraints, np.zeros(len(m.constraints)))
    data = dataset(m.schema, enumerate_space(m.schema))
    _, grad = nll_and_gradient(m, data)
    assert np.max(np.abs(grad)) < 1e-12


def test_gradient_matches_finite_differences(rng):
    h = 1e-5
    for _ in range(20):
        m = random_model(rng)
        data = dataset(m.schema, random_vectors(rng, m.schema, 30))
        _, grad = nll_and_gradient(m, data)
        for i in range(len(m.weights)):
            wp, wm = m.weights.copy(), m.weights.copy()
            wp[i] += h
            wm[i] -= h
            fp, _ = nll_and_gradient(MlnModel(m.schema, m.constraints, wp), data)
            fm, _ = nll_and_gradient(MlnModel(m.schema, m.constraints, wm), data)
            fd = (fp - fm) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_nll_empty_dataset():
    m = model(BIN2, ["p"], [0.0])
    with pytest.raises(ValidationError, match="empty"):
        nll_and_gradient(m, dataset(BIN2, np.zeros((0, 2))))


def partial_kb_model(rng):
    """Random model whose KB leaves some schema concepts unmentioned."""
    schema = random_schema(rng, max_concepts=6)
    keep = sorted(rng.choice(len(schema), size=int(rng.integers(1, len(schema) + 1)), replace=False))
    sub = Schema(tuple(schema.concepts[i] for i in keep))
    n = int(rng.integers(1, 5))
    constraints = tuple(
        compile_constraint(random_ast(rng, sub, max_depth=4), schema, constraint_id=i)
        for i in range(n)
    )
    return MlnModel(schema, constraints, rng.normal(scale=1.5, size=n))


def full_space_nll_and_gradient(m, data):
    """NLL and gradient by enumerating every world of the schema."""
    worlds = np.array(list(itertools.product(*(range(s) for s in m.schema.domain_sizes))))
    phi = np.stack([c.evaluate_batch(worlds) for c in m.constraints], axis=1).astype(float)
    energies = phi @ m.weights
    log_z = logsumexp(energies)
    data_means = satisfaction_matrix(m, data.vectors).mean(axis=0)
    model_means = np.exp(energies - log_z) @ phi
    return log_z, log_z - data_means @ m.weights, model_means - data_means


def test_mentioned_inference_matches_full_enumeration(rng):
    unmentioned = 0
    for _ in range(40):
        m = partial_kb_model(rng)
        data = dataset(m.schema, random_vectors(rng, m.schema, 40))
        log_z, nll, grad = full_space_nll_and_gradient(m, data)
        assert log_partition(m) == pytest.approx(log_z, rel=1e-12)
        got_nll, got_grad = nll_and_gradient(m, data)
        assert got_nll == pytest.approx(nll, rel=1e-12)
        np.testing.assert_allclose(got_grad, grad, rtol=1e-12, atol=1e-14)
        mentioned = {ci for c in m.constraints for ci in c.concept_indices}
        unmentioned += len(mentioned) < len(m.schema)
    assert unmentioned >= 10  # the oracle covered the factored path


def test_data_means_bit_identical(rng):
    for _ in range(20):
        m = partial_kb_model(rng)
        data = dataset(m.schema, random_vectors(rng, m.schema, 200))
        stats = mln._stats(m, data, mln.DEFAULT_SPACE_CAP)
        expected = satisfaction_matrix(m, data.vectors).mean(axis=0)
        assert np.array_equal(stats.data_means, expected)


def test_empty_kb_log_partition_is_log_size(rng):
    for _ in range(10):
        schema = random_schema(rng)
        m = MlnModel(schema, (), np.zeros(0))
        assert log_partition(m) == math.log(semantic_space_size(schema))
        data = dataset(schema, random_vectors(rng, schema, 5))
        nll, grad = nll_and_gradient(m, data)
        assert nll == math.log(semantic_space_size(schema))
        assert grad.shape == (0,)


def test_fit_beyond_full_space_cap_closed_form(rng):
    # 2^25 worlds exceed the default cap; the KB mentions 4 concepts.
    schema = Schema(tuple((f"c{i}", ("false", "true")) for i in range(25)))
    assert semantic_space_size(schema) > mln.DEFAULT_SPACE_CAP
    m = model(schema, ["c0 -> c1", "c2 xor c3"], [0.0, 0.0])
    data = dataset(schema, random_vectors(rng, schema, 500))
    fitted = fit_weights(m, data).model
    w1, w2 = fitted.weights
    closed = (
        math.log(3 * math.exp(w1) + 1)
        + math.log(2 * math.exp(w2) + 2)
        + 21 * math.log(2)
    )
    assert log_partition(fitted) == pytest.approx(closed, rel=1e-12)


# ---------------------------------------------------------------------------
# Fitting


def test_fit_single_rule_closed_form():
    schema = Schema((("p", ("false", "true")),))
    m = model(schema, ["p"], [0.0])
    data = dataset(schema, [[1]] * 75 + [[0]] * 25)
    result = fit_weights(m, data, FitConfig(max_epochs=200))
    assert result.model.weights[0] == pytest.approx(math.log(3), abs=1e-3)


def test_fit_two_independent_rules():
    m = model(BIN2, ["p", "q"], [0.0, 0.0])
    rows = []
    for i in range(100):
        rows.append([1 if i < 90 else 0, 1 if i % 2 == 0 else 0])
    result = fit_weights(m, dataset(BIN2, rows), FitConfig(max_epochs=300))
    assert result.model.weights[0] == pytest.approx(math.log(9), abs=1e-2)
    assert result.model.weights[1] == pytest.approx(0.0, abs=1e-2)


def test_fit_nll_monotone_and_deterministic(rng):
    m = random_model(rng)
    data = dataset(m.schema, random_vectors(rng, m.schema, 100))
    cfg = FitConfig(max_epochs=50)
    r1 = fit_weights(m, data, cfg)
    r2 = fit_weights(m, data, cfg)
    assert np.array_equal(r1.model.weights, r2.model.weights)
    hist = np.asarray(r1.nll_history)
    assert np.all(np.diff(hist) <= 1e-12)


def reference_fit(m, data, cfg):
    """fit_weights with the NLL recomputed at every accepted iterate."""
    stats = mln._stats(m, data, cfg.space_cap)
    w0 = np.full(len(m.constraints), cfg.init_weight)
    history = [stats.nll(w0)]
    result = optimize.minimize(
        stats.nll_grad,
        w0,
        jac=True,
        method="L-BFGS-B",
        callback=lambda wk: history.append(stats.nll(wk)),
        options={"maxiter": cfg.max_epochs, "ftol": cfg.convergence_tol, "gtol": 1e-12},
    )
    return tuple(history), result.x, result.nit


@given(st.integers(0, 10_000), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_fit_history_bit_equal_to_recomputed_nll(seed, max_epochs):
    r = np.random.default_rng(seed)
    m = random_model(r)
    data = dataset(m.schema, random_vectors(r, m.schema, int(r.integers(1, 200))))
    cfg = FitConfig(max_epochs=max_epochs, init_weight=float(r.choice([-1.0, 0.0, 2.0])))
    fit = fit_weights(m, data, cfg)
    history, weights, nit = reference_fit(m, data, cfg)
    assert fit.nll_history == history
    assert np.array_equal(fit.model.weights, weights)
    assert fit.epochs_used == nit


_LSE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.0, np.inf, -np.inf, np.nan]),
    st.integers(-30, 30).map(float),
    st.floats(-700.0, 700.0),
)


@given(st.lists(_LSE_VALUES, min_size=1, max_size=300))
@settings(max_examples=300, deadline=None)
def test_logsumexp_bit_equal_to_scipy(values):
    a = np.asarray(values, dtype=np.float64)
    expected, got = logsumexp(a), mln._logsumexp(a)
    assert type(got) is type(expected)
    assert np.array_equal(got, expected, equal_nan=True)


@given(st.integers(0, 10_000), st.integers(1, 2000))
@settings(max_examples=60, deadline=None)
def test_logsumexp_bit_equal_on_energies(seed, n):
    # Integer-valued energies tie often, the way phi @ w does for round weights.
    r = np.random.default_rng(seed)
    for a in (r.integers(-4, 3, size=n) * 0.5, r.normal(scale=20.0, size=n)):
        assert mln._logsumexp(a) == logsumexp(a)


def test_fit_degenerate_mle_capped():
    # 100% satisfaction: the MLE diverges; max_epochs bounds the run and
    # the NLL stays monotone.
    schema = Schema((("p", ("false", "true")),))
    m = model(schema, ["p"], [0.0])
    data = dataset(schema, [[1]] * 50)
    result = fit_weights(m, data, FitConfig(max_epochs=25))
    hist = np.asarray(result.nll_history)
    assert np.all(np.diff(hist) <= 1e-12)
    assert result.model.weights[0] > 1.0


def test_fit_respects_space_cap():
    # The cap counts worlds over the mentioned concepts: p -> q has 4.
    m = model(BIN2, ["p -> q"], [0.0])
    data = dataset(BIN2, [[1, 1]])
    with pytest.raises(SpaceCapError):
        fit_weights(m, data, FitConfig(space_cap=2))


# ---------------------------------------------------------------------------
# Explanation


def test_explain_decomposition_exact(rng):
    for _ in range(30):
        m = random_model(rng)
        z = random_vectors(rng, m.schema, 1)[0]
        report = explain(m, z)
        assert report.total_score == mln_score(m, z)  # bit-exact
        assert sum(e.contribution for e in report.entries) == report.total_score
        assert [e.constraint_id for e in report.entries] == list(range(len(m.constraints)))


def test_explain_all_satisfied():
    m = model(BIN2, ["p", "q"], [1.0, 2.0])
    report = explain(m, [1, 1])
    assert all(e.satisfied for e in report.entries)
    assert [e.contribution for e in report.entries] == [-1.0, -2.0]


def test_explain_violation_delta_matches_weight():
    m = model(BIN2, ["p -> q"], [4.89])
    sat = explain(m, [1, 1])
    vio = explain(m, [1, 0])
    assert not vio.entries[0].satisfied
    assert vio.entries[0].contribution == 0.0
    assert vio.total_score - sat.total_score == pytest.approx(4.89)


def test_explain_negative_weight_violation_lowers_score():
    m = model(BIN2, ["p -> q"], [-2.0])
    sat = explain(m, [1, 1])
    vio = explain(m, [1, 0])
    assert vio.total_score < sat.total_score
