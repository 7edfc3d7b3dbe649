import itertools
import math
import sys
from importlib import machinery
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from conftest import interpret, random_ast, random_schema, random_vectors
from fit_reference import reference_fit
from logicood import compiled, mln
from logicood.constraints import Not, compile_constraint, compile_source
from logicood.distributions import fit_distribution
from logicood.errors import SpaceCapError, ValidationError
from logicood.mln import (
    FitConfig,
    MlnModel,
    enumerate_space,
    explain,
    explain_batch,
    fit_weights,
    log_partition,
    mln_score,
    mln_score_batch,
    nll_and_gradient,
    satisfaction_matrix,
)
from logicood.schema import Dataset, Schema

BIN2 = Schema((("p", ("false", "true")), ("q", ("false", "true"))))


def model(schema, sources, weights):
    compiled = tuple(compile_source(s, schema, i) for i, s in enumerate(sources))
    return MlnModel(schema, compiled, np.asarray(weights, dtype=np.float64))


def dataset(schema, vectors):
    vectors = np.asarray(vectors, dtype=np.int64)
    return Dataset(schema, vectors, tuple(str(i) for i in range(len(vectors))))


def reference_score(m, z) -> float:
    """-sum_i w_i * phi_i(z) in knowledge-base order, on the independent
    interpreter."""
    score = 0.0
    for c, w in zip(m.constraints, m.weights):
        score -= float(w) * int(interpret(c.ast, m.schema, z))
    return score


def bits(x) -> bytes:
    """The float64 bit pattern, so 0.0 and -0.0 differ."""
    return np.float64(x).tobytes()


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
        assert bits(batch[i]) == bits(reference_score(m, rows[i]))
        assert bits(mln_score(m, rows[i])) == bits(batch[i])


def test_score_ignores_partition_cap():
    # Scoring must work even when the space is far beyond any enumeration cap.
    schema = Schema(tuple((f"b{i}", ("false", "true")) for i in range(40)))
    m = MlnModel(schema, (compile_source("b0 -> b1", schema),), np.array([2.0]))
    z = np.zeros(40, dtype=np.int64)
    assert mln_score(m, z) == -2.0


def test_model_rejects_constraint_of_another_schema():
    # p is column 0 of BIN2 but column 1 of QP: a model over BIN2 that read
    # p from column 1 would score [[1, 0]] as 0 instead of -1.
    qp = Schema((("q", ("false", "true")), ("p", ("false", "true"))))
    with pytest.raises(ValidationError, match="another schema"):
        MlnModel(BIN2, (compile_source("p", qp),), np.array([1.0]))
    assert mln_score_batch(model(BIN2, ["p"], [1.0]), [[1, 0]]).tolist() == [-1.0]


def test_empty_kb_rejects_bad_rows():
    empty = MlnModel(BIN2, (), np.zeros(0))
    with pytest.raises(ValidationError, match="rows of shape"):
        mln_score(empty, [7, 7, 7])
    with pytest.raises(ValidationError, match="out-of-domain"):
        mln_score_batch(empty, [[5, -3]])
    with pytest.raises(ValidationError, match="out-of-domain"):
        explain(empty, [0, 2])
    with pytest.raises(ValidationError, match="rows of shape"):
        satisfaction_matrix(empty, np.zeros((3, 1), dtype=np.int64))
    assert mln_score(empty, [1, 0]) == 0.0


def test_fit_rejects_dataset_of_another_schema():
    m = model(BIN2, ["p -> q"], [0.0])
    qp = Schema((("q", ("false", "true")), ("p", ("false", "true"))))
    wider = Schema((("p", ("a", "b", "c")), ("q", ("false", "true"))))
    for other in (qp, wider):
        data = dataset(other, [[1, 0], [2 if other is wider else 0, 1]])
        with pytest.raises(ValidationError, match="schema differs"):
            fit_weights(m, data)
        with pytest.raises(ValidationError, match="schema differs"):
            nll_and_gradient(m, data)


@pytest.mark.parametrize("sources", [[], ["p -> q"]], ids=["empty-kb", "one-constraint"])
def test_fit_checks_its_data_for_every_kb(sources):
    m = model(BIN2, sources, [0.0] * len(sources))
    qp = Schema((("q", ("false", "true")), ("p", ("false", "true"))))
    with pytest.raises(ValidationError, match="schema differs"):
        fit_weights(m, dataset(qp, [[1, 0], [0, 1]]))
    with pytest.raises(ValidationError, match="empty dataset"):
        fit_weights(m, dataset(BIN2, np.zeros((0, 2))))


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
    p_true = math.exp(-mln_score(m, [1]) - log_partition(m))
    assert p_true == pytest.approx(math.exp(w) / (1 + math.exp(w)))


def test_probabilities_sum_to_one(rng):
    for _ in range(20):
        m = random_model(rng)
        log_z = log_partition(m)
        total = sum(math.exp(-mln_score(m, z) - log_z) for z in enumerate_space(m.schema))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_rank_preservation(rng):
    # Ordering by mln_score equals ordering by negative probability.
    m = random_model(rng)
    rows = random_vectors(rng, m.schema, 50)
    scores = mln_score_batch(m, rows)
    log_z = log_partition(m)
    neg_probs = np.array([-math.exp(-mln_score(m, z) - log_z) for z in rows])
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
        mentioned = {ci for c in m.constraints for ci in c.concepts}
        unmentioned += len(mentioned) < len(m.schema)
    assert unmentioned >= 10  # the oracle covered the factored path


def test_data_means_bit_identical(rng):
    for _ in range(20):
        m = partial_kb_model(rng)
        data = dataset(m.schema, random_vectors(rng, m.schema, 200))
        stats = mln._stats(m, data, mln.DEFAULT_SPACE_CAP)
        expected = satisfaction_matrix(m, data.vectors).mean(axis=0)
        assert np.array_equal(stats.data_means, expected)


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_world_table_codes_match_ravel_multi_index(seed, empty_kb):
    r = np.random.default_rng(seed)
    m = partial_kb_model(r)
    if empty_kb:
        m = MlnModel(m.schema, (), np.zeros(0))
    mentioned = sorted({ci for c in m.constraints for ci in c.concepts})
    sizes = [m.schema.domain_sizes[ci] for ci in mentioned]
    table = mln.world_table(m)
    assert table.concepts == tuple(mentioned) and table.sizes == tuple(sizes)
    rows = random_vectors(r, m.schema, int(r.integers(0, 60)))
    expected = np.ravel_multi_index(tuple(rows[:, mentioned].T), sizes)
    for columns in (rows.T, np.ascontiguousarray(rows.T)):
        codes = table.codes(columns)
        assert np.array_equal(codes, np.broadcast_to(expected, len(rows)))
    # Each code indexes enumerate_space's world with the row's mentioned values.
    worlds = enumerate_space(m.schema, concepts=mentioned)
    assert np.array_equal(worlds[codes][:, mentioned], rows[:, mentioned])


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_joined_table_is_the_models_world_table(seed):
    # Each constraint's own column, its concepts and its 0/1 values over
    # their worlds alone, broadcast onto the model's worlds: world_table(model).
    r = np.random.default_rng(seed)
    m = partial_kb_model(r)
    columns = []
    for c in m.constraints:
        own = tuple(sorted(c.concepts))
        columns.append((own, c.evaluate_batch(enumerate_space(m.schema, concepts=own))))
    expected = mln.world_table(m)
    got = mln.joined_table(m.schema, m.mentioned_concepts, columns)
    assert got.concepts == expected.concepts and got.sizes == expected.sizes
    assert np.array_equal(got.phi, expected.phi) and got.phi.dtype == expected.phi.dtype
    assert got.log_free == expected.log_free


def test_joined_table_checks_its_concepts_and_the_cap():
    m = model(BIN2, ["p", "q", "p and q"], [0.0, 0.0, 0.0])
    q = ((1,), m.constraints[1].evaluate_batch(enumerate_space(BIN2, concepts=(1,))))
    with pytest.raises(ValidationError, match="outside the joined table"):
        mln.joined_table(BIN2, (0,), [q])
    with pytest.raises(SpaceCapError) as joined:
        mln.joined_table(BIN2, (0, 1), [q], space_cap=3)
    with pytest.raises(SpaceCapError) as enumerated:
        mln.world_table(m, space_cap=3)
    assert str(joined.value) == str(enumerated.value)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_world_counts_onto_a_table_are_its_coded_rows(seed):
    # Rows counted per distinct world of some concepts, then summed onto a
    # table over a subset of them: the rows coded into the table.
    r = np.random.default_rng(seed)
    m = partial_kb_model(r)
    k = int(r.integers(0, len(m.constraints) + 1))
    members = sorted(r.choice(len(m.constraints), size=k, replace=False))
    table = mln.world_table(MlnModel(m.schema, tuple(m.constraints[i] for i in members), np.zeros(k)))
    row_sets = [random_vectors(r, m.schema, int(r.integers(0, 60))) for _ in range(3)]
    counts = mln.WorldCounts.of(m.mentioned_concepts, row_sets)
    assert counts.worlds.shape[1] <= sum(len(rows) for rows in row_sets)
    got = counts.onto(table)
    expected = [np.bincount(table.codes(rows.T), minlength=len(table.phi)) for rows in row_sets]
    assert np.array_equal(got, expected) and got.dtype == np.int64


def test_world_table_is_the_enumerated_satisfaction_matrix(rng):
    # The table a fit reads depends on the constraints, not on the weights.
    cfg = FitConfig(max_epochs=3)
    for _ in range(20):
        m = partial_kb_model(rng)
        worlds = mln.world_table(m, cfg.space_cap)
        concepts = sorted({ci for c in m.constraints for ci in c.concepts})
        expected = satisfaction_matrix(m, enumerate_space(m.schema, cfg.space_cap, concepts))
        assert np.array_equal(worlds.phi, expected)
        free = [s for ci, s in enumerate(m.schema.domain_sizes) if ci not in concepts]
        assert worlds.log_free == math.log(math.prod(free))
    worlds = mln.world_table(MlnModel(m.schema, (), np.zeros(0)), cfg.space_cap)
    assert worlds.concepts == () and worlds.phi.shape == (1, 0)
    assert worlds.log_free == math.log(math.prod(m.schema.domain_sizes))


def test_empty_kb_log_partition_is_log_size(rng):
    for _ in range(10):
        schema = random_schema(rng)
        m = MlnModel(schema, (), np.zeros(0))
        assert log_partition(m) == math.log(math.prod(schema.domain_sizes))
        data = dataset(schema, random_vectors(rng, schema, 5))
        nll, grad = nll_and_gradient(m, data)
        assert nll == math.log(math.prod(schema.domain_sizes))
        assert grad.shape == (0,)


def test_fit_beyond_full_space_cap_closed_form(rng):
    # 2^25 worlds exceed the default cap; the KB mentions 4 concepts.
    schema = Schema(tuple((f"c{i}", ("false", "true")) for i in range(25)))
    assert math.prod(schema.domain_sizes) > mln.DEFAULT_SPACE_CAP
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


def test_compiled_modules_load_through_their_packages_where_scipy_moves_them(monkeypatch, rng):
    """Where scipy keeps a compiled module outside its package directory,
    PathFinder finds no spec for it there; compiled imports it through its
    package instead, and the weight and GEV fits are bit-equal."""
    m = model(BIN2, ["p -> q", "p xor q"], [0.0, 0.0])
    data = dataset(BIN2, random_vectors(rng, BIN2, 200))
    scores = rng.gumbel(size=500)

    def fits():
        weights = fit_weights(m, data).model.weights
        return weights.tobytes(), fit_distribution(scores, "gev").params

    expected = fits()
    packages = {"_lbfgsb": "optimize", "_special_ufuncs": "special"}
    find_spec = machinery.PathFinder.find_spec
    monkeypatch.setattr(
        machinery.PathFinder,
        "find_spec",
        staticmethod(lambda name, *rest: None if name in packages else find_spec(name, *rest)),
    )
    compiled.compiled.cache_clear()
    try:
        assert fits() == expected
        for name, package in packages.items():
            assert compiled.compiled(package, name) is sys.modules[f"scipy.{package}.{name}"]
    finally:
        monkeypatch.undo()
        compiled.compiled.cache_clear()


def test_fit_nll_monotone_and_deterministic(rng):
    m = random_model(rng)
    data = dataset(m.schema, random_vectors(rng, m.schema, 100))
    cfg = FitConfig(max_epochs=50)
    r1 = fit_weights(m, data, cfg)
    r2 = fit_weights(m, data, cfg)
    assert np.array_equal(r1.model.weights, r2.model.weights)
    hist = np.asarray(r1.nll_history)
    assert np.all(np.diff(hist) <= 1e-12)


@given(st.integers(0, 10_000), st.integers(1, 200), st.sampled_from([0.0, 1e-9, 1e-3]))
@settings(max_examples=40, deadline=None)
def test_fit_history_bit_equal_to_recomputed_nll(seed, max_epochs, tol):
    r = np.random.default_rng(seed)
    m = random_model(r)
    data = dataset(m.schema, random_vectors(r, m.schema, int(r.integers(1, 200))))
    cfg = FitConfig(
        max_epochs=max_epochs,
        convergence_tol=tol,
        init_weight=float(r.choice([-1.0, 0.0, 2.0])),
    )
    nll_grad = mln.SufficientStats.nll_grad
    with mock.patch.object(
        mln.SufficientStats, "nll_grad", autospec=True, side_effect=nll_grad
    ) as calls:
        fit = fit_weights(m, data, cfg)
    history, result = reference_fit(mln._stats(m, data, cfg.space_cap), len(m.constraints), cfg)
    assert fit.nll_history == history
    assert np.array_equal(fit.model.weights, result.x)
    assert fit.epochs_used == result.nit
    assert fit.converged == result.success
    # One evaluation per point the routine asks about, the start included.
    assert calls.call_count == result.nfev


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


def test_empty_kb_fit_has_nothing_to_fit():
    result = fit_weights(MlnModel(BIN2, (), np.zeros(0)), dataset(BIN2, [[1, 0]]))
    assert result.model.weights.shape == (0,)
    assert result.epochs_used == 0
    assert result.converged
    # Every row has probability 1/|space|, so the NLL is log 4.
    assert result.nll_history == (math.log(4),)


@pytest.mark.parametrize(
    "field, value",
    [
        ("convergence_tol", math.nan),
        ("convergence_tol", -1e-3),
        ("init_weight", math.inf),
        ("init_weight", -math.inf),
        ("init_weight", math.nan),
    ],
)
def test_fit_config_rejects_invalid_settings(field, value):
    with pytest.raises(ValidationError, match=field):
        FitConfig(**{field: value})
    assert FitConfig(convergence_tol=math.inf).convergence_tol == math.inf


# ---------------------------------------------------------------------------
# Explanation


def test_explain_decomposition_exact(rng):
    for _ in range(30):
        m = random_model(rng)
        z = random_vectors(rng, m.schema, 1)[0]
        report = explain(m, z)
        assert bits(report.total_score) == bits(reference_score(m, z))
        assert report.total_score == mln_score(m, z)  # bit-exact
        assert sum(e.contribution for e in report.entries) == report.total_score
        assert [e.constraint_id for e in report.entries] == list(range(len(m.constraints)))
        for e, c, w in zip(report.entries, m.constraints, m.weights):
            sat = int(interpret(c.ast, m.schema, z))
            assert e.satisfied is bool(sat)
            assert bits(e.contribution) == bits(-float(w) * sat)  # sign of zero too


def test_explain_batch_matches_explain(rng):
    empty = MlnModel(BIN2, (), np.zeros(0))
    models = [random_model(rng) for _ in range(20)] + [empty]
    for m in models:
        rows = random_vectors(rng, m.schema, 25)
        reports = explain_batch(m, rows)
        assert len(reports) == len(rows)
        for report, row in zip(reports, rows):
            single = explain(m, row)
            assert type(report.total_score) is float
            assert bits(report.total_score) == bits(single.total_score)
            assert len(report.entries) == len(single.entries) == len(m.constraints)
            for a, b in zip(report.entries, single.entries):
                assert (a.constraint_id, a.source, a.satisfied) == (
                    b.constraint_id, b.source, b.satisfied
                )
                assert bits(a.weight) == bits(b.weight)
                assert bits(a.contribution) == bits(b.contribution)
        totals = [r.total_score for r in reports]
        assert [bits(t) for t in totals] == [bits(t) for t in mln_score_batch(m, rows)]
    assert explain_batch(empty, np.zeros((0, 2), dtype=np.int64)) == []


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
