import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ast, random_schema, random_vectors
from logicood.constraints import compile_constraint, compile_source, parse, pretty
from logicood.errors import NumericalError, ValidationError
from logicood.metrics import auroc
from logicood.mln import FitConfig, MlnModel, enumerate_space, fit_weights, mln_score_batch
from logicood.schema import Dataset, schema_from_dict
from logicood.search import (
    AuditEntry,
    CandidatePool,
    GeneratorConfig,
    SearchConfig,
    SearchResult,
    generate_candidates,
    greedy_search,
    objective,
)
from logicood.synth import SynthSpec, make_benchmark

BIN2 = schema_from_dict({"p": "binary", "q": "binary"})
BIN4 = schema_from_dict({f"c{i}": "binary" for i in range(4)})


# ---------------------------------------------------------------------------
# Candidate generation


def test_pool_two_concepts_depth2():
    pool = generate_candidates(BIN2, GeneratorConfig(max_depth=2))
    # 4 literals + 8 implications deduped by contrapositive to 4
    assert len(pool) == 8
    assert pool.sources()[:4] == ["p=true", "not p=true", "q=true", "not q=true"]


def test_pool_depth1_single_concept():
    schema = schema_from_dict({"p": "binary"})
    pool = generate_candidates(schema, GeneratorConfig(max_depth=1))
    assert pool.sources() == ["p=true", "not p=true"]


def test_pool_size_formula_14_concepts():
    schema = schema_from_dict({f"a{i}": "binary" for i in range(14)})
    pool = generate_candidates(schema, GeneratorConfig(max_depth=2))
    n = 14
    assert len(pool) == 2 * n + 2 * n * (n - 1)  # 392


def test_pool_no_logical_duplicates():
    pool = generate_candidates(BIN4, GeneratorConfig(max_depth=2))
    worlds = enumerate_space(BIN4)
    tables = set()
    for ast in pool.candidates:
        table = compile_constraint(ast, BIN4).evaluate_batch(worlds).tobytes()
        assert table not in tables
        tables.add(table)


def test_pool_contrapositive_keeps_positive_antecedent():
    pool = generate_candidates(BIN2, GeneratorConfig(max_depth=2))
    sources = pool.sources()
    assert "p=true -> q=true" in sources
    assert "not q=true -> not p=true" not in sources


def test_pool_depth3_extends():
    pool2 = generate_candidates(BIN4, GeneratorConfig(max_depth=2))
    pool3 = generate_candidates(BIN4, GeneratorConfig(max_depth=3))
    assert len(pool3) > len(pool2)
    assert pool3.sources()[: len(pool2)] == pool2.sources()
    assert any("->" in s and s.count("->") == 2 or "(" in s for s in pool3.sources())


def test_pool_for_concept_subset_matches_sub_schema_pool():
    # Unselected concepts, one of them non-binary, must not change the pool.
    schema = schema_from_dict(
        {"c0": "binary", "color": ["red", "blue", "white"], "c2": "binary",
         "c3": "binary", "c4": "binary"}
    )
    names = ("c3", "c0", "c4")
    sub = schema_from_dict({name: "binary" for name in names})
    for depth in (2, 3):
        connectives = ("->", "xor")
        pool = generate_candidates(
            schema, GeneratorConfig(max_depth=depth, connectives=connectives, concepts=names)
        )
        expected = generate_candidates(
            sub, GeneratorConfig(max_depth=depth, connectives=connectives)
        )
        assert pool.candidates == expected.candidates


def test_pool_rejects_duplicate_selection():
    with pytest.raises(ValidationError, match="duplicate"):
        generate_candidates(BIN2, GeneratorConfig(concepts=("p", "p")))


def test_pool_rejects_non_binary():
    schema = schema_from_dict({"color": ["red", "blue", "white"]})
    with pytest.raises(ValidationError, match="not binary"):
        generate_candidates(schema, GeneratorConfig())


def test_pool_rejects_empty_selection():
    with pytest.raises(ValidationError, match="empty"):
        generate_candidates(BIN2, GeneratorConfig(concepts=()))


def test_pool_determinism():
    a = generate_candidates(BIN4, GeneratorConfig(max_depth=2))
    b = generate_candidates(BIN4, GeneratorConfig(max_depth=2))
    assert a.sources() == b.sources()


# ---------------------------------------------------------------------------
# Objective


def test_objective_arithmetic():
    assert objective(0.9, 5, 0.01) == pytest.approx(0.85)
    assert objective(0.7, 3, 0.0) == 0.7


def test_objective_accept_rule_equivalence():
    # Accepting one candidate iff J' > J + delta equals a positive
    # single-step change of J - lambda*count with lambda = delta.
    j, j_prime, delta, count = 0.6, 0.62, 0.01, 4
    gain = objective(j_prime, count + 1, delta) - objective(j, count, delta)
    assert (gain > 0) == (j_prime > j + delta)


def test_objective_validation():
    with pytest.raises(ValidationError):
        objective(1.2, 1, 0.0)
    with pytest.raises(ValidationError):
        objective(0.5, 1, -0.1)


# ---------------------------------------------------------------------------
# Greedy search


def planted_benchmark(seed, n=5000):
    cons = tuple(
        compile_source(s, BIN4, i) for i, s in enumerate(["c0 xor c1", "c2 xor c3"])
    )
    truth = MlnModel(BIN4, cons, np.array([2.5, 2.5]))
    spec = SynthSpec(BIN4, truth, n_id=n, n_ood=n, seed=seed)
    return make_benchmark(spec)


def test_greedy_accepts_planted_rules():
    train = planted_benchmark(seed=101)
    val = planted_benchmark(seed=202)
    pool = generate_candidates(BIN4, GeneratorConfig(connectives=("xor",)))
    cfg = SearchConfig(delta_min=0.01, fit=FitConfig(max_epochs=100))
    result = greedy_search(train, val, pool, cfg)
    accepted = {c.source for c in result.model.constraints}
    assert "c0=true xor c1=true" in accepted
    assert "c2=true xor c3=true" in accepted
    assert len(accepted) <= 3
    assert result.final_auroc > 0.55
    assert result.pool_size == len(pool)
    assert len(result.audit) == len(pool)


def test_greedy_no_candidate_helps():
    # Val labels independent of semantics: nothing clears delta_min.
    rng = np.random.default_rng(0)
    vectors = rng.integers(0, 2, size=(4000, 4)).astype(np.int64)
    flags = np.array([False, True] * 2000)
    data = Dataset(BIN4, vectors, tuple(map(str, range(4000))), None, flags)
    pool = generate_candidates(BIN4, GeneratorConfig(connectives=("xor",)))
    cfg = SearchConfig(delta_min=0.05, fit=FitConfig(max_epochs=50))
    result = greedy_search(data, data, pool, cfg)
    assert len(result.model.constraints) == 0
    assert result.final_auroc == cfg.baseline_j0


def test_greedy_deterministic():
    train = planted_benchmark(seed=7, n=1000)
    val = planted_benchmark(seed=8, n=1000)
    pool = generate_candidates(BIN4, GeneratorConfig(connectives=("xor",)))
    cfg = SearchConfig(delta_min=0.01, fit=FitConfig(max_epochs=50))
    r1 = greedy_search(train, val, pool, cfg)
    r2 = greedy_search(train, val, pool, cfg)
    assert r1.to_json_dict() == r2.to_json_dict()


def test_greedy_accepted_j_strictly_increasing():
    train = planted_benchmark(seed=7, n=1000)
    val = planted_benchmark(seed=8, n=1000)
    pool = generate_candidates(BIN4, GeneratorConfig(connectives=("xor",)))
    cfg = SearchConfig(delta_min=0.01, fit=FitConfig(max_epochs=50))
    result = greedy_search(train, val, pool, cfg)
    accepted_js = [e.auroc for e in result.audit if e.accepted]
    j = cfg.baseline_j0
    for j_prime in accepted_js:
        assert j_prime > j + cfg.delta_min
        j = j_prime


def test_delta_sweep_non_increasing_count():
    train = planted_benchmark(seed=101)
    val = planted_benchmark(seed=202)
    pool = generate_candidates(BIN4, GeneratorConfig(connectives=("xor",)))
    counts = []
    for delta in (0.0, 0.005, 0.01, 0.05):
        cfg = SearchConfig(delta_min=delta, fit=FitConfig(max_epochs=100))
        counts.append(len(greedy_search(train, val, pool, cfg).model.constraints))
    assert counts == sorted(counts, reverse=True)


def test_greedy_validation_errors():
    train = planted_benchmark(seed=7, n=100)
    pool = generate_candidates(BIN4, GeneratorConfig())
    id_only = Dataset(
        train.schema,
        train.vectors,
        train.sample_ids,
        None,
        np.zeros(len(train), dtype=bool),
    )
    with pytest.raises(ValidationError, match="both ID and OOD"):
        greedy_search(train, id_only, pool, SearchConfig())


# ---------------------------------------------------------------------------
# Greedy search against a naive loop that refits, rescores every validation
# row and reranks for each candidate


def naive_search(train, val, pool, config):
    train_id = Dataset(
        train.schema, train.vectors[~train.is_ood],
        tuple(np.asarray(train.sample_ids, dtype=object)[~train.is_ood]),
    )

    def fit(asts):
        compiled = tuple(
            compile_constraint(ast, train.schema, constraint_id=i) for i, ast in enumerate(asts)
        )
        base = MlnModel(train.schema, compiled, np.zeros(len(compiled)))
        return fit_weights(base, train_id, config.fit).model

    def val_auroc(model):
        scores = mln_score_batch(model, val.vectors)
        return auroc(scores[~val.is_ood], scores[val.is_ood])

    working = list(config.seed_constraints)
    best_j, best_model = config.baseline_j0, fit(working)
    if working:
        best_j = max(best_j, val_auroc(best_model))
    audit = []
    for ast in pool.candidates:
        try:
            model = fit(working + [ast])
            j_prime = val_auroc(model)
        except NumericalError as exc:
            audit.append(AuditEntry(pretty(ast), None, False, str(exc)))
            continue
        accepted = j_prime > best_j + config.delta_min
        audit.append(AuditEntry(pretty(ast), j_prime, accepted))
        if accepted:
            working.append(ast)
            best_j, best_model = j_prime, model
    return SearchResult(best_model, best_j, tuple(audit), len(pool), config.delta_min)


def labeled_rows(rng, schema, n, ood_share):
    flags = rng.random(n) < ood_share
    flags[:2] = (False, True)  # both classes present
    vectors = random_vectors(rng, schema, n)
    return Dataset(schema, vectors, tuple(map(str, range(n))), None, flags)


def assert_same_search(train, val, pool, config):
    result = greedy_search(train, val, pool, config)
    expected = naive_search(train, val, pool, config)
    assert result.to_json_dict() == expected.to_json_dict()
    assert np.array_equal(result.model.weights, expected.model.weights)
    assert [c.constraint_id for c in result.model.constraints] == list(
        range(len(result.model.constraints))
    )
    return result


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_greedy_matches_naive_loop(seed):
    r = np.random.default_rng(seed)
    schema = random_schema(r, max_concepts=4, max_domain=3)
    pool = CandidatePool(
        GeneratorConfig(),
        tuple(random_ast(r, schema, max_depth=3) for _ in range(int(r.integers(1, 12)))),
    )
    seeds = tuple(random_ast(r, schema, max_depth=3) for _ in range(int(r.integers(0, 3))))
    config = SearchConfig(
        delta_min=float(r.choice([0.0, 0.001, 0.02])),
        baseline_j0=float(r.choice([0.0, 0.5])),
        seed_constraints=seeds,
        fit=FitConfig(max_epochs=int(r.integers(1, 8))),
    )
    train = labeled_rows(r, schema, int(r.integers(3, 120)), 0.3)
    val = labeled_rows(r, schema, int(r.integers(2, 150)), float(r.random()))
    assert_same_search(train, val, pool, config)


def test_greedy_matches_naive_loop_with_wide_working_set(rng):
    # 70 seed members over 60 validation rows: far more members than a
    # 64-bit pattern code holds, and 2^70 possible patterns for 60 rows.
    schema = random_schema(rng, max_concepts=5, max_domain=3)
    seeds = tuple(random_ast(rng, schema, max_depth=3) for _ in range(70))
    pool = CandidatePool(
        GeneratorConfig(), tuple(random_ast(rng, schema, max_depth=3) for _ in range(8))
    )
    config = SearchConfig(delta_min=0.0, seed_constraints=seeds, fit=FitConfig(max_epochs=3))
    train = labeled_rows(rng, schema, 80, 0.2)
    val = labeled_rows(rng, schema, 60, 0.5)
    result = assert_same_search(train, val, pool, config)
    assert len(result.model.constraints) >= 70


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the planned overflow
def test_greedy_candidate_fit_error_is_audited():
    # From init weight 1e308, two constraints satisfied in one world give
    # an infinite energy and a non-finite NLL, so every candidate fit fails
    # and none is accepted.
    train = planted_benchmark(seed=7, n=200)
    val = planted_benchmark(seed=8, n=200)
    pool = generate_candidates(BIN4, GeneratorConfig(connectives=("xor",)))
    config = SearchConfig(
        seed_constraints=(parse("c0 xor c1"),), fit=FitConfig(init_weight=1e308)
    )
    result = assert_same_search(train, val, pool, config)
    errors = [e for e in result.audit if e.error is not None]
    assert errors and all(e.auroc is None and not e.accepted for e in errors)
    assert [c.source for c in result.model.constraints] == ["c0=true xor c1=true"]
