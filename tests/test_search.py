import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import candidates_reference
from fit_reference import reference_fit
from conftest import random_ast, random_schema, random_vectors
from logicood import mln, search
from logicood.constraints import (
    CompiledConstraint,
    compile_constraint,
    compile_source,
    parse,
    pretty,
)
from logicood.errors import CompileError, NumericalError, SpaceCapError, ValidationError
from logicood.metrics import auroc
from logicood.mln import (
    FitConfig,
    MlnModel,
    WorldTable,
    enumerate_space,
    mln_score_batch,
)
from logicood.schema import Dataset, schema_from_dict
from logicood.search import (
    AuditEntry,
    GeneratorConfig,
    SearchConfig,
    SearchResult,
    generate_candidates,
    greedy_search,
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
    sources = [pretty(c) for c in pool]
    assert sources[:4] == ["p=true", "not p=true", "q=true", "not q=true"]


def test_pool_depth1_single_concept():
    schema = schema_from_dict({"p": "binary"})
    pool = generate_candidates(schema, GeneratorConfig(max_depth=1))
    assert [pretty(c) for c in pool] == ["p=true", "not p=true"]


def test_pool_size_formula_14_concepts():
    schema = schema_from_dict({f"a{i}": "binary" for i in range(14)})
    pool = generate_candidates(schema, GeneratorConfig(max_depth=2))
    n = 14
    assert len(pool) == 2 * n + 2 * n * (n - 1)  # 392


def test_pool_size_formula_24_concepts():
    # 2^24 worlds of the selection: past the space cap, which the pool's
    # dedup no longer enumerates.
    schema = schema_from_dict({f"a{i}": "binary" for i in range(24)})
    pool = generate_candidates(schema, GeneratorConfig(max_depth=2))
    n = 24
    assert len(pool) == 2 * n + 2 * n * (n - 1)  # 1152


@st.composite
def generator_inputs(draw):
    """A schema of at most 6 binary concepts beside up to 2 non-binary ones,
    in a drawn order, and a config over a drawn, permuted selection."""
    binary = [f"b{i}" for i in range(draw(st.integers(1, 6)))]
    other = [f"m{i}" for i in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(binary + other))
    schema = schema_from_dict(
        {name: "binary" if name in binary else ["x", "y", "z"] for name in order}
    )
    selections = st.lists(st.sampled_from(binary), min_size=1, unique=True).map(tuple)
    # No selection means every concept, which only an all-binary schema allows.
    selection = draw(selections if other else st.none() | selections)
    config = GeneratorConfig(
        max_depth=draw(st.integers(1, 3)),
        connectives=tuple(
            draw(st.lists(st.sampled_from(["->", "xor", "or", "and"]), min_size=1, unique=True))
        ),
        allow_negation=draw(st.booleans()),
        concepts=selection,
    )
    return schema, config


@given(generator_inputs())
@settings(max_examples=100, deadline=None)
def test_pool_equals_pool_space_reference(inputs):
    schema, config = inputs
    pool = generate_candidates(schema, config)
    assert pool == candidates_reference.generate_candidates(schema, config)


def test_pool_no_logical_duplicates():
    pool = generate_candidates(BIN4, GeneratorConfig(max_depth=2))
    worlds = enumerate_space(BIN4)
    tables = set()
    for ast in pool:
        table = compile_constraint(ast, BIN4).evaluate_batch(worlds).tobytes()
        assert table not in tables
        tables.add(table)


def test_pool_contrapositive_keeps_positive_antecedent():
    pool = generate_candidates(BIN2, GeneratorConfig(max_depth=2))
    sources = [pretty(c) for c in pool]
    assert "p=true -> q=true" in sources
    assert "not q=true -> not p=true" not in sources


def test_pool_depth3_extends():
    pool2 = generate_candidates(BIN4, GeneratorConfig(max_depth=2))
    pool3 = generate_candidates(BIN4, GeneratorConfig(max_depth=3))
    assert len(pool3) > len(pool2)
    sources2 = [pretty(c) for c in pool2]
    sources3 = [pretty(c) for c in pool3]
    assert sources3[: len(pool2)] == sources2
    assert any("->" in s and s.count("->") == 2 or "(" in s for s in sources3)


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
        assert pool == expected


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
    assert [pretty(c) for c in a] == [pretty(c) for c in b]


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


def test_greedy_rejects_val_of_another_schema():
    train = planted_benchmark(seed=7, n=100)
    pool = generate_candidates(BIN4, GeneratorConfig(max_depth=1))
    reordered = schema_from_dict({f"c{i}": "binary" for i in (1, 0, 2, 3)})
    val = Dataset(reordered, train.vectors, train.sample_ids, None, train.is_ood)
    with pytest.raises(ValidationError, match="schema differs"):
        greedy_search(train, val, pool, SearchConfig())


@pytest.mark.parametrize(
    "field, value",
    [("delta_min", math.nan), ("delta_min", math.inf), ("delta_min", -0.5),
     ("baseline_j0", math.nan), ("baseline_j0", math.inf), ("baseline_j0", -math.inf)],
)
def test_search_config_rejects_a_non_finite_margin_or_baseline(field, value):
    with pytest.raises(ValidationError, match=field):
        SearchConfig(**{field: value})


def test_greedy_compiles_each_tree_up_front_and_the_accepted_set_at_the_end(monkeypatch):
    """Every seed and pool tree is compiled once before the first fit, and
    nothing in the loop; the accepted set is compiled once more, in order,
    for the model."""
    train = planted_benchmark(seed=7, n=300)
    val = planted_benchmark(seed=8, n=300)
    pool = generate_candidates(BIN4, GeneratorConfig(connectives=("xor",)))
    config = SearchConfig(seed_constraints=(parse("c0 xor c1"),))
    compiled, at_fit = [], []
    compile_tree, fit = search.compile_constraint, search.fit_stats
    monkeypatch.setattr(
        search, "compile_constraint",
        lambda tree, *a, **k: compiled.append(tree) or compile_tree(tree, *a, **k),
    )
    monkeypatch.setattr(search, "fit_stats", lambda *a: at_fit.append(len(compiled)) or fit(*a))
    result = greedy_search(train, val, pool, config)
    monkeypatch.undo()
    trees = [*config.seed_constraints, *pool]
    assert compiled[: len(trees)] == trees
    assert at_fit == [len(trees)] * (1 + len(pool))
    accepted = [tree for tree, entry in zip(pool, result.audit) if entry.accepted]
    assert accepted and compiled[len(trees):] == [*config.seed_constraints, *accepted]
    assert [c.constraint_id for c in result.model.constraints] == list(range(1 + len(accepted)))


@pytest.mark.parametrize(
    "source, error, message",
    [("color", CompileError, "bare atom 'color' requires a binary concept"),
     ("c0 -> shape=round", ValidationError, "unknown concept: 'shape'")],
)
@pytest.mark.parametrize("as_seed", [False, True])
def test_a_tree_that_does_not_compile_raises_before_any_fit(
    monkeypatch, rng, source, error, message, as_seed
):
    schema = schema_from_dict({"c0": "binary", "c1": "binary", "color": ["red", "green", "blue"]})
    train = labeled_rows(rng, schema, 40, 0.3)
    val = labeled_rows(rng, schema, 40, 0.5)
    pool = generate_candidates(schema, GeneratorConfig(concepts=("c0", "c1")))
    seeds = (parse("c0 xor c1"),)
    if as_seed:
        seeds += (parse(source),)
    else:
        pool += (parse(source),)
    fits = []
    monkeypatch.setattr(search, "fit_stats", lambda *a: fits.append(a))
    with pytest.raises(error, match=message):
        greedy_search(train, val, pool, SearchConfig(seed_constraints=seeds))
    assert fits == []


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
        stats = mln._stats(base, train_id, config.fit.space_cap)
        if not compiled:
            return base
        _, result = reference_fit(stats, len(compiled), config.fit)
        return dataclasses.replace(base, weights=result.x)

    def val_auroc(model):
        scores = mln_score_batch(model, val.vectors)
        return auroc(scores[~val.is_ood], scores[val.is_ood])

    working = list(config.seed_constraints)
    best_j, best_model = config.baseline_j0, fit(working)
    if working:
        best_j = max(best_j, val_auroc(best_model))
    audit = []
    for ast in pool:
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


def assert_same_search(train, val, pool, config, expected=None):
    result = greedy_search(train, val, pool, config)
    if expected is None:
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
    pool = tuple(random_ast(r, schema, max_depth=3) for _ in range(int(r.integers(1, 12))))
    seeds = tuple(random_ast(r, schema, max_depth=3) for _ in range(int(r.integers(0, 3))))
    config = SearchConfig(
        delta_min=float(r.choice([0.0, 0.001, 0.02])),
        baseline_j0=float(r.choice([0.0, 0.5])),
        seed_constraints=seeds,
        fit=FitConfig(max_epochs=int(r.integers(1, 8))),
    )
    train = labeled_rows(r, schema, int(r.integers(3, 120)), 0.3)
    val = labeled_rows(r, schema, int(r.integers(2, 150)), float(r.random()))
    expected = assert_same_search(train, val, pool, config)
    # Again under the largest fit's worlds, or one fewer, as the cap: the
    # same result, or the naive loop's SpaceCapError.
    needed = max(fit_spaces(schema, pool, config, expected.audit))
    capped = with_space_cap(config, int(r.choice([needed, needed - 1])))
    assert_same_capped_search(train, val, pool, capped, expected, needed)


def test_greedy_matches_naive_loop_over_the_cap(rng):
    # Depth-2 candidates over up to 6 concepts, few of them accepted: fits
    # name fewer concepts than the pool, so under a cap at the largest fit
    # most pools have more worlds than the cap.
    over = 0
    for _ in range(16):
        schema = random_schema(rng, max_concepts=6, max_domain=3)
        pool = tuple(random_ast(rng, schema, max_depth=2) for _ in range(int(rng.integers(1, 12))))
        seeds = tuple(random_ast(rng, schema, max_depth=2) for _ in range(int(rng.integers(0, 2))))
        config = SearchConfig(delta_min=0.05, seed_constraints=seeds, fit=FitConfig(max_epochs=4))
        train = labeled_rows(rng, schema, int(rng.integers(3, 120)), 0.3)
        val = labeled_rows(rng, schema, int(rng.integers(2, 150)), 0.5)
        expected = naive_search(train, val, pool, config)
        needed = max(fit_spaces(schema, pool, config, expected.audit))
        over += needed < space_of(schema, seeds + pool)
        capped = with_space_cap(config, needed)
        assert_same_capped_search(train, val, pool, capped, expected, needed)
    assert over >= 4  # a quarter of the examples


def space_of(schema, asts):
    """Worlds of the concepts the constraints mention."""
    compiled = tuple(compile_constraint(ast, schema) for ast in asts)
    concepts = MlnModel(schema, compiled, np.zeros(len(compiled))).mentioned_concepts
    return math.prod(schema.domain_sizes[ci] for ci in concepts)


def fit_spaces(schema, pool, config, audit):
    """Worlds of each fit a search makes, replayed from its audit."""
    working = list(config.seed_constraints)
    spaces = [space_of(schema, working)]
    for ast, entry in zip(pool, audit):
        spaces.append(space_of(schema, working + [ast]))
        if entry.accepted:
            working.append(ast)
    return spaces


def with_space_cap(config, space_cap):
    return dataclasses.replace(config, fit=dataclasses.replace(config.fit, space_cap=space_cap))


def assert_same_capped_search(train, val, pool, config, expected, needed):
    """The search under config's cap gives the uncapped result when its
    largest fit fits, and the naive loop's SpaceCapError when it does not."""
    if config.fit.space_cap >= needed:
        assert_same_search(train, val, pool, config, expected)
        return
    with pytest.raises(SpaceCapError) as naive:
        naive_search(train, val, pool, config)
    with pytest.raises(SpaceCapError) as greedy:
        greedy_search(train, val, pool, config)
    assert str(greedy.value) == str(naive.value)


def test_fit_over_the_cap_raises_space_cap_error():
    # Cap 4 under a pool of 16 worlds: the seed's 2-concept fit and the
    # literal fits over c0 and c1 fit, then the seed with c2=true needs 8.
    train = planted_benchmark(seed=7, n=200)
    val = planted_benchmark(seed=8, n=200)
    pool = generate_candidates(BIN4, GeneratorConfig(connectives=("xor",)))
    config = SearchConfig(seed_constraints=(parse("c0 xor c1"),), fit=FitConfig(space_cap=4))
    message = "semantic space of 3 concepts: 8 exceeds cap 4"
    for run_search in (greedy_search, naive_search):
        with pytest.raises(SpaceCapError, match=message):
            run_search(train, val, pool, config)


def test_greedy_evaluates_once_and_codes_only_distinct_worlds(monkeypatch):
    """The search reads each tree's own table, computed once per tree
    before any fit, enumerates no worlds, and codes only the distinct
    worlds of the rows, at most 16 here, to each fit's worlds: never the
    300 + 300 rows."""
    train = planted_benchmark(seed=7, n=300)
    val = planted_benchmark(seed=8, n=300)
    pool = generate_candidates(BIN4, GeneratorConfig(max_depth=1))
    tabled, enumerated, coded = [], [], []
    table = CompiledConstraint.__dict__["table"].func
    enumerate_own, codes = mln.enumerate_space, WorldTable.codes
    counted = functools.cached_property(lambda c: tabled.append(c.ast) or table(c))
    counted.__set_name__(CompiledConstraint, "table")
    monkeypatch.setattr(CompiledConstraint, "table", counted)
    monkeypatch.setattr(
        mln, "enumerate_space", lambda *a: enumerated.append(a) or enumerate_own(*a)
    )
    monkeypatch.setattr(WorldTable, "codes", lambda t, c: coded.append(c.shape[1]) or codes(t, c))
    result = greedy_search(train, val, pool, SearchConfig())
    monkeypatch.undo()
    assert result.to_json_dict() == naive_search(train, val, pool, SearchConfig()).to_json_dict()
    assert tabled == list(pool)  # each tree's table once, in pool order
    assert enumerated == []
    assert len(coded) == 1 + len(pool)  # the seed fit and each candidate's
    rows = np.concatenate([train.vectors[~train.is_ood], val.vectors])
    assert set(coded) == {len(np.unique(rows, axis=0))}
    assert coded[0] <= 16 and result.model.constraints


def test_greedy_matches_naive_loop_with_wide_working_set(rng):
    # 70 seed members over 60 validation rows: far more members than a
    # 64-bit pattern code holds, and 2^70 possible patterns for 60 rows.
    schema = random_schema(rng, max_concepts=5, max_domain=3)
    seeds = tuple(random_ast(rng, schema, max_depth=3) for _ in range(70))
    pool = tuple(random_ast(rng, schema, max_depth=3) for _ in range(8))
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
