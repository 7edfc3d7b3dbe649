"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them
inline). Every tolerance is pinned here, not configured elsewhere.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import logicood as L
from conftest import interpret, random_ast, random_schema, random_vectors
from logicood.cli import main as cli_main
from logicood.constraints import compile_constraint, compile_source
from logicood.distributions import ScoreDistribution, fit_distribution, quantile, survival
from logicood.metrics import aupr, auroc, fpr_at_tpr
from logicood.mln import (
    FitConfig,
    MlnModel,
    enumerate_space,
    explain,
    fit_weights,
    log_partition,
    mln_score,
    mln_score_batch,
    nll_and_gradient,
)
from logicood.schema import Dataset, Schema, schema_from_dict
from logicood.search import GeneratorConfig, SearchConfig, generate_candidates, greedy_search
from logicood.synth import DetectorSpec, SynthSpec, make_benchmark


@contextmanager
def criterion(number, name, time_limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if time_limit is not None and elapsed > time_limit:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL (took {elapsed:.1f}s > {time_limit}s)")
        pytest.fail(f"criterion {number} exceeded time limit: {elapsed:.1f}s")
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.1f}s)")


def dataset(schema, vectors):
    vectors = np.asarray(vectors, dtype=np.int64)
    return Dataset(schema, vectors, tuple(str(i) for i in range(len(vectors))))


def random_model(rng, max_concepts, max_constraints, max_domain=4):
    schema = random_schema(rng, max_concepts=max_concepts, max_domain=max_domain)
    n = int(rng.integers(1, max_constraints + 1))
    constraints = tuple(
        compile_constraint(random_ast(rng, schema, max_depth=4), schema, constraint_id=i)
        for i in range(n)
    )
    return MlnModel(schema, constraints, rng.normal(scale=1.5, size=n))


def test_criterion_1_boolean_semantics_oracle():
    with criterion(1, "boolean semantics oracle", time_limit=30):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            schema = random_schema(rng, max_concepts=5)
            ast = random_ast(rng, schema, max_depth=5)
            compiled = compile_constraint(ast, schema)
            rows = random_vectors(rng, schema, 1000)
            batch = compiled.evaluate_batch(rows)
            expected = np.fromiter(
                (interpret(ast, schema, row) for row in rows), dtype=np.int8
            )
            assert np.array_equal(batch, expected)


def test_criterion_2_partition_probability_exactness():
    with criterion(2, "partition/probability exactness", time_limit=10):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = random_model(rng, max_concepts=5, max_constraints=5)
            worlds = enumerate_space(m.schema)
            assert worlds.shape[0] <= 4096
            log_z = log_partition(m)
            total = sum(math.exp(-mln_score(m, z) - log_z) for z in worlds)
            assert abs(total - 1.0) <= 1e-10
            naive = math.log(
                sum(
                    math.exp(
                        sum(w * c.evaluate(z) for c, w in zip(m.constraints, m.weights))
                    )
                    for z in worlds
                )
            )
            assert log_z == pytest.approx(naive, rel=1e-12)


def test_criterion_3_gradient_check():
    with criterion(3, "gradient vs finite differences", time_limit=60):
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(100):
            m = random_model(rng, max_concepts=4, max_constraints=6)
            data = dataset(m.schema, random_vectors(rng, m.schema, 40))
            _, grad = nll_and_gradient(m, data)
            fd = np.empty_like(grad)
            for i in range(len(m.weights)):
                wp, wm = m.weights.copy(), m.weights.copy()
                wp[i] += h
                wm[i] -= h
                fp, _ = nll_and_gradient(MlnModel(m.schema, m.constraints, wp), data)
                fm, _ = nll_and_gradient(MlnModel(m.schema, m.constraints, wm), data)
                fd[i] = (fp - fm) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(grad - fd)) / scale < 1e-5


def test_criterion_4_mle_recovery():
    with criterion(4, "MLE recovery", time_limit=10):
        schema = schema_from_dict({"p": "binary"})
        m = MlnModel(schema, (compile_source("p", schema),), np.zeros(1))
        data = dataset(schema, [[1]] * 75 + [[0]] * 25)
        fitted = fit_weights(m, data, FitConfig(max_epochs=300))
        assert fitted.model.weights[0] == pytest.approx(math.log(3), abs=1e-3)

        schema2 = schema_from_dict({"p": "binary", "q": "binary"})
        m2 = MlnModel(
            schema2,
            tuple(compile_source(s, schema2, i) for i, s in enumerate(["p", "q"])),
            np.zeros(2),
        )
        rows = [[1 if i < 90 else 0, i % 2] for i in range(100)]
        fitted2 = fit_weights(m2, dataset(schema2, rows), FitConfig(max_epochs=300))
        assert fitted2.model.weights[0] == pytest.approx(math.log(9), abs=1e-2)
        assert fitted2.model.weights[1] == pytest.approx(0.0, abs=1e-2)


def test_criterion_5_score_decomposition():
    with criterion(5, "score decomposition"):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = random_model(rng, max_concepts=4, max_constraints=6)
            z = random_vectors(rng, m.schema, 1)[0]
            report = explain(m, z)
            total = 0.0
            for e in report.entries:
                total += e.contribution
            assert total == report.total_score  # bit-exact
            # The knowledge-base-order sum on the independent interpreter.
            reference = 0.0
            for c, w in zip(m.constraints, m.weights):
                reference -= float(w) * int(interpret(c.ast, m.schema, z))
            assert report.total_score == reference
            assert report.total_score == mln_score(m, z)

        # Violating one constraint of weight w changes the score by exactly +w.
        schema = schema_from_dict({"p": "binary", "q": "binary"})
        m = MlnModel(schema, (compile_source("p -> q", schema),), np.array([4.89]))
        assert mln_score(m, [1, 0]) - mln_score(m, [1, 1]) == pytest.approx(4.89)


def test_criterion_6_gev_fit_recovery():
    with criterion(6, "GEV fit recovery", time_limit=30):
        rng = np.random.default_rng(6)
        true = ScoreDistribution("gev", {"location": 0.0, "scale": 1.0, "shape": 0.1})
        x = quantile(true, rng.random(100_000))
        fit = fit_distribution(x, "gev")
        assert fit.params["location"] == pytest.approx(0.0, abs=0.05)
        assert fit.params["scale"] == pytest.approx(1.0, abs=0.05)
        assert fit.params["shape"] == pytest.approx(0.1, abs=0.05)

        grid = np.linspace(x.min(), x.max(), 1000)
        near = ScoreDistribution("gev", {"location": 0.0, "scale": 1.0, "shape": 1e-9})
        gumbel = ScoreDistribution("gev", {"location": 0.0, "scale": 1.0, "shape": 0.0})
        assert np.max(np.abs(survival(near, grid) - survival(gumbel, grid))) < 1e-6


def _auroc_pairwise(ids, oods):
    greater = np.sum(oods[:, None] > ids[None, :])
    ties = np.sum(oods[:, None] == ids[None, :])
    return (greater + 0.5 * ties) / (ids.size * oods.size)


def _fpr_sweep(ids, oods, target):
    best = None
    for tau in np.unique(oods):
        if np.mean(oods >= tau) >= target:
            best = tau if best is None else max(best, tau)
    return float(np.mean(ids >= best))


def _aupr_sweep(pos, neg):
    area, prev_recall = 0.0, 0.0
    for tau in np.unique(np.concatenate([pos, neg]))[::-1]:
        tp = np.sum(pos >= tau)
        fp = np.sum(neg >= tau)
        area += (tp / pos.size - prev_recall) * (tp / (tp + fp))
        prev_recall = tp / pos.size
    return area


def test_criterion_7_metric_oracles():
    with criterion(7, "metric oracles", time_limit=60):
        assert auroc([1.0, 1.0], [1.0, 1.0]) == 0.5  # all ties
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_id = int(rng.integers(1, 501))
            n_ood = int(rng.integers(1, 501))
            # Coarse rounding forces heavy tie structure.
            ids = np.round(rng.normal(size=n_id), 1)
            oods = np.round(rng.normal(0.3, size=n_ood), 1)
            assert auroc(ids, oods) == _auroc_pairwise(ids, oods)
            assert fpr_at_tpr(ids, oods, 0.95) == _fpr_sweep(ids, oods, 0.95)
            assert aupr(oods, ids) == _aupr_sweep(oods, ids)
            assert aupr(-ids, -oods) == _aupr_sweep(-ids, -oods)


BIN4 = schema_from_dict({f"c{i}": "binary" for i in range(4)})
PLANTED = ("c0 xor c1", "c2 xor c3")


def _planted_spec(seed, weights=(2.5, 2.5), n=5000, detector=None):
    cons = tuple(compile_source(s, BIN4, i) for i, s in enumerate(PLANTED))
    truth = MlnModel(BIN4, cons, np.asarray(weights, dtype=np.float64))
    return SynthSpec(BIN4, truth, n_id=n, n_ood=n, seed=seed, detector=detector)


def test_criterion_8_planted_rule_search():
    with criterion(8, "planted-rule greedy search", time_limit=300):
        train = make_benchmark(_planted_spec(seed=801))
        val = make_benchmark(_planted_spec(seed=802))
        pool = generate_candidates(BIN4, GeneratorConfig(connectives=("xor",)))
        fit = FitConfig(max_epochs=100)

        result = greedy_search(
            train, val, pool, SearchConfig(delta_min=0.01, fit=fit)
        )
        accepted = {c.source for c in result.model.constraints}
        planted = {"c0=true xor c1=true", "c2=true xor c3=true"}
        assert planted <= accepted
        assert len(accepted - planted) <= 1  # at most one distractor
        assert result.final_auroc >= 0.5 + 0.05

        counts = []
        for delta in (0.0, 0.005, 0.01, 0.05):
            r = greedy_search(train, val, pool, SearchConfig(delta_min=delta, fit=fit))
            counts.append(len(r.model.constraints))
        assert counts == sorted(counts, reverse=True)


def test_criterion_9_fusion_improvement():
    with criterion(9, "fusion improvement", time_limit=60):
        detector = DetectorSpec(
            "gev",
            {"location": 0.0, "scale": 1.0, "shape": 0.0},
            {"location": 1.5, "scale": 1.0, "shape": 0.0},  # overlapping laws
        )
        spec = _planted_spec(seed=901, detector=detector)
        train = make_benchmark(spec)
        test = make_benchmark(_planted_spec(seed=902, detector=detector))

        cons = tuple(compile_source(s, BIN4, i) for i, s in enumerate(PLANTED))
        base = MlnModel(BIN4, cons, np.zeros(2))
        train_id_rows = train.vectors[~train.is_ood]
        fitted = fit_weights(
            base, dataset(BIN4, train_id_rows), FitConfig(max_epochs=100)
        ).model

        dist = fit_distribution(train.detector_scores[~train.is_ood], "gev")
        mln_scores = mln_score_batch(fitted, test.vectors)
        fused = mln_scores * survival(dist, test.detector_scores)

        ids, oods = ~test.is_ood, test.is_ood
        auroc_mln = auroc(mln_scores[ids], mln_scores[oods])
        auroc_det = auroc(test.detector_scores[ids], test.detector_scores[oods])
        auroc_fused = auroc(fused[ids], fused[oods])
        assert auroc_fused >= max(auroc_mln, auroc_det) - 0.01


def test_criterion_10_throughput():
    schema = schema_from_dict({f"c{i}": "binary" for i in range(10)})
    rng = np.random.default_rng(10)
    constraints = []
    while len(constraints) < 50:
        ast = random_ast(rng, schema, max_depth=3)
        constraints.append(compile_constraint(ast, schema, constraint_id=len(constraints)))
    model = MlnModel(schema, tuple(constraints), rng.normal(size=50))
    rows = random_vectors(rng, schema, 1_000_000)
    model_warm = mln_score_batch(model, rows[:1000])  # touch caches before timing
    with criterion(10, "scoring throughput 1e6 x 50", time_limit=5):
        scores = mln_score_batch(model, rows)
    assert scores.shape == (1_000_000,)
    assert np.all(np.isfinite(scores))


SYNTH_CONFIG = {
    "schema": {"c0": "binary", "c1": "binary", "c2": "binary", "c3": "binary"},
    "model": {"constraints": list(PLANTED), "weights": [2.5, 2.5]},
    "n_id": 2000,
    "n_ood": 2000,
    "detector": {
        "family": "gev",
        "id_params": {"location": 0.0, "scale": 1.0, "shape": 0.0},
        "ood_params": {"location": 1.5, "scale": 1.0, "shape": 0.0},
    },
    "seed": 11,
}


def _run_pipeline(root):
    root.mkdir(parents=True, exist_ok=True)
    config = root / "spec.json"
    config.write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")

    def run(*argv):
        code = cli_main([str(a) for a in argv])
        assert code == 0, argv
        return code

    run("synth", "--config", config, "--out-dir", root)
    schema, kb, data = root / "schema.json", root / "truth_constraints.txt", root / "data.csv"
    run("fit", "--schema", schema, "--constraints", kb, "--train", data,
        "--out", root / "weights.json", "--epochs", 100)
    run("search", "--schema", schema, "--train", data, "--val", data,
        "--out", root / "search.json", "--accepted-out", root / "accepted.txt",
        "--connectives", "xor", "--epochs", 100)
    run("fuse", "--schema", schema, "--constraints", kb,
        "--weights", root / "weights.json", "--train", data, "--data", data,
        "--family", "gev", "--out", root / "fused.csv", "--dist-out", root / "dist.json")
    run("eval", "--schema", schema, "--data", data, "--scores", root / "fused.csv",
        "--out", root / "eval.json")
    return [
        "data.csv", "weights.json", "search.json", "accepted.txt",
        "fused.csv", "dist.json", "eval.json",
    ]


def test_criterion_11_pipeline_determinism(tmp_path):
    with criterion(11, "pipeline determinism"):
        files = _run_pipeline(tmp_path / "a")
        _run_pipeline(tmp_path / "b")
        for name in files:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name
