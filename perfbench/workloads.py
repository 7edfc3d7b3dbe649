"""The four benchmark workloads: seeded inputs, one pass, oracles.

Every workload exposes the same small interface, used by harness.py:

- ``params(size)``: the workload parameters, recorded in the run record;
- ``prepare(seed, params, work)``: inputs made from the seed alone;
- ``run_pass(inputs, index, traced)``: one timed pass, returning a dict;
- ``check(inputs, result, reference)``: ``(operation, message)`` failures,
  where ``reference`` is the first pass of the run (None for that pass);
- ``digest(result)``: short hashes printed for every pass;
- ``summary(results, params)``: the workload's own timings over the
  untraced passes;
- ``PERTURBATIONS``: ``(name, fn(inputs, result) -> (inputs, result))``;
  smoke mode checks that ``check`` reports each one.

The package is driven only through its public functions and its CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from logicood import constraints, distributions, fusion, metrics, mln, schema, search, synth

clock = time.perf_counter


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _binary_schema(n: int):
    return schema.schema_from_dict({f"c{i}": "binary" for i in range(n)})


def _sub_seeds(seed: int, tag: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(k)]


def _model(sch, sources, weights):
    compiled = tuple(constraints.compile_source(s, sch, i) for i, s in enumerate(sources))
    return mln.MlnModel(sch, compiled, np.asarray(weights, dtype=np.float64))


def _median(values):
    return statistics.median(values) if values else 0.0


def _stat(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


# ---------------------------------------------------------------------------
# bulk_score


class BulkScore:
    """1e6 rows x 50 random depth-<=3 constraints: score, fuse, evaluate,
    explain. Nothing enumerates worlds and nothing touches a file."""

    IN_PROCESS = True
    # Tree shapes come from this fixed seed; the run seed fills in atoms,
    # weights and rows. Every seed then evaluates the same amount of logic,
    # so run-to-run spread measures the program, not the draw of shapes.
    SHAPE_SEED = 10

    @staticmethod
    def params(size):
        small = size == "smoke"
        return {
            "rows": 4_000 if small else 1_000_000,
            "concepts": 10,
            "constraints": 50,
            "max_depth": 3,
            "explain_rows": 200 if small else 2_000,
            "scalar_rows": 20 if small else 200,
            "ood_shift": 1.5,
            "detector": "gumbel(0, 1) ID, shifted by ood_shift for OOD",
            "family": "gev",
            "shape_seed": BulkScore.SHAPE_SEED,
        }

    @staticmethod
    def _shape(rng, depth):
        # Same recursion as the criterion-10 generator, structure only.
        if depth <= 1 or rng.random() < 0.3:
            return None
        kind = int(rng.integers(0, 5))
        if kind == 0:
            return (constraints.Not, BulkScore._shape(rng, depth - 1))
        cls = (constraints.And, constraints.Or, constraints.Xor, constraints.Implies)[kind - 1]
        return (cls, BulkScore._shape(rng, depth - 1), BulkScore._shape(rng, depth - 1))

    @staticmethod
    def _fill(shape, rng, n_concepts):
        if shape is None:
            value = ("false", "true")[int(rng.integers(0, 2))]
            return constraints.Atom(f"c{int(rng.integers(0, n_concepts))}", value)
        cls, *children = shape
        return cls(*(BulkScore._fill(c, rng, n_concepts) for c in children))

    @staticmethod
    def prepare(seed, p, work):
        shape_rng = np.random.default_rng(BulkScore.SHAPE_SEED)
        shapes = [BulkScore._shape(shape_rng, p["max_depth"]) for _ in range(p["constraints"])]
        rng = np.random.default_rng(_sub_seeds(seed, 1, 1)[0])
        sch = _binary_schema(p["concepts"])
        compiled = tuple(
            constraints.compile_constraint(BulkScore._fill(s, rng, p["concepts"]), sch, constraint_id=i)
            for i, s in enumerate(shapes)
        )
        model = mln.MlnModel(sch, compiled, rng.normal(size=len(compiled)))
        n = p["rows"]
        rows = rng.integers(0, 2, size=(n, p["concepts"]), dtype=np.int64)
        is_ood = np.arange(n) >= n // 2
        detector = rng.gumbel(size=n) + p["ood_shift"] * is_ood
        data = schema.Dataset(sch, rows, tuple(map(str, range(n))), detector, is_ood)
        subset = np.sort(rng.choice(n, p["explain_rows"], replace=False))
        return {
            "model": model,
            "data": data,
            "subset": subset,
            "subset_scores": mln.mln_score_batch(model, rows[subset]),
            "scalar_rows": p["scalar_rows"],
        }

    @staticmethod
    def run_pass(inp, index, traced):
        model, data, subset = inp["model"], inp["data"], inp["subset"]
        t0 = clock()
        dist = distributions.fit_distribution(data.detector_scores[~data.is_ood], "gev")
        t1 = clock()
        # fuse_batch runs mln_score_batch and survival itself.
        fused = fusion.fuse_batch(fusion.FusedScorer(model, dist), data)
        t2 = clock()
        result = metrics.evaluate_scores(data, fused)
        t3 = clock()
        totals = np.empty(subset.size)
        latency = np.empty(subset.size)
        for j, i in enumerate(subset):
            s = clock()
            totals[j] = mln.explain(model, data.vectors[i]).total_score
            latency[j] = clock() - s
        return {
            "fused": fused,
            "auroc": result.auroc,
            "totals": totals,
            "explain_s": latency,
            "gev_s": t1 - t0,
            "score_s": t2 - t1,
            "eval_s": t3 - t2,
        }

    @staticmethod
    def check(inp, res, ref):
        out = []
        fused, n = res["fused"], len(inp["data"])
        if fused.shape != (n,) or not np.all(np.isfinite(fused)):
            out.append((0, f"fused scores: shape {fused.shape}, expected finite ({n},)"))
        bad = int(np.sum(res["totals"] != inp["subset_scores"]))
        if bad or res["totals"].shape != inp["subset_scores"].shape:
            out.append((0, f"{bad} explain totals differ from mln_score_batch"))
        if ref is None:
            model, data, subset = inp["model"], inp["data"], inp["subset"]
            k = inp["scalar_rows"]
            scalar = np.array([mln.mln_score(model, data.vectors[i]) for i in subset[:k]])
            bad = int(np.sum(scalar != inp["subset_scores"][:k]))
            if bad:
                out.append((0, f"{bad} of {k} scalar mln_score values differ from the batch"))
        return out

    @staticmethod
    def digest(res):
        return {
            "fused": _sha(res["fused"].tobytes()),
            "explain_totals": _sha(res["totals"].tobytes()),
            "auroc": repr(res["auroc"]),
        }

    @staticmethod
    def summary(results, p):
        explain = np.concatenate([r["explain_s"] for r in results]) * 1e6
        score = [r["score_s"] for r in results]
        p99 = float(np.quantile(explain, 0.99))
        return {
            "score_rows_per_s": _stat(p["rows"] / _median(score), "rows/s", len(score)),
            "explain_us_p50": _stat(float(np.median(explain)), "us/row", explain.size),
            "explain_us_p99": _stat(p99, "us/row", explain.size),
            "explain_rows_beyond_p99": _stat(int(np.sum(explain > p99)), "count", explain.size),
            "gev_fit_s": _stat(_median([r["gev_s"] for r in results]), "s", len(results)),
            "evaluate_s": _stat(_median([r["eval_s"] for r in results]), "s", len(results)),
        }

    PERTURBATIONS = (
        ("explain total off by one ulp",
         lambda inp, res: (inp, {**res, "totals": np.nextafter(res["totals"], np.inf)})),
        ("non-finite fused score",
         lambda inp, res: (inp, {**res, "fused": np.where(np.arange(res["fused"].size) == 0, np.nan, res["fused"])})),
        ("fused vector truncated",
         lambda inp, res: (inp, {**res, "fused": res["fused"][:-1]})),
        ("batch score differs from scalar mln_score",
         lambda inp, res: ({**inp, "subset_scores": inp["subset_scores"] + 1.0},
                           {**res, "totals": res["totals"] + 1.0})),
    )


# ---------------------------------------------------------------------------
# greedy_search


class GreedySearch:
    """Planted xor rules over 10 concepts; one pass generates the 290-entry
    depth-2 pool and runs greedy_search with default configs."""

    IN_PROCESS = True
    # The validation set is larger than the training set so that every seed
    # accepts the same number of constraints. With 5000 + 5000 validation
    # rows, about one seed in three also accepted a single atom by chance
    # (validation AUROC 0.51 against the 0.5 baseline plus delta_min 0.01).
    # That atom rides along in every later fit, so those seeds did 16% more
    # work. With 12,000 + 12,000 rows, 20 of 20 seeds accepted exactly the
    # six implications that make up the two planted xors.
    PLANTED = ("c0 xor c1", "c2 xor c3")

    @staticmethod
    def params(size):
        small = size == "smoke"
        return {
            "concepts": 5 if small else 10,
            "planted": list(GreedySearch.PLANTED),
            "planted_weight": 2.5,
            "rows_per_class": 300 if small else 5_000,
            "val_rows_per_class": 300 if small else 12_000,
            "max_depth": 2,
            "connectives": ["->", "xor"],
            "search_config": "SearchConfig() defaults",
        }

    @staticmethod
    def prepare(seed, p, work):
        sch = _binary_schema(p["concepts"])
        truth = _model(sch, p["planted"], [p["planted_weight"]] * len(p["planted"]))
        n, n_val = p["rows_per_class"], p["val_rows_per_class"]
        train_seed, val_seed = _sub_seeds(seed, 2, 2)
        train = synth.make_benchmark(synth.SynthSpec(sch, truth, n, n, seed=train_seed))
        val = synth.make_benchmark(synth.SynthSpec(sch, truth, n_val, n_val, seed=val_seed))
        config = search.GeneratorConfig(max_depth=p["max_depth"], connectives=tuple(p["connectives"]))
        return {"schema": sch, "train": train, "val": val, "generator": config}

    @staticmethod
    def run_pass(inp, index, traced):
        pool = search.generate_candidates(inp["schema"], inp["generator"])
        t0 = clock()
        result = search.greedy_search(inp["train"], inp["val"], pool, search.SearchConfig())
        return {"result": result, "pool_size": len(pool), "search_s": clock() - t0}

    @staticmethod
    def check(inp, res, ref):
        out = []
        result = res["result"]
        if len(result.audit) != res["pool_size"]:
            out.append((0, f"audit has {len(result.audit)} entries for a pool of {res['pool_size']}"))
        if not result.final_auroc >= 0.55:
            out.append((0, f"final AUROC {result.final_auroc} below 0.55"))
        return out

    @staticmethod
    def digest(res):
        payload = json.dumps(res["result"].to_json_dict(), sort_keys=True).encode()
        return {"search_report": _sha(payload), "pool_size": res["pool_size"],
                "accepted": len(res["result"].model.constraints)}

    @staticmethod
    def summary(results, p):
        times = [r["search_s"] for r in results]
        return {
            "candidates_per_s": _stat(results[0]["pool_size"] / _median(times), "candidates/s", len(times)),
            "greedy_search_s": _stat(_median(times), "s", len(times)),
        }

    PERTURBATIONS = (
        ("audit entry dropped",
         lambda inp, res: (inp, {**res, "result": dataclasses.replace(res["result"], audit=res["result"].audit[:-1])})),
        ("final AUROC too low",
         lambda inp, res: (inp, {**res, "result": dataclasses.replace(res["result"], final_auroc=0.54)})),
    )


# ---------------------------------------------------------------------------
# large_space_fit


class LargeSpaceFit:
    """A 4-constraint KB over 19 concepts (2^19 worlds): fit_weights with
    max_epochs=100, then log_partition of the fitted model."""

    IN_PROCESS = True
    KB = ("c0 xor c1", "c2 xor c3", "c4 -> c5", "c6 and c7 -> c8")
    MENTIONED = 9  # the KB mentions c0..c8

    @staticmethod
    def params(size):
        return {
            "concepts": 12 if size == "smoke" else 19,
            "kb": list(LargeSpaceFit.KB),
            "truth_weights": [2.5, 2.5, 1.5, 1.5],
            "id_rows": 2_000 if size == "smoke" else 20_000,
            "max_epochs": 100,
        }

    @staticmethod
    def prepare(seed, p, work):
        sch = _binary_schema(p["concepts"])
        truth = _model(sch, p["kb"], p["truth_weights"])
        spec = synth.SynthSpec(sch, truth, n_id=p["id_rows"], n_ood=1, seed=_sub_seeds(seed, 3, 1)[0])
        return {
            "data": synth.sample_id(spec),
            "base": dataclasses.replace(truth, weights=np.zeros(len(p["kb"]))),
            "fit": mln.FitConfig(max_epochs=p["max_epochs"]),
            "concepts": p["concepts"],
        }

    @staticmethod
    def run_pass(inp, index, traced):
        t0 = clock()
        fit = mln.fit_weights(inp["base"], inp["data"], inp["fit"])
        t1 = clock()
        log_z = mln.log_partition(fit.model)
        return {"fit": fit, "log_z": log_z, "fit_s": t1 - t0, "log_z_s": clock() - t1}

    @staticmethod
    def reference_log_z(weights, n_concepts):
        """log Z by brute force over the 2^9 worlds of c0..c8 (plain Python
        truth tables), plus log 2 for every concept the KB leaves free."""
        energies = []
        for world in range(2 ** LargeSpaceFit.MENTIONED):
            c = [bool(world >> i & 1) for i in range(LargeSpaceFit.MENTIONED)]
            sat = (c[0] != c[1], c[2] != c[3], (not c[4]) or c[5], (not (c[6] and c[7])) or c[8])
            energies.append(math.fsum(float(w) for w, s in zip(weights, sat) if s))
        top = max(energies)
        log_sum = top + math.log(math.fsum(math.exp(e - top) for e in energies))
        return log_sum + (n_concepts - LargeSpaceFit.MENTIONED) * math.log(2.0)

    @staticmethod
    def check(inp, res, ref):
        out = []
        history = res["fit"].nll_history
        rises = [i for i in range(1, len(history)) if history[i] > history[i - 1]]
        if rises:
            out.append((0, f"nll_history rises at steps {rises}"))
        expected = LargeSpaceFit.reference_log_z(res["fit"].model.weights, inp["concepts"])
        rel = abs(res["log_z"] - expected) / abs(expected)
        if not rel <= 1e-9:
            out.append((0, f"log_partition {res['log_z']!r} vs reference {expected!r} (rel {rel:.3g})"))
        return out

    @staticmethod
    def digest(res):
        return {
            "weights": _sha(res["fit"].model.weights.tobytes()),
            "nll_history": _sha(repr(res["fit"].nll_history).encode()),
            "epochs_used": res["fit"].epochs_used,
            "log_z": repr(res["log_z"]),
        }

    @staticmethod
    def summary(results, p):
        fit = [r["fit_s"] for r in results]
        return {
            "fit_s": _stat(_median(fit), "s", len(fit)),
            "log_partition_s": _stat(_median([r["log_z_s"] for r in results]), "s", len(results)),
        }

    PERTURBATIONS = (
        ("NLL history rises",
         lambda inp, res: (inp, {**res, "fit": dataclasses.replace(
             res["fit"], nll_history=res["fit"].nll_history + (res["fit"].nll_history[-1] + 1e-6,))})),
        ("log Z off by 1e-8 relative",
         lambda inp, res: (inp, {**res, "log_z": res["log_z"] * (1 + 1e-8)})),
    )


# ---------------------------------------------------------------------------
# cli_pipeline


class CliPipeline:
    """synth -> fit -> search -> fuse -> eval, each stage its own
    ``python -m logicood`` process; the traced variant starts the same
    stages through cli_stage.py."""

    IN_PROCESS = False
    STAGE_TIMEOUT = 120
    LAUNCHER = Path(__file__).resolve().parent / "cli_stage.py"
    OUTPUTS = {
        "synth": ("schema.json", "truth_constraints.txt", "truth_weights.json", "data.csv"),
        "fit": ("weights.json",),
        "search": ("search.json", "accepted.txt"),
        "fuse": ("fused.csv", "dist.json", "explain.json", "decisions.csv"),
        "eval": ("eval.json",),
    }

    @staticmethod
    def params(size):
        n = 300 if size == "smoke" else 10_000
        return {
            "concepts": 8,
            "planted": ["c0 xor c1", "c2 xor c3", "c4 -> c5"],
            "planted_weights": [2.5, 2.5, 2.0],
            "n_id": n,
            "n_ood": n,
            "detector": {"family": "gev", "id_location": 0.0, "ood_location": 1.5, "scale": 1.0, "shape": 0.0},
            "fit_epochs": 100,
            "search_connectives": "xor",
            "search_concepts": "c0,c1,c2,c3,c4,c5",
            "fuse_family": "gev",
            "fuse_threshold": 0.5,
        }

    @staticmethod
    def prepare(seed, p, work):
        inputs = Path(work) / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        det = p["detector"]
        spec = {
            "schema": {f"c{i}": "binary" for i in range(p["concepts"])},
            "model": {"constraints": p["planted"], "weights": p["planted_weights"]},
            "n_id": p["n_id"],
            "n_ood": p["n_ood"],
            "detector": {
                "family": det["family"],
                "id_params": {"location": det["id_location"], "scale": det["scale"], "shape": det["shape"]},
                "ood_params": {"location": det["ood_location"], "scale": det["scale"], "shape": det["shape"]},
            },
            "seed": seed,
        }
        config = inputs / "spec.json"
        config.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
        # Every stage starts a fresh interpreter, so set-up warms only the
        # import path, with one process that imports the CLI.
        subprocess.run([sys.executable, "-c", "import logicood.cli"], check=True,
                       timeout=CliPipeline.STAGE_TIMEOUT)
        return {"config": config, "work": Path(work), "params": p}

    @staticmethod
    def _stages(config, d, p):
        return [
            ("synth", ["synth", "--config", config, "--out-dir", d]),
            ("fit", ["fit", "--schema", d / "schema.json", "--constraints", d / "truth_constraints.txt",
                     "--train", d / "data.csv", "--out", d / "weights.json", "--epochs", p["fit_epochs"]]),
            ("search", ["search", "--schema", d / "schema.json", "--train", d / "data.csv",
                        "--val", d / "data.csv", "--out", d / "search.json",
                        "--accepted-out", d / "accepted.txt",
                        "--connectives", p["search_connectives"], "--concepts", p["search_concepts"]]),
            ("fuse", ["fuse", "--schema", d / "schema.json", "--constraints", d / "truth_constraints.txt",
                      "--weights", d / "weights.json", "--train", d / "data.csv", "--data", d / "data.csv",
                      "--out", d / "fused.csv", "--family", p["fuse_family"], "--dist-out", d / "dist.json",
                      "--explain", d / "explain.json", "--threshold", p["fuse_threshold"],
                      "--decisions", d / "decisions.csv"]),
            ("eval", ["eval", "--schema", d / "schema.json", "--data", d / "data.csv",
                      "--scores", d / "fused.csv", "--out", d / "eval.json"]),
        ]

    @staticmethod
    def run_pass(inp, index, traced):
        d = inp["work"] / f"pass{index}"
        d.mkdir(parents=True, exist_ok=True)
        stages = {}
        for name, argv in CliPipeline._stages(inp["config"], d, inp["params"]):
            argv = [str(a) for a in argv]
            if traced:
                cmd = [sys.executable, str(CliPipeline.LAUNCHER), "--spans", str(d / f"{name}.spans.json"),
                       "--pass", str(index), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "logicood", *argv]
            t0 = clock()
            try:
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      timeout=CliPipeline.STAGE_TIMEOUT)
                code, err = proc.returncode, proc.stderr.decode(errors="replace")
            except subprocess.TimeoutExpired:
                code, err = "timeout", ""
            stage = {"code": code, "s": clock() - t0, "stderr": err[-400:], "outputs": {}}
            stages[name] = stage
            if code != 0:
                break
            for fname in CliPipeline.OUTPUTS[name]:
                data = (d / fname).read_bytes()
                stage["outputs"][fname] = [_sha(data), len(data)]
        auroc = None
        if stages.get("eval", {}).get("code") == 0:
            auroc = json.loads((d / "eval.json").read_text(encoding="utf-8"))["auroc"]
        spans = []
        if traced:
            for name in stages:
                path = d / f"{name}.spans.json"
                if path.exists():
                    spans.append(json.loads(path.read_text(encoding="utf-8")))
        shutil.rmtree(d)
        return {"stages": stages, "auroc": auroc, "stage_spans": spans}

    @staticmethod
    def check(inp, res, ref):
        out = []
        names = list(CliPipeline.OUTPUTS)
        for i, name in enumerate(names):
            stage = res["stages"].get(name)
            if stage is None:
                out.append((i, f"{name}: not run"))
            elif stage["code"] != 0:
                out.append((i, f"{name}: exit {stage['code']}: {stage['stderr'].strip()}"))
            elif ref is not None and stage["outputs"] != ref["stages"][name]["outputs"]:
                out.append((i, f"{name}: outputs differ from the first pass"))
        if res["auroc"] is not None and not res["auroc"] >= 0.5:
            out.append((names.index("eval"), f"eval AUROC {res['auroc']} below 0.5"))
        return out

    @staticmethod
    def digest(res):
        return {
            fname: sha
            for stage in res["stages"].values()
            for fname, (sha, _) in stage["outputs"].items()
        }

    @staticmethod
    def summary(results, p):
        out = {}
        for name in CliPipeline.OUTPUTS:
            times = [r["stages"][name]["s"] for r in results if name in r["stages"]]
            out[f"stage_{name}_s"] = _stat(_median(times), "s", len(times))
        return out

    PERTURBATIONS = (
        ("stage exits 1",
         lambda inp, res: (inp, {**res, "stages": {**res["stages"], "fit": {**res["stages"]["fit"], "code": 1}}})),
        ("output bytes change",
         lambda inp, res: (inp, {**res, "stages": {**res["stages"], "fuse": {
             **res["stages"]["fuse"],
             "outputs": {**res["stages"]["fuse"]["outputs"], "fused.csv": ["0" * 16, 0]}}}})),
        ("eval AUROC below 0.5",
         lambda inp, res: (inp, {**res, "auroc": 0.49})),
    )


WORKLOADS = {
    "bulk_score": BulkScore,
    "greedy_search": GreedySearch,
    "large_space_fit": LargeSpaceFit,
    "cli_pipeline": CliPipeline,
}
