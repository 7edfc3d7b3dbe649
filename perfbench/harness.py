"""One workload in one fresh process: set up, warm up, time passes.

run.py starts this file once per workload so that import cost and peak
memory belong to that workload. It writes a JSON result file and prints
nothing to stdout. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it spends half the run untraced and half with the
tracer installed, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing

clock = time.perf_counter
SETUP_REPS = 3

# Per-layer metrics that are exact counts (or ratios of counts): they must
# repeat exactly for a seed, so they come from one traced pass and every
# other traced pass must match it. All other layer metrics are medians.
COUNT_SUFFIXES = (".calls", ".cells", ".rows", ".worlds", ".iterations")
EXACT = ("search.pool_size", "cli.bytes_written", "mln.distinct_pattern_ratio",
         "search.accept_ratio", "search.error_ratio")

CLI_STAGES = ("synth", "fit", "search", "fuse", "eval")  # as in workloads.CliPipeline

# Workload-specific timings that are reported from the untraced passes of
# a traced run, so that every workload emits every name (0 where the
# workload does not do that work).
WORKLOAD_METRICS = {
    "score_rows_per_s": "rows/s",
    "explain_us_p50": "us/row",
    "explain_us_p99": "us/row",
    "candidates_per_s": "candidates/s",
    "fit_s": "s",
}


def unit_of(name: str) -> str:
    if name in WORKLOAD_METRICS:
        return WORKLOAD_METRICS[name]
    if name.endswith(COUNT_SUFFIXES) or name == "search.pool_size":
        return "count"
    if name == "cli.bytes_written":
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def layer_values(totals: dict, counts: dict, extra: dict) -> dict:
    """Flat per-layer metrics of one pass from its span totals."""

    def g(name, field):
        return totals.get(name, (0, 0.0, 0.0, 0))[field]

    calls, secs, self_s, n = 0, 1, 2, 3

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    values = {
        "constraints.evaluate_batch.calls": g("constraints.evaluate_batch", calls),
        "constraints.evaluate_batch.cells": g("constraints.evaluate_batch", n),
        "constraints.evaluate_batch.s": g("constraints.evaluate_batch", secs),
        "mln.mln_score_batch.calls": g("mln.mln_score_batch", calls),
        "mln.mln_score_batch.rows": g("mln.mln_score_batch", n),
        "mln.mln_score_batch.self_s": g("mln.mln_score_batch", self_s),
        "constraints.evaluate.calls": g("constraints.evaluate", calls),
        "mln.explain.calls": g("mln.explain", calls),
        "mln.explain.s": g("mln.explain", secs),
        "mln.enumerate_space.calls": g("mln.enumerate_space", calls),
        "mln.enumerate_space.worlds": g("mln.enumerate_space", n),
        "mln.enumerate_space.s": g("mln.enumerate_space", secs),
        "mln.satisfaction_matrix.cells": g("mln.satisfaction_matrix", n),
        "mln.satisfaction_matrix.self_s": g("mln.satisfaction_matrix", self_s),
        "mln.log_partition.s": g("mln.log_partition", secs),
        "mln.distinct_pattern_ratio": ratio("mln.distinct_patterns", "mln.pattern_worlds"),
        "mln.fit_weights.calls": g("mln.fit_weights", calls),
        "mln.fit_weights.iterations": g("mln.fit_weights", n),
        "mln.fit_weights.self_s": g("mln.fit_weights", self_s),
        "search.generate_candidates.s": g("search.generate_candidates", secs),
        "search.pool_size": g("search.generate_candidates", n),
        "search.greedy_search.self_s": g("search.greedy_search", self_s),
        "search.accept_ratio": ratio("search.accepted", "search.audited"),
        "search.error_ratio": ratio("search.errors", "search.audited"),
        "metrics.auroc.calls": g("metrics.auroc", calls),
        "metrics.auroc.s": g("metrics.auroc", secs),
        "metrics.evaluate_scores.s": g("metrics.evaluate_scores", secs),
        "distributions.fit_distribution.calls": g("distributions.fit_distribution", calls),
        "distributions.fit_distribution.s": g("distributions.fit_distribution", secs),
        "distributions.survival.rows": g("distributions.survival", n),
        "distributions.survival.s": g("distributions.survival", secs),
        "fusion.fuse_batch.self_s": g("fusion.fuse_batch", self_s),
        "schema.load_dataset.calls": g("schema.load_dataset", calls),
        "schema.load_dataset.rows": g("schema.load_dataset", n),
        "schema.load_dataset.s": g("schema.load_dataset", secs),
        "constraints.load_constraints.s": g("constraints.load_constraints", secs),
        "cli.import_s": extra.get("import_s", 0.0),
        "cli.self_s": sum(g(f"cli.{s}", self_s) for s in CLI_STAGES),
        "cli.bytes_written": extra.get("bytes_written", 0),
        "synth.make_benchmark.rows": g("synth.make_benchmark", n),
        "synth.make_benchmark.s": g("synth.make_benchmark", secs),
    }
    for stage in CLI_STAGES:
        values[f"cli.{stage}.s"] = g(f"cli.{stage}", secs)
    return values


def _merge(into: dict, totals: dict) -> None:
    for name, row in totals.items():
        have = into.setdefault(name, [0, 0.0, 0.0, 0])
        for i, v in enumerate(row):
            have[i] += v


def traced_pass_values(tracer, results) -> list[dict]:
    """Per-pass layer metrics for the traced passes, plus the traced set-up
    (pass id "setup"), whose synth.* figures are added to each pass."""
    totals, counts = tracing.summarize(tracer.spans, [[p, k, v] for (p, k), v in tracer.counters.items()])
    setup = layer_values(totals.get("setup", {}), counts.get("setup", {}), {})
    per_pass = []
    for index, res in results:
        pass_totals = totals.get(index, {})
        pass_counts = counts.get(index, {})
        extra = {}
        for stage in res.get("stage_spans", ()):
            # CLI stages trace in their own processes; merge their spans.
            t, c = tracing.summarize(stage["spans"], stage["counters"])
            for part in t.values():
                _merge(pass_totals, part)
            for part in c.values():
                for key, value in part.items():
                    pass_counts[key] = pass_counts.get(key, 0) + value
            extra["import_s"] = extra.get("import_s", 0.0) + stage["extra"]["import_s"]
        if "stages" in res:
            extra["bytes_written"] = sum(
                size for stage in res["stages"].values() for _, size in stage["outputs"].values()
            )
        values = layer_values(pass_totals, pass_counts, extra)
        for key in ("synth.make_benchmark.rows", "synth.make_benchmark.s"):
            values[key] += setup[key]
        per_pass.append(values)
    return per_pass


def is_exact(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name in EXACT


class PassLoop:
    """The passes of one run, their oracle failures and their digests. The
    first pass (the warm-up, when there is one) is the reference that every
    later pass must reproduce."""

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.reference = None
        self.failures: list = []  # (pass index, [(operation, message)])
        self.digests: list = []

    def run(self, budget, index0, tracer=None) -> list:
        """Closed loop: start the next pass when the previous one ends,
        until the budget is spent. Returns [(pass index, seconds, result)]."""
        passes = []
        start = clock()
        while True:
            index = index0 + len(passes)
            if tracer:
                tracer.pass_id = index
            t0 = clock()
            result = self.wl.run_pass(self.inputs, index, tracer is not None)
            elapsed = clock() - t0
            if tracer:
                tracer.pass_id = "check"
            self._check(index, tracer is not None, elapsed, result)
            passes.append((index, elapsed, result))
            if clock() - start >= budget:
                return passes

    def _check(self, index, traced, elapsed, result) -> None:
        problems = self.wl.check(self.inputs, result, self.reference)
        digest = self.wl.digest(result)
        if self.reference is None:
            self.reference = result
        elif digest != self.wl.digest(self.reference):
            problems.append((0, "pass digest differs from the first pass"))
        self.failures.append((index, problems))
        self.digests.append({"pass": index, "traced": traced, "seconds": elapsed, "digest": digest})

    def oracle_checks(self) -> dict:
        """Each perturbation must make check() report a failure, and the
        unperturbed reference must pass."""
        wl, inputs, ref = self.wl, self.inputs, self.reference
        out = {"unperturbed passes": not wl.check(inputs, ref, None) and not wl.check(inputs, ref, ref)}
        for name, perturb in wl.PERTURBATIONS:
            p_inputs, p_result = perturb(inputs, ref)
            out[name] = bool(wl.check(p_inputs, p_result, None) or wl.check(p_inputs, p_result, ref))
        return out


def layer_metrics(tracer, traced, loop) -> dict:
    per_pass = traced_pass_values(tracer, [(i, r) for i, _, r in traced])
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if is_exact(name):
            if any(v != values[0] for v in values):
                loop.failures.append((traced[0][0], [(0, f"count {name} differs between passes: {values}")]))
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit_of(name), "samples": len(values)}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--check-oracles", action="store_true")
    args = ap.parse_args(argv)

    t0 = clock()
    import logicood  # timed: the import is part of set-up
    import_s = clock() - t0
    src = Path(args.work).resolve().parents[1] / "src"
    if not Path(logicood.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"logicood imported from {logicood.__file__}, not from {src}")

    import numpy as np
    import scipy

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    params = wl.params(args.size)

    tracing.assert_untraced()
    setup_times = []
    for _ in range(SETUP_REPS):
        inputs = None  # free the previous build before making the next
        t = clock()
        inputs = wl.prepare(args.seed, params, args.work)
        setup_times.append(clock() - t)
    loop = PassLoop(wl, inputs)
    warm_s = loop.run(0.0, -1)[0][1] if wl.IN_PROCESS else 0.0
    setup_s = (import_s if wl.IN_PROCESS else 0.0) + statistics.median(setup_times) + warm_s

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = loop.run(budget, 0)
    tracing.assert_untraced()
    plain_times = [s for _, s, _ in plain]
    summary = wl.summary([r for _, _, r in plain], params)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.pass_id = "setup"
            loop.inputs = None
            loop.inputs = wl.prepare(args.seed, params, args.work)
            traced = loop.run(budget, len(plain), tracer)
        finally:
            tracer.uninstall()
        tracing.assert_untraced()
        metrics = layer_metrics(tracer, traced, loop)
        for name, unit in WORKLOAD_METRICS.items():
            stat = summary.get(name, {"value": 0.0, "samples": 0})
            metrics[name] = {"value": stat["value"], "unit": unit, "samples": stat["samples"]}
        traced_times = [s for _, s, _ in traced]
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_times) / statistics.median(plain_times) - 1.0,
            "unit": "ratio",
            "samples": len(traced_times) + len(plain_times),
        }
    else:
        usage = resource.RUSAGE_SELF if wl.IN_PROCESS else resource.RUSAGE_CHILDREN
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s", "samples": SETUP_REPS},
            "run_s": {"value": statistics.median(plain_times), "unit": "s", "samples": len(plain_times)},
            "peak_rss_mb": {"value": resource.getrusage(usage).ru_maxrss / 1024.0, "unit": "MiB",
                            "samples": 1},
        }

    ops = 1 if wl.IN_PROCESS else len(workloads.CliPipeline.OUTPUTS)
    messages = [f"pass {i}: {msg}" for i, problems in loop.failures for _, msg in problems]
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "params": params,
        "setup_reps": SETUP_REPS,
        "setup_parts_s": {"import": import_s if wl.IN_PROCESS else 0.0,
                          "prepare_median": statistics.median(setup_times), "warm_up": warm_s},
        "untraced_passes": len(plain),
    }
    payload = {
        "record": record,
        "attempted": ops * len(loop.failures),
        "failed": sum(len({op for op, _ in problems}) for _, problems in loop.failures),
        "failures": messages[:20],
        "metrics": metrics,
        "summary": summary,
        "digests": loop.digests,
    }
    if args.check_oracles:
        payload["oracle_checks"] = loop.oracle_checks()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
