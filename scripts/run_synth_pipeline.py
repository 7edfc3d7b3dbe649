#!/usr/bin/env python3
"""End-to-end experiment on a synthetic benchmark.

Samples ID/OOD data from a planted constraint model, learns a constraint
set with greedy search, fits weights and a detector-score distribution,
then compares MLN-only, detector-only, and fused scores on a held-out
test split.

Usage:
    python3 scripts/run_synth_pipeline.py --seed 5 --n 5000 --out-dir runs/demo
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from logicood.artifacts import write_json
from logicood.constraints import compile_source
from logicood.distributions import fit_distribution
from logicood.fusion import FusedScorer, fuse_batch
from logicood.metrics import evaluate_scores
from logicood.mln import FitConfig, MlnModel, mln_score_batch
from logicood.schema import schema_from_dict, save_dataset
from logicood.search import GeneratorConfig, SearchConfig, generate_candidates, greedy_search
from logicood.synth import DetectorSpec, SynthSpec, make_benchmark

PLANTED = ("c0 xor c1", "c2 xor c3")
PLANTED_WEIGHT = 2.5


def build_spec(schema, seed, n, detector_gap):
    constraints = tuple(compile_source(s, schema, i) for i, s in enumerate(PLANTED))
    truth = MlnModel(schema, constraints, np.full(len(PLANTED), PLANTED_WEIGHT))
    detector = DetectorSpec(
        "gev",
        {"location": 0.0, "scale": 1.0, "shape": 0.0},
        {"location": detector_gap, "scale": 1.0, "shape": 0.0},
    )
    return SynthSpec(schema, truth, n_id=n, n_ood=n, seed=seed, detector=detector)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--n", type=int, default=5000, help="samples per class per split")
    ap.add_argument("--detector-gap", type=float, default=1.5,
                    help="location shift of the OOD detector-score law")
    ap.add_argument("--delta-min", type=float, default=0.01)
    ap.add_argument("--family", default="gev",
                    help="survival family for detector-score normalization")
    ap.add_argument("--out-dir", type=Path, default=Path("runs/synth"))
    args = ap.parse_args(argv)

    schema = schema_from_dict({f"c{i}": "binary" for i in range(4)})
    train = make_benchmark(build_spec(schema, args.seed, args.n, args.detector_gap))
    val = make_benchmark(build_spec(schema, args.seed + 1, args.n, args.detector_gap))
    test = make_benchmark(build_spec(schema, args.seed + 2, args.n, args.detector_gap))

    pool = generate_candidates(schema, GeneratorConfig(connectives=("xor",)))
    cfg = SearchConfig(delta_min=args.delta_min, fit=FitConfig(max_epochs=100))
    result = greedy_search(train, val, pool, cfg)
    print(f"pool size {result.pool_size}, accepted {len(result.model.constraints)} "
          f"constraints, val AUROC {result.final_auroc:.4f}", file=sys.stderr)
    for c, w in zip(result.model.constraints, result.model.weights):
        print(f"  {c.source}  (weight {w:.3f})", file=sys.stderr)

    model = result.model
    dist = fit_distribution(train.detector_scores[~train.is_ood], args.family)
    scorer = FusedScorer(model, dist)

    mln = mln_score_batch(model, test.vectors)
    fused = fuse_batch(scorer, test)
    rows = {
        "mln_only": evaluate_scores(test, mln),
        "detector_only": evaluate_scores(test, test.detector_scores),
        "fused": evaluate_scores(test, fused),
    }

    print(f"{'scorer':<14} {'AUROC':>8} {'FPR95':>8} {'AUPR-ID':>8} {'AUPR-OOD':>9}")
    for name, r in rows.items():
        print(f"{name:<14} {r.auroc:8.4f} {r.fpr95:8.4f} {r.aupr_id:8.4f} {r.aupr_ood:9.4f}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(test, args.out_dir / "test.csv")
    write_json(
        args.out_dir / "results.json",
        {
            "seed": args.seed,
            "family": args.family,
            "accepted": [c.source for c in model.constraints],
            "weights": [float(w) for w in model.weights],
            "metrics": {k: v.to_json_dict() for k, v in rows.items()},
        },
    )
    print(f"wrote {args.out_dir}/results.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
