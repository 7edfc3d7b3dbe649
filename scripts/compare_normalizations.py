#!/usr/bin/env python3
"""Compare detector-score normalization families on a synthetic benchmark.

Fits each survival family (gev, uniform, normal, generalized_normal,
lognormal, none) to the ID detector scores, fuses with a fixed constraint
model, and reports AUROC / FPR95 per family on a held-out test split.

Usage:
    python3 scripts/compare_normalizations.py --seed 5 --n 5000
"""

import argparse
import sys

import numpy as np

from logicood.constraints import compile_source
from logicood.distributions import FAMILIES, fit_distribution
from logicood.errors import ValidationError
from logicood.fusion import FusedScorer, fuse_batch
from logicood.metrics import evaluate_scores
from logicood.mln import FitConfig, MlnModel, fit_weights
from logicood.schema import id_subset, schema_from_dict
from logicood.synth import DetectorSpec, SynthSpec, make_benchmark

PLANTED = ("c0 xor c1", "c2 xor c3")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--detector-gap", type=float, default=1.5)
    args = ap.parse_args(argv)

    schema = schema_from_dict({f"c{i}": "binary" for i in range(4)})
    constraints = tuple(compile_source(s, schema, i) for i, s in enumerate(PLANTED))
    truth = MlnModel(schema, constraints, np.full(len(PLANTED), 2.5))
    detector = DetectorSpec(
        "gev",
        {"location": 0.0, "scale": 1.0, "shape": 0.0},
        {"location": args.detector_gap, "scale": 1.0, "shape": 0.0},
    )

    def split(seed):
        return make_benchmark(
            SynthSpec(schema, truth, n_id=args.n, n_ood=args.n,
                      seed=seed, detector=detector)
        )

    train, test = split(args.seed), split(args.seed + 1)
    train_id = id_subset(train)
    start = MlnModel(schema, constraints, np.zeros(len(constraints)))
    model = fit_weights(start, train_id, FitConfig(max_epochs=100)).model
    print(f"fitted weights: {[round(float(w), 3) for w in model.weights]}",
          file=sys.stderr)

    print(f"{'family':<20} {'AUROC':>8} {'FPR95':>8}")
    for family in FAMILIES:
        try:
            dist = fit_distribution(train_id.detector_scores, family)
        except ValidationError as exc:
            print(f"{family:<20} skipped: {exc}")
            continue
        fused = fuse_batch(FusedScorer(model, dist), test)
        r = evaluate_scores(test, fused)
        print(f"{family:<20} {r.auroc:8.4f} {r.fpr95:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
