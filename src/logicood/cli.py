"""Command-line entry point.

Subcommands: compile, fit, score, fuse, search, eval, synth. Logs go to
stderr; data goes only to declared output files. Output files are written
atomically (temp file + rename). Exit codes: 0 success, 1 usage error,
2 data/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile

import numpy as np

from . import distributions, fusion, metrics, mln, schema as schema_mod, search, synth
from .constraints import load_constraints, save_constraints
from .errors import LogicOodError, NumericalError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

FAMILY_FLAGS = {
    "gev": "gev",
    "uniform": "uniform",
    "normal": "normal",
    "gennorm": "generalized_normal",
    "lognormal": "lognormal",
    "none": "none",
}


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _atomic_write(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _scores_csv(ids, scores) -> str:
    lines = ["__id,score"]
    for sid, s in zip(ids, scores):
        lines.append(f"{sid},{float(s)!r}")
    return "\n".join(lines) + "\n"


def _decisions_csv(ids, flags) -> str:
    lines = ["__id,outlier"]
    for sid, flag in zip(ids, flags):
        lines.append(f"{sid},{1 if flag else 0}")
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _log(f"{self.prog}: error: {message}")
        raise SystemExit(EXIT_USAGE)


def _load_model(args):
    sch = schema_mod.load_schema(args.schema)
    constraints = load_constraints(args.constraints, sch)
    weights = mln.load_weights(args.weights, constraints)
    return mln.MlnModel(sch, tuple(constraints), weights)


def _fit_config(args) -> mln.FitConfig:
    return mln.FitConfig(
        max_epochs=args.epochs,
        learning_rate=args.lr,
        convergence_tol=args.tol,
        init_weight=args.init_weight,
        space_cap=args.space_cap,
    )


def _explanations_json(model, data) -> str:
    payload = []
    for i in range(len(data)):
        report = mln.explain(model, data.vectors[i])
        payload.append(
            {
                "__id": data.sample_ids[i],
                "total_score": report.total_score,
                "constraints": [
                    {
                        "id": e.constraint_id,
                        "constraint": e.source,
                        "satisfied": e.satisfied,
                        "weight": e.weight,
                        "contribution": e.contribution,
                    }
                    for e in report.entries
                ],
            }
        )
    return _json_text(payload)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_compile(args) -> int:
    sch = schema_mod.load_schema(args.schema)
    constraints = load_constraints(args.constraints, sch)
    for c in constraints:
        _log(f"ok [{c.constraint_id}]: {c.source}")
    if not constraints:
        _log("warning: empty knowledge base")
    _log(f"compiled {len(constraints)} constraints")
    return EXIT_OK


def cmd_fit(args) -> int:
    sch = schema_mod.load_schema(args.schema)
    constraints = load_constraints(args.constraints, sch)
    train = schema_mod.id_subset(schema_mod.load_dataset(args.train, sch))
    cfg = _fit_config(args)
    model = mln.MlnModel(sch, tuple(constraints), np.zeros(len(constraints)))
    _log(f"epoch 0: weights initialized to {cfg.init_weight}")
    result = mln.fit_weights(model, train, cfg)
    _log(
        f"initial NLL {result.nll_history[0]:.6f}, "
        f"final NLL {result.nll_history[-1]:.6f}, epochs used {result.epochs_used}"
    )
    payload = [
        {"constraint": c.source, "weight": float(w)}
        for c, w in zip(result.model.constraints, result.model.weights)
    ]
    _atomic_write(args.out, _json_text(payload))
    return EXIT_OK


def cmd_score(args) -> int:
    model = _load_model(args)
    data = schema_mod.load_dataset(args.data, model.schema)
    scores = mln.mln_score_batch(model, data.vectors)
    _atomic_write(args.out, _scores_csv(data.sample_ids, scores))
    if args.explain:
        _atomic_write(args.explain, _explanations_json(model, data))
    _log(f"scored {len(data)} rows")
    return EXIT_OK


def cmd_fuse(args) -> int:
    model = _load_model(args)
    data = schema_mod.load_dataset(args.data, model.schema)
    reference = schema_mod.id_subset(schema_mod.load_dataset(args.train, model.schema))
    family = FAMILY_FLAGS[args.family]
    if family == "none":
        dist = distributions.ScoreDistribution("none", {})
    else:
        if reference.detector_scores is None:
            raise ValidationError(
                f"{args.train}: fitting the {family} family needs __detector_score"
            )
        dist = distributions.fit_distribution(reference.detector_scores, family)
    scorer = fusion.FusedScorer(model, dist, args.threshold)
    if family == "none" and data.detector_scores is None:
        fused = mln.mln_score_batch(model, data.vectors)
    else:
        fused = fusion.fuse_batch(scorer, data)
    _atomic_write(args.out, _scores_csv(data.sample_ids, fused))
    if args.dist_out:
        _atomic_write(
            args.dist_out, _json_text({"family": dist.family, "params": dist.params})
        )
    if args.explain:
        _atomic_write(args.explain, _explanations_json(model, data))
    if args.threshold is not None:
        if not args.decisions:
            raise ValidationError("--threshold requires --decisions <path>")
        flags = fusion.threshold(fused, args.threshold)
        _atomic_write(args.decisions, _decisions_csv(data.sample_ids, flags))
    _log(f"fused {len(data)} rows with family {family}")
    return EXIT_OK


def cmd_eval(args) -> int:
    sch = schema_mod.load_schema(args.schema)
    data = schema_mod.load_dataset(args.data, sch)
    with open(args.scores, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["__id", "score"]:
            raise ValidationError(f"{args.scores}: expected header __id,score")
        rows = list(reader)
    if len(rows) != len(data):
        raise ValidationError(
            f"{args.scores}: {len(rows)} scores for {len(data)} data rows"
        )
    scores = np.empty(len(rows))
    for i, row in enumerate(rows):
        if len(row) != 2:
            raise ValidationError(
                f"{args.scores}: row {i + 2} has {len(row)} cells, expected 2"
            )
        if row[0] != data.sample_ids[i]:
            raise ValidationError(
                f"{args.scores}: row {i + 2} id {row[0]!r} does not match "
                f"dataset id {data.sample_ids[i]!r}"
            )
        try:
            scores[i] = float(row[1])
        except ValueError:
            raise ValidationError(
                f"{args.scores}: row {i + 2}: non-numeric score {row[1]!r}"
            ) from None
    result = metrics.evaluate_scores(data, scores)
    _atomic_write(args.out, _json_text(result.to_json_dict()))
    _log(
        f"auroc {result.auroc:.4f}, aupr_id {result.aupr_id:.4f}, "
        f"aupr_ood {result.aupr_ood:.4f}, fpr95 {result.fpr95:.4f}"
    )
    return EXIT_OK


def cmd_search(args) -> int:
    sch = schema_mod.load_schema(args.schema)
    train = schema_mod.load_dataset(args.train, sch)
    val = schema_mod.load_dataset(args.val, sch)
    concepts = tuple(args.concepts.split(",")) if args.concepts else None
    pool = search.generate_candidates(
        sch,
        search.GeneratorConfig(
            max_depth=args.max_depth,
            connectives=tuple(args.connectives.split(",")),
            allow_negation=not args.no_negation,
            concepts=concepts,
        ),
    )
    _log(f"candidate pool size {len(pool)}")
    config = search.SearchConfig(
        delta_min=args.delta_min,
        baseline_j0=args.baseline,
        fit=_fit_config(args),
    )
    result = search.greedy_search(train, val, pool, config)
    _atomic_write(args.out, _json_text(result.to_json_dict()))
    if args.accepted_out:
        text = "".join(c.source + "\n" for c in result.model.constraints)
        _atomic_write(args.accepted_out, text)
    _log(
        f"accepted {len(result.model.constraints)} constraints, "
        f"final auroc {result.final_auroc:.4f}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = synth.load_synth_spec(args.config)
    if args.seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    data = synth.make_benchmark(spec)

    schema_path = os.path.join(args.out_dir, "schema.json")
    raw = {
        name: ("binary" if domain == schema_mod.BINARY_DOMAIN else list(domain))
        for name, domain in spec.schema.concepts
    }
    _atomic_write(schema_path, _json_text(raw))
    _atomic_write(
        os.path.join(args.out_dir, "truth_constraints.txt"),
        "".join(c.source + "\n" for c in spec.model.constraints),
    )
    _atomic_write(
        os.path.join(args.out_dir, "truth_weights.json"),
        _json_text(
            [
                {"constraint": c.source, "weight": float(w)}
                for c, w in zip(spec.model.constraints, spec.model.weights)
            ]
        ),
    )
    data_path = os.path.join(args.out_dir, "data.csv")
    tmp_fd, tmp = tempfile.mkstemp(dir=args.out_dir, prefix=".tmp_", suffix="~")
    os.close(tmp_fd)
    try:
        schema_mod.save_dataset(data, tmp)
        os.replace(tmp, data_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _log(
        f"wrote {len(data)} rows ({spec.n_id} ID, {spec.n_ood} OOD) to {data_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring


def _add_fit_flags(p):
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--init-weight", type=float, default=-1.0)
    p.add_argument(
        "--space-cap",
        type=int,
        default=mln.DEFAULT_SPACE_CAP,
        help="most worlds to enumerate, counted over the concepts the KB mentions",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="logicood")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="parse and compile a constraint file")
    p.add_argument("--schema", required=True)
    p.add_argument("--constraints", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("fit", help="learn constraint weights from ID data")
    p.add_argument("--schema", required=True)
    p.add_argument("--constraints", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="standalone constraint-based outlier scores")
    p.add_argument("--schema", required=True)
    p.add_argument("--constraints", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--explain", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("fuse", help="fuse constraint scores with detector scores")
    p.add_argument("--schema", required=True)
    p.add_argument("--constraints", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--train", required=True, help="ID reference CSV for the fit")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--family", choices=sorted(FAMILY_FLAGS), default="gev")
    p.add_argument("--dist-out", default=None)
    p.add_argument("--explain", default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--decisions", default=None)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="AUROC/AUPR/FPR95 from scores and labels")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", help="greedy constraint-set search")
    p.add_argument("--schema", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--accepted-out", default=None)
    p.add_argument("--delta-min", type=float, default=0.01)
    p.add_argument("--baseline", type=float, default=0.5)
    p.add_argument("--max-depth", type=int, default=2)
    p.add_argument("--connectives", default="->")
    p.add_argument("--no-negation", action="store_true")
    p.add_argument("--concepts", default=None)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    return parser


def _attach_connectives(argv):
    """Rewrite `--connectives VALUE` as `--connectives=VALUE`: argparse
    reads a separate value that starts with '-', such as "->,xor", as a
    flag."""
    joined, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg == "--connectives" else None
        joined.append(arg if value is None else f"{arg}={value}")
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_connectives(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except NumericalError as exc:
        _log(f"numerical error: {exc}")
        return EXIT_NUMERICAL
    except ValidationError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    except OSError as exc:  # a missing, unreadable or directory path
        _log(f"error: {exc}")
        return EXIT_DATA
    except LogicOodError as exc:
        _log(f"error: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
