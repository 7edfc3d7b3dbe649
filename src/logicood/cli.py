"""Command-line entry point.

Subcommands: compile, fit, score, fuse, search, eval, synth. Logs go to
stderr; data goes only to declared output files, each written atomically
through the artifacts module. Exit codes: 0 success, 1 usage error,
2 data/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import artifacts, distributions, fusion, metrics, mln, schema as schema_mod, search, synth
from .constraints import load_constraints, save_constraints
from .errors import LogicOodError, NumericalError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_id_csv(path, column, ids, values, domain=None) -> None:
    """`__id,<column>`, then one `id,cell` row per sample, where cell is
    domain[value], or repr(float(value)) with no domain, made a block of rows
    at a time; an id with a comma, quote or newline is CSV-quoted, and a row
    whose id has a \\r is quoted whole."""
    from .csvblocks import CsvFormat, row_slices

    fmt = CsvFormat(lineterminator="\n")
    whole = CsvFormat(lineterminator="\n", quoting=csv.QUOTE_ALL)
    cells = fmt.column(values, domain)
    with artifacts.atomic_open(path) as fh:
        fh.write(fmt.lines([("__id", column)]))
        for part in row_slices(len(ids), 2):
            rows = zip(fmt.cells(ids[part]), cells(part))
            if "\r" in "".join(ids[part]):  # the rows of such ids are quoted whole
                rows = [(whole.line((sid, row[1])),) if "\r" in sid else row
                        for sid, row in zip(ids[part], rows)]
            fh.write(fmt.lines(rows))


def _load_datasets(first, second, schema):
    """The datasets at two paths, parsed once when both name the same file
    (a Dataset is read-only, so the two may share it)."""
    data = schema_mod.load_dataset(first, schema)
    if os.path.realpath(first) == os.path.realpath(second):
        return data, data
    return data, schema_mod.load_dataset(second, schema)


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
        convergence_tol=args.tol,
        init_weight=args.init_weight,
        space_cap=args.space_cap,
    )


def _write_explanations(path, model, data) -> None:
    """explain.json: one {"__id", "total_score", "constraints"} object per
    row, byte-identical to json.dumps(objects, indent=2) + "\n". Rows of
    one world differ only in "__id", so each world is explained and
    formatted once, and each row's text is written as it is formatted."""
    grouped = mln.WorldCounts.of(model.mentioned_concepts, [data.vectors])
    # Each world's members after "__id", as json.dumps indents them in the list.
    head, tail = "[\n  {", "\n]"
    members = [
        json.dumps([{
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
        }], indent=2)[len(head):-len(tail)]
        for report in mln.explain_batch(model, grouped.worlds.T)
    ]
    with artifacts.atomic_open(path) as fh:
        sep = "[\n"
        for sid, w in zip(data.sample_ids, grouped.world_of.tolist()):
            fh.write(f'{sep}  {{\n    "__id": {encode_basestring_ascii(sid)},{members[w]}')
            sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")


def _read_scores(path, data):
    """The scores of a `__id,score` file whose ids are data's, read one
    block at a time. Of several faults, the one reported is the first of: a
    row's width, the header, the row count, the ids, non-numeric scores,
    NaN scores, each at its first faulty row."""
    from .csvblocks import float_column, raise_after, read_blocks

    blocks = read_blocks(path)
    if next(blocks) != ["__id", "score"]:
        raise_after(blocks, f"{path}: expected header __id,score")
    faults, scores, n = {}, [np.empty(0)], 0  # the first fault of each rank after the count
    for row, (ids, cells) in blocks:
        got = ids.strs()
        want = data.sample_ids[row - 2:row - 2 + len(got)]
        if got[:len(want)] != want:
            i = next(i for i, (sid, expected) in enumerate(zip(got, want)) if sid != expected)
            faults.setdefault(1, f"{path}: row {row + i} id {got[i]!r} does not match "
                                 f"dataset id {want[i]!r}")
        n += len(got)
        del got  # so that one column of the block is made str at a time
        try:
            scores.append(np.array(float_column(path, cells, "score", row)))
            if np.isnan(scores[-1]).any():
                faults.setdefault(3, f"{path}: row {row + np.isnan(scores[-1]).argmax()}: NaN score")
        except ValidationError as exc:
            faults.setdefault(2, str(exc))
        del ids, cells  # the reader frees a block's cells as it reads the next
    if n != len(data):
        raise ValidationError(f"{path}: {n} scores for {len(data)} data rows")
    if faults:
        raise ValidationError(faults[min(faults)])
    return np.concatenate(scores)


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
    if len(train) == 0:
        raise ValidationError(f"{args.train}: cannot fit on a dataset with no ID rows")
    cfg = _fit_config(args)
    model = mln.MlnModel(sch, tuple(constraints), np.zeros(len(constraints)))
    _log(f"epoch 0: weights initialized to {cfg.init_weight}")
    result = mln.fit_weights(model, train, cfg)
    _log(
        f"initial NLL {result.nll_history[0]:.6f}, "
        f"final NLL {result.nll_history[-1]:.6f}, epochs used {result.epochs_used}, "
        f"converged {'yes' if result.converged else 'no'}"
    )
    mln.save_weights(result.model, args.out)
    return EXIT_OK


def cmd_score(args) -> int:
    model = _load_model(args)
    data = schema_mod.load_dataset(args.data, model.schema)
    scores = mln.mln_score_batch(model, data.vectors)
    _write_id_csv(args.out, "score", data.sample_ids, scores)
    if args.explain:
        _write_explanations(args.explain, model, data)
    _log(f"scored {len(data)} rows")
    return EXIT_OK


def cmd_fuse(args) -> int:
    if args.threshold is not None and not args.decisions:
        raise ValidationError("--threshold requires --decisions <path>")
    if args.decisions and args.threshold is None:
        raise ValidationError("--decisions requires --threshold <tau>")
    model = _load_model(args)
    data, reference = _load_datasets(args.data, args.train, model.schema)
    reference = schema_mod.id_subset(reference)
    family = distributions.FAMILY_BY_FLAG[args.family]
    if family != "none" and reference.detector_scores is None:
        raise ValidationError(
            f"{args.train}: fitting the {family} family needs __detector_score"
        )
    dist = artifacts.blame(  # e.g. a detector score that is not finite
        args.train, distributions.fit_distribution, reference.detector_scores, family)
    if family == "none" and data.detector_scores is None:
        fused = mln.mln_score_batch(model, data.vectors)
    else:
        fused = artifacts.blame(args.data, fusion.fuse_batch, fusion.FusedScorer(model, dist), data)
    flags = None if args.threshold is None else fusion.threshold(fused, args.threshold)
    _write_id_csv(args.out, "score", data.sample_ids, fused)
    if args.dist_out:
        distributions.save_distribution(dist, args.dist_out)
    if args.explain:
        _write_explanations(args.explain, model, data)
    if flags is not None:
        _write_id_csv(args.decisions, "outlier", data.sample_ids, flags, ("0", "1"))
    _log(f"fused {len(data)} rows with family {family}")
    return EXIT_OK


def cmd_eval(args) -> int:
    sch = schema_mod.load_schema(args.schema)
    data = schema_mod.load_dataset(args.data, sch)
    scores = _read_scores(args.scores, data)
    # e.g. a data file without __is_ood, or with rows of one class only
    result = artifacts.blame(args.data, metrics.evaluate_scores, data, scores)
    artifacts.write_json(args.out, result.to_json_dict())
    _log(
        f"auroc {result.auroc:.4f}, aupr_id {result.aupr_id:.4f}, "
        f"aupr_ood {result.aupr_ood:.4f}, fpr95 {result.fpr95:.4f}"
    )
    return EXIT_OK


def cmd_search(args) -> int:
    sch = schema_mod.load_schema(args.schema)
    train, val = _load_datasets(args.train, args.val, sch)
    # greedy_search's own checks, here so that each names its file
    if val.is_ood is None or val.is_ood.all() or not val.is_ood.any():
        raise ValidationError(f"{args.val}: validation set must contain both ID and OOD rows")
    if len(train) == 0 or train.is_ood is not None and train.is_ood.all():
        raise ValidationError(f"{args.train}: training set has no ID rows")
    concepts = args.concepts
    if concepts is not None:  # "" selects no concept, which generate_candidates rejects
        concepts = tuple(concepts.split(",")) if concepts else ()
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
    artifacts.write_json(args.out, result.to_json_dict())
    if args.accepted_out:
        save_constraints(result.model.constraints, args.accepted_out)
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
    data = artifacts.blame(args.config, synth.make_benchmark, spec)
    os.makedirs(args.out_dir, exist_ok=True)

    schema_mod.save_schema(spec.schema, os.path.join(args.out_dir, "schema.json"))
    save_constraints(
        spec.model.constraints, os.path.join(args.out_dir, "truth_constraints.txt")
    )
    mln.save_weights(spec.model, os.path.join(args.out_dir, "truth_weights.json"))
    data_path = os.path.join(args.out_dir, "data.csv")
    schema_mod.save_dataset(data, data_path)
    _log(
        f"wrote {len(data)} rows ({spec.n_id} ID, {spec.n_ood} OOD) to {data_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring


def _add_fit_flags(p):
    defaults = mln.FitConfig()
    p.add_argument("--epochs", type=int, default=defaults.max_epochs)
    p.add_argument("--tol", type=float, default=defaults.convergence_tol)
    p.add_argument("--init-weight", type=float, default=defaults.init_weight)
    p.add_argument(
        "--space-cap",
        type=int,
        default=defaults.space_cap,
        help="most worlds to enumerate, counted over the concepts the KB mentions",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="logicood")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *paths, **path_help):
        """A subcommand whose path flags, in the order given, are required."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for path in paths:
            p.add_argument(f"--{path}", required=True, help=path_help.get(path))
        return p

    command("compile", cmd_compile, "parse and compile a constraint file", "schema", "constraints")

    p = command("fit", cmd_fit, "learn constraint weights from ID data",
                "schema", "constraints", "train", "out")
    _add_fit_flags(p)

    p = command("score", cmd_score, "standalone constraint-based outlier scores",
                "schema", "constraints", "weights", "data", "out")
    p.add_argument("--explain", default=None)

    p = command("fuse", cmd_fuse, "fuse constraint scores with detector scores",
                "schema", "constraints", "weights", "train", "data", "out",
                train="ID reference CSV for the fit")
    p.add_argument("--family", choices=sorted(distributions.FAMILY_BY_FLAG), default="gev")
    p.add_argument("--dist-out", default=None)
    p.add_argument("--explain", default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--decisions", default=None)

    command("eval", cmd_eval, "AUROC/AUPR/FPR95 from scores and labels",
            "schema", "data", "scores", "out")

    p = command("search", cmd_search, "greedy constraint-set search",
                "schema", "train", "val", "out")
    searching, generating = search.SearchConfig(), search.GeneratorConfig()
    p.add_argument("--accepted-out", default=None)
    p.add_argument("--delta-min", type=float, default=searching.delta_min)
    p.add_argument("--baseline", type=float, default=searching.baseline_j0)
    p.add_argument("--max-depth", type=int, default=generating.max_depth)
    p.add_argument("--connectives", default=",".join(generating.connectives))
    p.add_argument("--no-negation", action="store_true")
    p.add_argument("--concepts", default=None)
    _add_fit_flags(p)

    p = command("synth", cmd_synth, "generate a synthetic benchmark", "config", "out-dir")
    p.add_argument("--seed", type=int, default=None)

    return parser


def _attach_values(parser: argparse.ArgumentParser, argv):
    """Rewrite `FLAG VALUE` as `FLAG=VALUE` for every flag of the parser
    and its commands that takes one value: argparse reads a separate value
    that starts with '-', such as "->,xor", "-inf" or "-1e3", as a flag."""
    flags, parsers = set(), [parser]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.nargs is None:
                flags.update(action.option_strings)
    joined, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in flags else None
        joined.append(arg if value is None else f"{arg}={value}")
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_values(parser, argv))
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
