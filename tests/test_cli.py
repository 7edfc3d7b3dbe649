import csv
import json
import math

import numpy as np
import pytest

from conftest import SMALL_BLOCKS, block_rows
from explain_reference import explain_json
from logicood import schema as schema_mod
from logicood.cli import _attach_values, _fit_config, build_parser, main
from logicood.constraints import MAX_DEPTH, load_constraints
from logicood.distributions import fit_distribution, load_distribution
from logicood.mln import FitConfig, MlnModel, load_weights
from logicood.schema import load_dataset, load_schema
from logicood.search import GeneratorConfig, SearchConfig

SYNTH_CONFIG = {
    "schema": {"c0": "binary", "c1": "binary", "c2": "binary", "c3": "binary"},
    "model": {"constraints": ["c0 xor c1", "c2 xor c3"], "weights": [2.5, 2.5]},
    "n_id": 1500,
    "n_ood": 1500,
    "ood_mode": "uniform_over_Z",
    "detector": {
        "family": "gev",
        "id_params": {"location": 0.0, "scale": 1.0, "shape": 0.0},
        "ood_params": {"location": 1.5, "scale": 1.0, "shape": 0.0},
    },
    "seed": 5,
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "schema.json").write_text(
        '{"color":["red","blue","white"],"is_octagon":"binary"}', encoding="utf-8"
    )
    (tmp_path / "kb.txt").write_text(
        "color=red -> is_octagon\nis_octagon\n", encoding="utf-8"
    )
    (tmp_path / "train.csv").write_text(
        "color,is_octagon\n" + "red,true\n" * 75 + "blue,false\n" * 25,
        encoding="utf-8",
    )
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_compile_ok(workdir, capsys):
    code = run("compile", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt")
    assert code == 0
    err = capsys.readouterr().err
    assert "compiled 2 constraints" in err


def test_compile_bad_constraint(workdir, capsys):
    (workdir / "bad.txt").write_text("color=\n", encoding="utf-8")
    code = run("compile", "--schema", workdir / "schema.json", "--constraints", workdir / "bad.txt")
    assert code == 2
    assert "offset" in capsys.readouterr().err


def test_compile_parse_error_names_the_offset_once(workdir, capsys):
    kb = workdir / "bad.txt"
    kb.write_text("color=\n", encoding="utf-8")
    assert run("compile", "--schema", workdir / "schema.json", "--constraints", kb) == 2
    assert capsys.readouterr().err == f"error: {kb}:1: expected 'IDENT' (offset 6)\n"


def test_compile_empty_warns(workdir, capsys):
    (workdir / "empty.txt").write_text("# nothing\n", encoding="utf-8")
    code = run("compile", "--schema", workdir / "schema.json", "--constraints", workdir / "empty.txt")
    assert code == 0
    assert "empty knowledge base" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run("compile", "--schema") == 1
    assert run("definitely-not-a-command") == 1


def test_missing_file_exit_code(workdir):
    code = run(
        "compile", "--schema", workdir / "nope.json", "--constraints", workdir / "kb.txt"
    )
    assert code == 2


def test_fit_writes_weights(workdir, capsys):
    out = workdir / "weights.json"
    code = run(
        "fit", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--train", workdir / "train.csv", "--out", out, "--epochs", 200,
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "epoch 0: weights initialized to -1.0" in err
    payload = json.loads(out.read_text())
    assert [e["constraint"] for e in payload] == ["color=red -> is_octagon", "is_octagon"]


def test_fit_single_rule_closed_form(workdir):
    (workdir / "single.txt").write_text("is_octagon\n", encoding="utf-8")
    out = workdir / "w.json"
    code = run(
        "fit", "--schema", workdir / "schema.json", "--constraints", workdir / "single.txt",
        "--train", workdir / "train.csv", "--out", out, "--epochs", 300,
    )
    assert code == 0
    weight = json.loads(out.read_text())[0]["weight"]
    assert weight == pytest.approx(math.log(3), abs=1e-3)


def test_fit_space_cap_exit_code(workdir, capsys):
    code = run(
        "fit", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--train", workdir / "train.csv", "--out", workdir / "w.json", "--space-cap", 2,
    )
    assert code == 2
    assert "exceeds cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "nan", "convergence_tol must be >= 0, got nan"),
        ("--init-weight", "inf", "init_weight must be finite, got inf"),
        ("--init-weight", "-inf", "init_weight must be finite, got -inf"),
        ("--init-weight", "nan", "init_weight must be finite, got nan"),
    ],
)
@pytest.mark.parametrize("command", ["fit", "search"])
def test_invalid_fit_settings_exit_code(workdir, capsys, command, flag, value, message):
    out = workdir / "out.json"
    if command == "fit":
        inputs = ["--constraints", workdir / "kb.txt", "--train", workdir / "train.csv"]
    else:
        data = _labeled_with_ids(workdir, ["a", "b", "c", "d"])
        inputs = ["--train", data, "--val", data, "--concepts", "is_octagon"]
    code = run(command, "--schema", workdir / "schema.json", *inputs, "--out", out, flag, value)
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--baseline", "nan", "baseline_j0 must be finite, got nan"),
        ("--baseline", "inf", "baseline_j0 must be finite, got inf"),
        ("--baseline", "-inf", "baseline_j0 must be finite, got -inf"),
        ("--baseline", "2", "baseline_j0 must be an AUROC in [0, 1], got 2.0"),
        ("--baseline", "-0.5", "baseline_j0 must be an AUROC in [0, 1], got -0.5"),
        ("--delta-min", "nan", "delta_min must be finite and >= 0, got nan"),
        ("--delta-min", "inf", "delta_min must be finite and >= 0, got inf"),
    ],
)
def test_invalid_search_settings_exit_code(workdir, capsys, flag, value, message):
    # A NaN or infinite baseline would be written to search.json as its
    # final AUROC, which is not JSON, and one outside [0, 1] as an AUROC no
    # model can have; a NaN margin would accept nothing.
    data = _labeled_with_ids(workdir, ["a", "b", "c", "d"])
    out = workdir / "search.json"
    code = run(
        "search", "--schema", workdir / "schema.json", "--train", data, "--val", data,
        "--concepts", "is_octagon", "--out", out, flag, value,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, summary",
    [
        (["--epochs", 200], "epochs used 27, converged yes"),
        ([], "epochs used 10, converged no"),  # stopped by the 10-epoch default
        (["--init-weight", "-1e300"], "epochs used 0, converged no"),  # ABNORMAL
        (["--tol", "inf"], "epochs used 1, converged yes"),  # a valid tolerance
    ],
)
def test_fit_reports_whether_it_converged(workdir, capsys, flags, summary):
    code = run(
        "fit", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--train", workdir / "train.csv", "--out", workdir / "w.json", *flags,
    )
    assert code == 0
    assert capsys.readouterr().err.splitlines()[-1].endswith(summary)


def test_score_and_explain(workdir):
    weights = workdir / "w.json"
    run(
        "fit", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--train", workdir / "train.csv", "--out", weights, "--epochs", 100,
    )
    scores = workdir / "scores.csv"
    explain = workdir / "explain.json"
    code = run(
        "score", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--weights", weights, "--data", workdir / "train.csv", "--out", scores,
        "--explain", explain,
    )
    assert code == 0
    lines = scores.read_text().strip().splitlines()
    assert lines[0] == "__id,score"
    assert len(lines) == 101
    payload = json.loads(explain.read_text())
    assert len(payload) == 100
    entry = payload[0]
    assert entry["total_score"] == pytest.approx(
        sum(c["contribution"] for c in entry["constraints"])
    )


def test_score_and_fuse_write_the_same_explain_json(workdir):
    weights = _write_weights(
        workdir,
        '[{"constraint": "color=red -> is_octagon", "weight": 1.5},'
        ' {"constraint": "is_octagon", "weight": -0.75}]',
    )
    data = workdir / "data.csv"
    ids = ['"quoted"', "back\\slash", "café", "tab\there", "plain"] * 4
    rows = [
        f'"{sid.replace(chr(34), 2 * chr(34))}_{i}",{color},{octagon}'
        for i, (sid, color, octagon) in enumerate(
            zip(ids, ["red", "blue", "white", "red"] * 5, ["true", "false"] * 10)
        )
    ]
    data.write_text("__id,color,is_octagon\n" + "\n".join(rows) + "\n", encoding="utf-8")
    model = ["--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
             "--weights", weights, "--data", data]
    assert run("score", *model, "--out", workdir / "s.csv", "--explain", workdir / "score.json") == 0
    assert run(
        "fuse", *model, "--train", workdir / "train.csv", "--family", "none",
        "--out", workdir / "f.csv", "--explain", workdir / "fuse.json",
    ) == 0
    written = (workdir / "score.json").read_bytes()
    assert written == (workdir / "fuse.json").read_bytes()
    sch = load_schema(workdir / "schema.json")
    constraints = load_constraints(workdir / "kb.txt", sch)
    reference = explain_json(
        MlnModel(sch, tuple(constraints), load_weights(weights, constraints)),
        load_dataset(data, sch),
    )
    assert written == reference.encode("utf-8")
    assert [entry["__id"] for entry in json.loads(written)] == [f"{s}_{i}" for i, s in enumerate(ids)]


def test_explain_over_a_space_past_int64(tmp_path, rng):
    # 30 five-valued concepts, all mentioned: 5^30 > 2^63 worlds, more
    # than an int64 world code holds. The rows are grouped, never coded.
    values = [f"v{k}" for k in range(5)]
    names = [f"c{i}" for i in range(30)]
    (tmp_path / "schema.json").write_text(json.dumps(dict.fromkeys(names, values)), "utf-8")
    sources = [f"{a}=v1 -> {b}=v2" for a, b in zip(names[::2], names[1::2])]
    (tmp_path / "kb.txt").write_text("\n".join(sources) + "\n", encoding="utf-8")
    weights = _write_weights(tmp_path, json.dumps(
        [{"constraint": s, "weight": w} for s, w in zip(sources, rng.normal(size=15))]
    ))
    # Few distinct rows, so that worlds repeat.
    rows = rng.integers(0, 5, size=(8, 30))[rng.integers(0, 8, size=60)]
    (tmp_path / "data.csv").write_text(
        ",".join(names) + "\n" + "".join(",".join(values[v] for v in row) + "\n" for row in rows),
        encoding="utf-8",
    )
    explain = tmp_path / "explain.json"
    assert run(
        "score", "--schema", tmp_path / "schema.json", "--constraints", tmp_path / "kb.txt",
        "--weights", weights, "--data", tmp_path / "data.csv", "--out", tmp_path / "s.csv",
        "--explain", explain,
    ) == 0
    sch = load_schema(tmp_path / "schema.json")
    constraints = load_constraints(tmp_path / "kb.txt", sch)
    model = MlnModel(sch, tuple(constraints), load_weights(weights, constraints))
    assert len(model.mentioned_concepts) == 30
    reference = explain_json(model, load_dataset(tmp_path / "data.csv", sch))
    assert explain.read_bytes() == reference.encode("utf-8")


def _synth_pipeline(tmp_path, seed):
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    out = tmp_path / f"run_{seed}"
    assert run("synth", "--config", config, "--out-dir", out, "--seed", seed) == 0
    schema = out / "schema.json"
    kb = out / "truth_constraints.txt"
    data = out / "data.csv"
    weights = out / "weights.json"
    assert run(
        "fit", "--schema", schema, "--constraints", kb, "--train", data,
        "--out", weights, "--epochs", 100,
    ) == 0
    report = out / "search.json"
    accepted = out / "accepted.txt"
    assert run(
        "search", "--schema", schema, "--train", data, "--val", data,
        "--out", report, "--accepted-out", accepted,
        "--connectives", "xor", "--epochs", 100,
    ) == 0
    fused = out / "fused.csv"
    assert run(
        "fuse", "--schema", schema, "--constraints", kb, "--weights", weights,
        "--train", data, "--data", data, "--family", "gev", "--out", fused,
        "--dist-out", out / "dist.json",
    ) == 0
    result = out / "eval.json"
    assert run(
        "eval", "--schema", schema, "--data", data, "--scores", fused, "--out", result
    ) == 0
    return out


def test_full_pipeline(tmp_path):
    out = _synth_pipeline(tmp_path, seed=5)
    result = json.loads((out / "eval.json").read_text())
    assert 0.8 < result["auroc"] <= 1.0
    assert (out / "accepted.txt").read_text().strip()


def test_pipeline_deterministic(tmp_path):
    a = _synth_pipeline(tmp_path / "a", seed=5)
    b = _synth_pipeline(tmp_path / "b", seed=5)
    for name in (
        "data.csv", "weights.json", "search.json", "accepted.txt",
        "fused.csv", "dist.json", "eval.json", "schema.json",
    ):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_fuse_family_none_preserves_mln_ranking(tmp_path):
    out = _synth_pipeline(tmp_path, seed=9)
    schema, kb, data = out / "schema.json", out / "truth_constraints.txt", out / "data.csv"
    weights = out / "weights.json"
    mln_scores = out / "mln_scores.csv"
    none_scores = out / "none_fused.csv"
    assert run(
        "score", "--schema", schema, "--constraints", kb, "--weights", weights,
        "--data", data, "--out", mln_scores,
    ) == 0
    assert run(
        "fuse", "--schema", schema, "--constraints", kb, "--weights", weights,
        "--train", data, "--data", data, "--family", "none", "--out", none_scores,
    ) == 0

    def ranking(path):
        rows = path.read_text().strip().splitlines()[1:]
        scores = [float(r.split(",")[1]) for r in rows]
        return sorted(range(len(scores)), key=lambda i: (scores[i], i))

    assert ranking(mln_scores) == ranking(none_scores)


def test_fuse_threshold_decisions(tmp_path):
    out = _synth_pipeline(tmp_path, seed=5)
    schema, kb, data = out / "schema.json", out / "truth_constraints.txt", out / "data.csv"
    decisions = out / "decisions.csv"
    code = run(
        "fuse", "--schema", schema, "--constraints", kb, "--weights", out / "weights.json",
        "--train", data, "--data", data, "--family", "gev",
        "--out", out / "f.csv", "--threshold", -1.0, "--decisions", decisions,
    )
    assert code == 0
    lines = decisions.read_text().strip().splitlines()
    assert lines[0] == "__id,outlier"
    assert set(line.split(",")[1] for line in lines[1:]) == {"0", "1"}


def test_eval_id_mismatch(tmp_path, workdir):
    (workdir / "labeled.csv").write_text(
        "__id,color,is_octagon,__is_ood\na,red,true,0\nb,blue,false,1\n",
        encoding="utf-8",
    )
    (workdir / "scores.csv").write_text("__id,score\nz,1.0\nb,2.0\n", encoding="utf-8")
    code = run(
        "eval", "--schema", workdir / "schema.json", "--data", workdir / "labeled.csv",
        "--scores", workdir / "scores.csv", "--out", workdir / "r.json",
    )
    assert code == 2


def _write_weights(workdir, text):
    path = workdir / "w.json"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "text, message",
    [
        ('[{"constraint": "is_octagon", "weight": 1.0', "w.json:1: invalid JSON"),
        ('[1.0, 2.0]', "entry 0 is float, expected an object"),
        ('[{"constraint": "color=red -> is_octagon"}, {"constraint": "is_octagon", "weight": 1}]',
         "entry 0: weight must be a number, got None"),
        ('[{"constraint": "color=red -> is_octagon", "weight": 1}, {"constraint": "is_octagon", "weight": "x"}]',
         "entry 1: weight must be a number, got 'x'"),
        ('[{"constraint": "color=red -> is_octagon", "weight": NaN}, {"constraint": "is_octagon", "weight": 1}]',
         "entry 0: weight must be finite, got nan"),
        ('[{"constraint": "color=red -> is_octagon", "weight": 1}, {"constraint": "is_octagon", "weight": 1e999}]',
         "entry 1: weight must be finite, got inf"),
        ('[{"constraint": "color=red -> is_octagon", "weight": -1' + "0" * 400 + "}, "
         '{"constraint": "is_octagon", "weight": 1}]',
         "entry 0: weight must be finite, got -inf"),
    ],
    ids=["malformed-json", "non-object-entry", "missing-weight", "non-numeric-weight",
         "nan-weight", "overflowing-weight", "overflowing-integer-weight"],
)
def test_score_bad_weights_file_exit_code(workdir, capsys, text, message):
    weights = _write_weights(workdir, text)
    code = run(
        "score", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--weights", weights, "--data", workdir / "train.csv", "--out", workdir / "s.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and str(weights) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "rows, message",
    [
        ("a,1.0\nb,high\n", "scores.csv: row 3: non-numeric score 'high'"),
        ("a,1.0\nb\n", "scores.csv: row 3 has 1 cells, expected 2"),
        ("a,nan\nb,1.0\n", "scores.csv: row 2: NaN score"),
    ],
    ids=["non-numeric-score", "short-row", "nan-score"],
)
def test_eval_bad_score_row(workdir, capsys, rows, message):
    (workdir / "labeled.csv").write_text(
        "__id,color,is_octagon,__is_ood\na,red,true,0\nb,blue,false,1\n",
        encoding="utf-8",
    )
    (workdir / "scores.csv").write_text("__id,score\n" + rows, encoding="utf-8")
    code = run(
        "eval", "--schema", workdir / "schema.json", "--data", workdir / "labeled.csv",
        "--scores", workdir / "scores.csv", "--out", workdir / "r.json",
    )
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["1_5", " 1.5 "], ids=["underscore", "spaces"])
@pytest.mark.parametrize("command", ["fit", "fuse", "eval"])
def test_number_cells_that_float_would_bend_exit_code(workdir, capsys, command, cell):
    """float() reads '1_5' as 15.0 and ' 1.5 ' as 1.5; no data or scores file takes either."""
    header = "__id,color,is_octagon,__detector_score,__is_ood\n"
    bent = "bent" if command != "eval" else "labeled"
    data = _csv(workdir, f"{bent}.csv", header + f"a,red,true,1.0,0\nb,blue,false,{cell},1\n")
    labeled = _csv(workdir, "labeled.csv", header + "a,red,true,1.0,0\nb,blue,false,2.0,1\n")
    scores = _csv(workdir, "scores.csv", f"__id,score\na,1.0\nb,{cell}\n")
    schema, kb = workdir / "schema.json", workdir / "kb.txt"
    if command == "fit":
        code = run("fit", "--schema", schema, "--constraints", kb, "--train", data,
                   "--out", workdir / "out")
    elif command == "fuse":
        code = run("fuse", "--schema", schema, "--constraints", kb,
                   "--weights", _unit_weights(workdir), "--train", labeled, "--data", data,
                   "--out", workdir / "out")
    else:
        code = run("eval", "--schema", schema, "--data", labeled, "--scores", scores,
                   "--out", workdir / "out")
    blamed, what = (scores, "score") if command == "eval" else (data, "detector score")
    assert code == 2
    assert capsys.readouterr().err == f"error: {blamed}: row 3: non-numeric {what} {cell!r}\n"
    assert not (workdir / "out").exists()


def _labeled_with_ids(workdir, ids):
    """A labeled, detector-scored dataset whose ids are CSV-quoted as needed."""
    path = workdir / "labeled.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["__id", "color", "is_octagon", "__detector_score", "__is_ood"])
        for i, sid in enumerate(ids):
            writer.writerow([sid, ["red", "blue"][i % 2], "true", float(i), i % 2])
    return path


def _unit_weights(workdir):
    return _write_weights(
        workdir,
        '[{"constraint": "color=red -> is_octagon", "weight": 1.0},'
        ' {"constraint": "is_octagon", "weight": 1.0}]',
    )


def _id_column(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[0] for row in csv.reader(fh)][1:]


def test_ids_that_need_quoting_round_trip_to_eval(workdir):
    ids = ["x,1", 'q"2', "two\nlines", "plain"]
    data = _labeled_with_ids(workdir, ids)
    weights = _unit_weights(workdir)
    model = ("--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
             "--weights", weights, "--data", data)
    scores, fused, decisions = workdir / "s.csv", workdir / "f.csv", workdir / "d.csv"
    assert run("score", *model, "--out", scores) == 0
    assert run("fuse", *model, "--train", data, "--family", "none", "--out", fused,
               "--threshold", 0.5, "--decisions", decisions) == 0
    for path in (scores, fused, decisions):
        assert _id_column(path) == ids
    # Only the ids that need quoting are quoted.
    assert scores.read_text(encoding="utf-8").startswith('__id,score\n"x,1",')
    assert "\nplain," in scores.read_text(encoding="utf-8")
    for path in (scores, fused):
        assert run("eval", "--schema", workdir / "schema.json", "--data", data,
                   "--scores", path, "--out", workdir / "r.json") == 0


def test_id_with_a_bare_carriage_return_round_trips_to_eval(workdir):
    # csv.writer quotes only the line terminator's characters, so a row whose
    # id holds a bare "\r" is quoted whole; every other row is written as before.
    ids = ["a\rb", "c", "d,e"]
    data = _labeled_with_ids(workdir, ids)
    weights = _unit_weights(workdir)
    model = ("--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
             "--weights", weights, "--data", data)
    scores, fused, decisions = workdir / "s.csv", workdir / "f.csv", workdir / "d.csv"
    assert run("score", *model, "--out", scores) == 0
    assert run("fuse", *model, "--train", data, "--family", "none", "--out", fused,
               "--threshold", 0.5, "--decisions", decisions) == 0
    for path in (scores, fused, decisions):
        assert _id_column(path) == ids
        lines = path.read_bytes().split(b"\n")
        assert lines[1].startswith(b'"a\rb","') and lines[2].startswith(b"c,")
        assert lines[3].startswith(b'"d,e",') and lines[4] == b""
    for path in (scores, fused):
        assert run("eval", "--schema", workdir / "schema.json", "--data", data,
                   "--scores", path, "--out", workdir / "r.json") == 0


def test_a_file_named_by_two_flags_is_parsed_once(workdir, monkeypatch):
    parsed = []
    load = schema_mod.load_dataset
    monkeypatch.setattr(
        schema_mod, "load_dataset", lambda path, schema: parsed.append(path) or load(path, schema)
    )
    data = _labeled_with_ids(workdir, ["a", "b", "c", "d"])
    same = workdir / "link.csv"  # another name for the same file
    same.symlink_to(data)
    weights = _unit_weights(workdir)
    assert run("fuse", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
               "--weights", weights, "--train", data, "--data", same, "--family", "none",
               "--out", workdir / "f.csv") == 0
    assert run("search", "--schema", workdir / "schema.json", "--train", data, "--val", same,
               "--concepts", "is_octagon", "--out", workdir / "search.json") == 0
    assert parsed == [str(same), str(data)]
    # Two different files are each parsed.
    other = workdir / "other.csv"
    other.write_bytes(data.read_bytes())
    assert run("search", "--schema", workdir / "schema.json", "--train", data, "--val", other,
               "--concepts", "is_octagon", "--out", workdir / "search.json") == 0
    assert parsed[2:] == [str(data), str(other)]


@pytest.mark.parametrize("form", [["--concepts", ""], ["--concepts="]])
def test_search_rejects_an_empty_concept_selection(workdir, capsys, form):
    data = _labeled_with_ids(workdir, ["a", "b", "c", "d"])
    out = workdir / "search.json"
    code = run("search", "--schema", workdir / "schema.json", "--train", data, "--val", data,
               "--out", out, *form)
    assert code == 2
    assert "empty concept selection" in capsys.readouterr().err
    assert not out.exists()


def test_search_connectives_separate_value(tmp_path):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    out = tmp_path / "run"
    assert run("synth", "--config", config, "--out-dir", out) == 0
    reports = []
    for form in (["--connectives", "->,xor"], ["--connectives=->,xor"]):
        report = tmp_path / f"report{len(reports)}.json"
        code = run(
            "search", "--schema", out / "schema.json", "--train", out / "data.csv",
            "--val", out / "data.csv", "--out", report, "--concepts", "c0,c1,c2",
            *form,
        )
        assert code == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert b"xor" in reports[0] and b"->" in reports[0]


@pytest.mark.parametrize(
    "text, message",
    [('{"schema": ', ":1: invalid JSON"), ("[1, 2]", ": expected a JSON object, got list")],
    ids=["malformed-json", "not-an-object"],
)
def test_synth_bad_config_exit_code(tmp_path, capsys, text, message):
    config = tmp_path / "spec.json"
    config.write_text(text, encoding="utf-8")
    code = run("synth", "--config", config, "--out-dir", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert f"{config}{message}" in err
    assert "Traceback" not in err


def test_directory_path_exit_code(workdir, capsys):
    code = run("compile", "--schema", workdir, "--constraints", workdir / "kb.txt")
    assert code == 2
    err = capsys.readouterr().err
    assert str(workdir) in err
    assert "Traceback" not in err


def test_fuse_threshold_without_decisions_writes_nothing(workdir, capsys):
    weights = _write_weights(
        workdir,
        '[{"constraint": "color=red -> is_octagon", "weight": 1.0},'
        ' {"constraint": "is_octagon", "weight": 1.0}]',
    )
    outputs = [workdir / "fused.csv", workdir / "dist.json", workdir / "explain.json"]
    code = run(
        "fuse", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--weights", weights, "--train", workdir / "train.csv",
        "--data", workdir / "train.csv", "--family", "none", "--out", outputs[0],
        "--dist-out", outputs[1], "--explain", outputs[2], "--threshold", 0.5,
    )
    assert code == 2
    assert "--threshold requires --decisions" in capsys.readouterr().err
    assert not any(p.exists() for p in outputs)


def test_fuse_decisions_without_threshold_writes_nothing(workdir, capsys):
    # w.json does not exist: the flags are checked before any file is read.
    decisions = workdir / "d.csv"
    code = run(
        "fuse", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--weights", workdir / "w.json", "--train", workdir / "train.csv",
        "--data", workdir / "train.csv", "--family", "none", "--out", workdir / "fused.csv",
        "--decisions", decisions,
    )
    assert code == 2
    assert "--decisions requires --threshold" in capsys.readouterr().err
    assert not decisions.exists() and not (workdir / "fused.csv").exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_fuse_rejects_a_non_finite_threshold(workdir, capsys, tau):
    weights = _unit_weights(workdir)
    outputs = [workdir / "fused.csv", workdir / "d.csv"]
    code = run(
        "fuse", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--weights", weights, "--train", workdir / "train.csv",
        "--data", workdir / "train.csv", "--family", "none", "--out", outputs[0],
        "--threshold", tau, "--decisions", outputs[1],
    )
    assert code == 2
    assert "threshold must be finite" in capsys.readouterr().err
    assert not any(p.exists() for p in outputs)


@pytest.mark.parametrize("form", [["--threshold", "-0.5"], ["--threshold=-0.5"]])
def test_fuse_reads_a_negative_threshold(workdir, form):
    # Every row scores -2 or -1 under unit weights, below -0.5.
    weights = _unit_weights(workdir)
    decisions = workdir / "d.csv"
    code = run(
        "fuse", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--weights", weights, "--train", workdir / "train.csv",
        "--data", workdir / "train.csv", "--family", "none", "--out", workdir / "fused.csv",
        *form, "--decisions", decisions,
    )
    assert code == 0
    assert decisions.read_text().splitlines() == ["__id,outlier"] + [f"{i},0" for i in range(100)]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--init-weight", "-1e3"),
        ("--tol", "-1e-3"),
        ("--baseline", "-inf"),
        ("--delta-min", "-0.5"),
    ],
)
def test_a_dashed_number_is_the_flags_value(flag, value):
    argv = ["search", "--schema", "s", "--train", "t", "--val", "v", "--out", "o", flag, value]
    parser = build_parser()
    args = parser.parse_args(_attach_values(parser, argv))
    assert getattr(args, flag[2:].replace("-", "_")) == float(value)


def test_only_flags_that_take_a_value_are_attached():
    argv = ["search", "--no-negation", "--schema", "s", "--connectives", "->", "--baseline=-1"]
    assert _attach_values(build_parser(), argv) == [
        "search", "--no-negation", "--schema=s", "--connectives=->", "--baseline=-1",
    ]


def test_compile_bad_schema_exit_code(workdir, capsys):
    schema = workdir / "schema.json"
    schema.write_text('{"color": ', encoding="utf-8")
    code = run("compile", "--schema", schema, "--constraints", workdir / "kb.txt")
    assert code == 2
    err = capsys.readouterr().err
    assert f"{schema}:1: invalid JSON" in err
    assert "Traceback" not in err


def test_compile_deeply_nested_schema_exit_code(workdir, capsys):
    schema = workdir / "schema.json"
    schema.write_text("[" * 200_000, encoding="utf-8")
    code = run("compile", "--schema", schema, "--constraints", workdir / "kb.txt")
    assert code == 2
    assert capsys.readouterr().err == f"error: {schema}: JSON nests too deeply\n"


def test_fit_oversized_csv_field_exit_code(workdir, capsys):
    train = workdir / "train.csv"
    train.write_text("color,is_octagon\nred,true\n" + "x" * 200_000 + ",true\n", encoding="utf-8")
    code = run(
        "fit", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--train", train, "--out", workdir / "w.json",
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {train}:3: field larger than field limit (131072)\n"
    assert not (workdir / "w.json").exists()


def test_eval_oversized_csv_field_exit_code(workdir, capsys):
    (workdir / "labeled.csv").write_text(
        "__id,color,is_octagon,__is_ood\na,red,true,0\nb,blue,false,1\n",
        encoding="utf-8",
    )
    scores = workdir / "scores.csv"
    scores.write_text("__id,score\na,1.0\nb," + "9" * 200_000 + "\n", encoding="utf-8")
    code = run(
        "eval", "--schema", workdir / "schema.json", "--data", workdir / "labeled.csv",
        "--scores", scores, "--out", workdir / "r.json",
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {scores}:3: field larger than field limit (131072)\n"
    assert not (workdir / "r.json").exists()


def _one_concept_kb(tmp_path, line):
    schema, kb = tmp_path / "schema.json", tmp_path / "kb.txt"
    schema.write_text('{"c0": "binary"}', encoding="utf-8")
    kb.write_text(line + "\n", encoding="utf-8")
    weights = _write_weights(tmp_path, json.dumps([{"constraint": line, "weight": 1.0}]))
    (tmp_path / "data.csv").write_text("c0\ntrue\nfalse\n", encoding="utf-8")
    return schema, kb, weights


def _score(tmp_path, schema, kb, weights):
    return run(
        "score", "--schema", schema, "--constraints", kb, "--weights", weights,
        "--data", tmp_path / "data.csv", "--out", tmp_path / "scores.csv",
    )


@pytest.mark.parametrize(
    "line, message",
    [
        ("(" * 200 + "c0" + ")" * 200, "too deeply to parse"),
        ("not " * 1000 + "c0", "too deeply to parse"),
        (" and ".join(["c0"] * 3000), "3000 levels deep"),
        (" and ".join(["c0"] * 986), "986 levels deep"),
    ],
    ids=["parens-200", "nots-1000", "chain-3000", "chain-986"],
)
def test_compile_deep_constraint_exit_code(tmp_path, capsys, line, message):
    schema, kb, _ = _one_concept_kb(tmp_path, line)
    assert run("compile", "--schema", schema, "--constraints", kb) == 2
    err = capsys.readouterr().err
    assert f"{kb}:1: " in err and message in err


def test_score_deep_constraint_exit_code(tmp_path, capsys):
    # 986 terms used to compile and then exhaust the stack while scoring.
    schema, kb, weights = _one_concept_kb(tmp_path, " and ".join(["c0"] * 986))
    assert _score(tmp_path, schema, kb, weights) == 2
    assert f"{kb}:1: constraint is 986 levels deep" in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


def test_chain_at_the_depth_bound_compiles_and_scores(tmp_path):
    schema, kb, weights = _one_concept_kb(tmp_path, " and ".join(["c0"] * MAX_DEPTH))
    assert run("compile", "--schema", schema, "--constraints", kb) == 0
    assert _score(tmp_path, schema, kb, weights) == 0
    assert (tmp_path / "scores.csv").read_text(encoding="utf-8") == "__id,score\n0,-1.0\n1,0.0\n"


def _spec_without_gev_shape(config):
    del config["detector"]["id_params"]["shape"]


def _detector(family, id_params, ood_params):
    return lambda c: c.update(
        detector={"family": family, "id_params": id_params, "ood_params": ood_params}
    )


NOT_FINITE = ": draws scores that are not finite"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c.update(n_id="abc"), ": n_id: expected a whole number, got 'abc'"),
        (
            lambda c: c["model"].update(weights=["x", 2.5]),
            ": model: could not convert string to float",
        ),
        (lambda c: c.update(model=["x"]), ": model: expected an object, got list"),
        (_spec_without_gev_shape, ": detector: gev: params must be ['location', 'scale', "),
        (lambda c: c.update(n_id=5.9), ": n_id: expected a whole number, got 5.9"),
        (lambda c: c.update(n_id=0), ": n_id: must be >= 1"),
        (lambda c: c.update(ood_mode="bogus"), ": ood_mode: unknown mode 'bogus'"),
        (lambda c: c.update(n_id=True, n_ood="7"), ": n_id: expected a whole number, got True"),
        (lambda c: c.update(n_ood="7"), ": n_ood: expected a whole number, got '7'"),
        (lambda c: c.update(seed=-3), ": seed: must be >= 0"),
        (lambda c: c.update(space_cap=0), ": space_cap: must be >= 1"),
        # Found while sampling; the first three would write scores every later stage refuses.
        (
            _detector("gev", {"location": 0.0, "scale": 1.0, "shape": math.inf},
                      {"location": 0.0, "scale": 1.0, "shape": 0.0}),
            ": detector: id_params" + NOT_FINITE,
        ),
        (  # the scale exp(-800) underflows to 0
            _detector("lognormal", {"log_mean": 0.0, "log_std": 1.0},
                      {"log_mean": -800.0, "log_std": 1.0}),
            ": detector: ood_params" + NOT_FINITE,
        ),
        (
            _detector("normal", {"mean": 1e308, "std": 1e308}, {"mean": 0.0, "std": 1.0}),
            ": detector: id_params" + NOT_FINITE,
        ),
        (_detector("none", {}, {}), ": the `none` family has no quantile function"),
        (
            lambda c: c.update(schema={f"c{i}": "binary" for i in range(21)}),
            ": semantic space of 21 concepts: 2097152 exceeds cap 1000000",
        ),
    ],
    ids=[
        "n-id-not-a-number", "weight-not-a-number", "model-not-an-object", "gev-without-shape",
        "n-id-fractional", "n-id-zero", "ood-mode-unknown", "n-id-bool", "n-ood-numeric-string",
        "seed-negative", "space-cap-zero", "gev-infinite-shape", "lognormal-zero-scale",
        "normal-overflowing", "none-detector", "space-over-cap",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the message is all synth prints
def test_synth_bad_field_exit_code(tmp_path, capsys, edit, message):
    spec = json.loads(json.dumps(SYNTH_CONFIG))
    edit(spec)
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(spec), encoding="utf-8")
    assert run("synth", "--config", config, "--out-dir", tmp_path / "out") == 2
    assert f"{config}{message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_negative_seed_flag_exit_code(tmp_path, capsys):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    assert run("synth", "--config", config, "--out-dir", tmp_path / "out", "--seed", "-1") == 2
    assert capsys.readouterr().err == "error: seed: must be >= 0\n"
    assert not (tmp_path / "out").exists()


def test_synth_null_optional_fields_are_absent(tmp_path):
    # The README's example config spells an absent alternate model as null.
    config = tmp_path / "spec.json"
    spec = {**SYNTH_CONFIG, "alternate_model": None, "ood_mode": None}
    config.write_text(json.dumps(spec), encoding="utf-8")
    assert run("synth", "--config", config, "--out-dir", tmp_path / "out") == 0
    assert (tmp_path / "out" / "data.csv").exists()


@pytest.mark.parametrize("command", ["fit", "search"])
def test_fit_flag_defaults_are_fit_config(command):
    required = {
        "fit": ["--schema", "s", "--constraints", "k", "--train", "t", "--out", "o"],
        "search": ["--schema", "s", "--train", "t", "--val", "v", "--out", "o"],
    }
    args = build_parser().parse_args([command, *required[command]])
    assert _fit_config(args) == FitConfig()


def test_search_flag_defaults_are_the_configs():
    args = build_parser().parse_args(
        ["search", "--schema", "s", "--train", "t", "--val", "v", "--out", "o"]
    )
    generating, searching = GeneratorConfig(), SearchConfig()
    assert args.max_depth == generating.max_depth
    assert tuple(args.connectives.split(",")) == generating.connectives
    assert (not args.no_negation) == generating.allow_negation
    assert args.concepts == generating.concepts
    assert args.delta_min == searching.delta_min
    assert args.baseline == searching.baseline_j0


FAMILY_CHOICES = ["gennorm", "gev", "lognormal", "none", "normal", "uniform"]


def test_family_choices_are_the_cli_spellings(capsys):
    assert run("fuse", "--family", "generalized_normal") == 1
    assert "{" + ",".join(FAMILY_CHOICES) + "}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", FAMILY_CHOICES)
def test_fuse_dist_out_reads_back_for_every_family(workdir, flag):
    scores = np.random.default_rng(3).lognormal(0.5, 0.4, 100).tolist()
    rows = [f"red,true,{s!r}" for s in scores[:75]] + [f"blue,false,{s!r}" for s in scores[75:]]
    train = workdir / "scored.csv"
    train.write_text("color,is_octagon,__detector_score\n" + "\n".join(rows) + "\n", encoding="utf-8")
    weights = _write_weights(
        workdir,
        '[{"constraint": "color=red -> is_octagon", "weight": 1.0},'
        ' {"constraint": "is_octagon", "weight": 1.0}]',
    )
    dist = workdir / "dist.json"
    assert run(
        "fuse", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--weights", weights, "--train", train, "--data", train, "--family", flag,
        "--out", workdir / "fused.csv", "--dist-out", dist,
    ) == 0
    family = "generalized_normal" if flag == "gennorm" else flag
    assert load_distribution(dist) == fit_distribution(scores, family)


@pytest.mark.parametrize(
    "name, text, line",
    [
        ("schema.json", b'{\n  "c0": "bin\xffary"\n}\n', 2),
        ("kb.txt", b"c0\n# caf\xe9\n", 2),
        ("kb.txt", b"c0\r\r# caf\xe9\r", 3),
        ("w.json", b'[\n  {"constraint": "c0", "weight": 1.0, "note": "\xff"}\n]\n', 2),
        ("data.csv", b"c0\r\ntrue\r\nfal\xc3se\r\n", 3),
        ("scores.csv", b"__id,score\n0,1.0\n1,\xff\n", 3),
    ],
    ids=["schema", "kb", "kb-cr", "weights", "data", "scores"],
)
def test_input_that_is_not_utf8_exit_code(tmp_path, capsys, name, text, line):
    schema, kb, weights = _one_concept_kb(tmp_path, "c0")
    (tmp_path / "data.csv").write_text("c0,__is_ood\ntrue,0\nfalse,1\n", encoding="utf-8")
    (tmp_path / "scores.csv").write_text("__id,score\n0,1.0\n1,2.0\n", encoding="utf-8")
    (tmp_path / name).write_bytes(text)
    if name == "scores.csv":
        code = run("eval", "--schema", schema, "--data", tmp_path / "data.csv",
                   "--scores", tmp_path / name, "--out", tmp_path / "out")
    else:
        code = run("score", "--schema", schema, "--constraints", kb, "--weights", weights,
                   "--data", tmp_path / "data.csv", "--out", tmp_path / "out")
    assert code == 2
    assert capsys.readouterr().err == f"error: {tmp_path / name}:{line}: not UTF-8 text\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("cor -> is_octagon", "unknown concept: 'cor'"),
        ("color=x -> is_octagon", "value 'x' not in domain of 'color'"),
    ],
)
def test_compile_unresolved_atom_names_the_line(workdir, capsys, line, message):
    kb = workdir / "bad.txt"
    kb.write_text(f"is_octagon\n{line}\n", encoding="utf-8")
    assert run("compile", "--schema", workdir / "schema.json", "--constraints", kb) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kb}:2: ") and message in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"color": "binry"}', "domain must be a list of strings"),
        ('{"is-octagon": "binary"}', "invalid concept name: 'is-octagon'"),
    ],
)
def test_compile_invalid_schema_names_the_file(workdir, capsys, text, message):
    schema = workdir / "bad.json"
    schema.write_text(text, encoding="utf-8")
    assert run("compile", "--schema", schema, "--constraints", workdir / "kb.txt") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {schema}: ") and message in err


def test_fit_duplicate_id_names_the_file_and_row(workdir, capsys):
    train = workdir / "dup.csv"
    train.write_text(
        "__id,color,is_octagon\na,red,true\nb,blue,false\na,red,true\n", encoding="utf-8"
    )
    code = run(
        "fit", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--train", train, "--out", workdir / "w.json",
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {train}: row 4: duplicate __id 'a'\n"


@pytest.mark.parametrize(
    "row3, message",
    [("c,maybe,red\n", "row 3, column 'is_octagon': value 'maybe' not in domain"),
     ("c," + "x" * 200_000 + ",red\n", ":4: field larger than field limit (131072)")],
    ids=["row-counts-records", "line-counts-lines"],
)
def test_row_n_counts_records_and_file_line_counts_lines(workdir, capsys, row3, message):
    # Row 2's quoted id holds a newline, so record 3 starts on line 4.
    train = workdir / "quoted.csv"
    train.write_text('__id,is_octagon,color\n"a\nb",true,red\n' + row3, encoding="utf-8")
    code = run(
        "fit", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--train", train, "--out", workdir / "w.json",
    )
    assert code == 2
    sep = "" if message.startswith(":") else ": "
    assert capsys.readouterr().err == f"error: {train}{sep}{message}\n"


@pytest.mark.parametrize("infinite", ["train", "data"])
def test_fuse_non_finite_detector_score_names_the_file(workdir, capsys, infinite):
    weights = _unit_weights(workdir)
    rows = "".join(f"{i},red,true,{i / 10}\n" for i in range(40))
    paths = {}
    for name in ("train", "data"):
        paths[name] = workdir / f"{name}.csv"
        score = "1e400" if name == infinite else "0.5"
        header = "__id,color,is_octagon,__detector_score"
        paths[name].write_text(f"{header}\nx,red,true,{score}\n{rows}", encoding="utf-8")
    code = run(
        "fuse", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--weights", weights, "--train", paths["train"], "--data", paths["data"],
        "--out", workdir / "fused.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[infinite]}: ") and "finite" in err
    assert not (workdir / "fused.csv").exists()


LABELED = "__id,color,is_octagon,__is_ood\n"
ALL_OOD = LABELED + "a,red,true,1\nb,blue,false,1\n"
BOTH = LABELED + "a,red,true,0\nb,blue,false,1\n"


def _csv(workdir, name, text):
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return path


def test_fit_without_id_rows_names_the_file(workdir, capsys):
    train = _csv(workdir, "ood.csv", ALL_OOD)
    code = run(
        "fit", "--schema", workdir / "schema.json", "--constraints", workdir / "kb.txt",
        "--train", train, "--out", workdir / "w.json",
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {train}: cannot fit on a dataset with no ID rows\n"


@pytest.mark.parametrize(
    "train, val, blamed, message",
    [
        (ALL_OOD, BOTH, "train", "training set has no ID rows"),
        (BOTH, LABELED + "a,red,true,0\nb,blue,false,0\n", "val",
         "validation set must contain both ID and OOD rows"),
        (BOTH, "color,is_octagon\nred,true\n", "val",
         "validation set must contain both ID and OOD rows"),
    ],
    ids=["train-all-ood", "val-all-id", "val-unlabeled"],
)
def test_search_task_level_errors_name_the_file(workdir, capsys, train, val, blamed, message):
    paths = {"train": _csv(workdir, "t.csv", train), "val": _csv(workdir, "v.csv", val)}
    code = run("search", "--schema", workdir / "schema.json", "--train", paths["train"],
               "--val", paths["val"], "--out", workdir / "s.json")
    assert code == 2
    assert capsys.readouterr().err == f"error: {paths[blamed]}: {message}\n"


@pytest.mark.parametrize(
    "data, message",
    [
        ("__id,color,is_octagon\na,red,true\nb,blue,false\n", "dataset lacks the __is_ood column"),
        (LABELED + "a,red,true,0\nb,blue,false,0\n",
         "both ID and OOD score lists must be non-empty"),
    ],
    ids=["unlabeled", "all-id"],
)
def test_eval_task_level_errors_name_the_data_file(workdir, capsys, data, message):
    labeled = _csv(workdir, "labeled.csv", data)
    scores = _csv(workdir, "scores.csv", "__id,score\na,1.0\nb,2.0\n")
    code = run("eval", "--schema", workdir / "schema.json", "--data", labeled,
               "--scores", scores, "--out", workdir / "r.json")
    assert code == 2
    assert capsys.readouterr().err == f"error: {labeled}: {message}\n"
    assert not (workdir / "r.json").exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        ("z,1.0\nb,1.0\nc\n", "row 4 has 1 cells, expected 2"),
        ("a,abc\nz,1.0\nc,1.0\n", "row 3 id 'z' does not match dataset id 'b'"),
        ("a,nan\nb,abc\nc,1.0\n", "row 3: non-numeric score 'abc'"),
        ("z,1.0\nb,1.0\n", "2 scores for 3 data rows"),
        ("z,1.0\ny,1.0\nc,1.0\n", "row 2 id 'z' does not match dataset id 'a'"),
        ("a,abc\nb,def\nc,1.0\n", "row 2: non-numeric score 'abc'"),
        ("a,1.0\nb,nan\nc,nan\n", "row 3: NaN score"),
    ],
    ids=["width-before-ids", "ids-before-values", "values-before-nan", "count-before-ids",
         "earlier-ids-first", "earlier-values-first", "earlier-nan-first"],
)
def test_eval_of_two_score_faults_the_first_in_column_order_is_reported(
    workdir, capsys, rows, message
):
    labeled = _csv(workdir, "labeled.csv", BOTH + "c,red,true,1\n")
    scores = _csv(workdir, "scores.csv", "__id,score\n" + rows)
    code = run("eval", "--schema", workdir / "schema.json", "--data", labeled,
               "--scores", scores, "--out", workdir / "r.json")
    assert code == 2
    assert capsys.readouterr().err == f"error: {scores}: {message}\n"


HEAD = "__id,score\n"


@pytest.mark.parametrize(
    "labeled, text, message",
    [
        (BOTH, HEAD + "a,1.0\nb,high\n", ": row 3: non-numeric score 'high'"),
        (BOTH, HEAD + "a,1.0\nb\n", ": row 3 has 1 cells, expected 2"),
        (BOTH, HEAD + "a,nan\nb,1.0\n", ": row 2: NaN score"),
        (BOTH, HEAD + "z,1.0\nb,2.0\n", ": row 2 id 'z' does not match dataset id 'a'"),
        (BOTH, HEAD + "a,1.0\nb," + "9" * 200_000 + "\n", ":3: field larger than field limit (131072)"),
        (BOTH + "c,red,true,1\n", HEAD + "z,1.0\nb,1.0\nc\n", ": row 4 has 1 cells, expected 2"),
        (BOTH + "c,red,true,1\n", HEAD + "a,abc\nz,1.0\nc,1.0\n",
         ": row 3 id 'z' does not match dataset id 'b'"),
        (BOTH + "c,red,true,1\n", HEAD + "a,nan\nb,abc\nc,1.0\n", ": row 3: non-numeric score 'abc'"),
        (BOTH + "c,red,true,1\n", HEAD + "z,1.0\nb,1.0\n", ": 2 scores for 3 data rows"),
        (BOTH + "c,red,true,1\n", HEAD + "z,1.0\ny,1.0\nc,1.0\n",
         ": row 2 id 'z' does not match dataset id 'a'"),
        (BOTH + "c,red,true,1\n", HEAD + "a,abc\nb,def\nc,1.0\n", ": row 2: non-numeric score 'abc'"),
        (BOTH + "c,red,true,1\n", HEAD + "a,1.0\nb,nan\nc,nan\n", ": row 3: NaN score"),
        (BOTH + "c,red,true,1\n", HEAD + "a,1_5\nb,abc\nc,1.0\n", ": row 2: non-numeric score '1_5'"),
        (BOTH, "__id,sc\na,1.0\nb\n", ": row 3 has 1 cells, expected 2"),
        (BOTH, "__id,sc\na,1.0\nb,2.0\n", ": expected header __id,score"),
        (BOTH, "", ": expected header __id,score"),
    ],
    ids=["non-numeric-score", "short-row", "nan-score", "id-mismatch", "oversized-field",
         "width-before-ids", "ids-before-values", "values-before-nan", "count-before-ids",
         "earlier-ids-first", "earlier-values-first", "earlier-nan-first", "bent-score",
         "width-before-header", "header", "empty"],
)
@SMALL_BLOCKS
def test_eval_score_faults_are_the_same_in_small_blocks(workdir, capsys, block, labeled, text,
                                                        message):
    labeled = _csv(workdir, "labeled.csv", labeled)
    scores = _csv(workdir, "scores.csv", text)
    with block_rows(block, 2):
        code = run("eval", "--schema", workdir / "schema.json", "--data", labeled,
                   "--scores", scores, "--out", workdir / "r.json")
    assert code == 2
    assert capsys.readouterr().err == f"error: {scores}{message}\n"
    assert not (workdir / "r.json").exists()
