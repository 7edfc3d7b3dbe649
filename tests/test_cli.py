import json
import math

import pytest

from logicood.cli import main

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
    ],
    ids=["malformed-json", "non-object-entry", "missing-weight", "non-numeric-weight"],
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
    ],
    ids=["non-numeric-score", "short-row"],
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
