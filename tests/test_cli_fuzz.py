"""CLI fuzz oracle: every byte sequence in an input file gives a documented
exit. Small valid artifacts are mutated with a few byte edits (raw bytes,
ASCII bytes and tokens such as nan, 1e400, \\r, NUL and ->), and a
subcommand that reads the mutated input runs in-process. No exception may
escape, the exit code is 0, 2 or 3, and an exit 2 names an input file."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicood.cli import main

SCHEMA = (
    '{"c0": "binary", "c1": "binary", "c2": "binary", "c3": "binary",\n'
    ' "color": ["red", "green", "blue"]}\n'
)
KB = "c0 -> c1\ncolor=red xor c2\nnot c3\n"
WEIGHTS = (
    '[\n  {"constraint": "c0 -> c1", "weight": 1.5},\n'
    '  {"constraint": "color=red xor c2", "weight": 0.5},\n'
    '  {"constraint": "not c3", "weight": -0.25}\n]\n'
)

# The inputs each subcommand reads; all but compile write --out too.
COMMANDS = {
    "compile": ("schema", "constraints"),
    "fit": ("schema", "constraints", "train"),
    "score": ("schema", "constraints", "weights", "data"),
    "fuse": ("schema", "constraints", "weights", "train", "data"),
    "eval": ("schema", "data", "scores"),
}
FLAG_INPUT = {"train": "data"}  # --train reads the data file too
CASES = [
    (command, FLAG_INPUT.get(flag, flag)) for command, flags in COMMANDS.items() for flag in flags
]

TOKENS = [b"nan", b"1e400", b"-inf", b"\r", b"\n", b"\x00", b"->", b",", b'"', b"=", b"not "]
PAYLOAD = st.one_of(
    st.binary(min_size=1, max_size=4),
    st.text(st.characters(max_codepoint=127), min_size=1, max_size=4).map(str.encode),
    st.sampled_from(TOKENS),
)
# (position, modulo the length plus one; bytes cut there; bytes put there)
EDIT = st.tuples(st.integers(0, 1 << 20), st.integers(0, 6), PAYLOAD)


@pytest.fixture(scope="module")
def inputs():
    """Each input's valid bytes; the data carry 24 ID and 16 OOD rows."""
    r = np.random.default_rng(0)
    binary, colors = ("false", "true"), ("red", "green", "blue")
    rows = ["__id,c0,c1,c2,c3,color,__detector_score,__is_ood\n"]
    for i in range(40):
        concepts = [binary[v] for v in r.integers(0, 2, 4)] + [colors[r.integers(0, 3)]]
        rows.append(f"s{i},{','.join(concepts)},{r.normal():.6f},{int(i >= 24)}\n")
    scores = "__id,score\n" + "".join(f"s{i},{r.normal():.6f}\n" for i in range(40))
    texts = {"schema": SCHEMA, "constraints": KB, "weights": WEIGHTS, "scores": scores}
    texts["data"] = "".join(rows)
    return {name: text.encode() for name, text in texts.items()}


def _mutate(raw: bytes, edits) -> bytes:
    for position, cut, payload in edits:
        at = position % (len(raw) + 1)
        raw = raw[:at] + payload + raw[at + cut:]
    return raw


@given(case=st.sampled_from(CASES), edits=st.lists(EDIT, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_a_mutated_input_gives_a_documented_exit(inputs, case, edits):
    command, mutated = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        paths = {name: Path(directory, f"{name}.in") for name in inputs}
        for name, raw in inputs.items():
            paths[name].write_bytes(_mutate(raw, edits) if name == mutated else raw)
        argv = [command] + ([] if command == "compile" else ["--out", str(Path(directory, "out"))])
        for flag in COMMANDS[command]:
            argv += [f"--{flag}", str(paths[FLAG_INPUT.get(flag, flag)])]
        with contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 2:
        assert any(str(path) in err.getvalue() for path in paths.values()), err.getvalue()
