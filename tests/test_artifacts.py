import ast
from pathlib import Path

import numpy as np
import pytest

import logicood
from logicood.artifacts import atomic_open, read_json, write_json
from logicood.schema import Dataset, load_dataset, save_dataset, schema_from_dict

PACKAGE = Path(logicood.__file__).parent


def _leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(".tmp_"))


def test_atomic_open_failure_keeps_target(tmp_path):
    target = tmp_path / "out.json"
    target.write_bytes(b"old contents\n")
    with pytest.raises(RuntimeError):
        with atomic_open(target) as fh:
            fh.write("half of the new con")
            raise RuntimeError("interrupted")
    assert target.read_bytes() == b"old contents\n"
    assert _leftovers(tmp_path) == []


def test_atomic_open_replaces_target(tmp_path):
    target = tmp_path / "out.json"
    target.write_bytes(b"old contents\n")
    write_json(target, {"a": [1, 2]})
    assert target.read_bytes() == b'{\n  "a": [\n    1,\n    2\n  ]\n}\n'
    assert read_json(target) == {"a": [1, 2]}
    assert _leftovers(tmp_path) == []


def test_written_file_mode_matches_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8") as fh:
        fh.write("x\n")
    write_json(tmp_path / "atomic.json", [1])
    assert (tmp_path / "atomic.json").stat().st_mode == plain.stat().st_mode


def test_save_dataset_failure_keeps_target(tmp_path):
    schema = schema_from_dict({"p": "binary"})
    good = Dataset(schema, np.array([[0], [1]]), ("a", "b"), np.array([0.5, 1.5]))
    target = tmp_path / "data.csv"
    save_dataset(good, target)
    before = target.read_bytes()
    # The second row's detector score cannot be written as a float, so the
    # write fails after the header and the first row.
    bad = Dataset(
        schema, np.array([[1], [0]]), ("c", "d"), np.array([2.5, "x"], dtype=object)
    )
    with pytest.raises(ValueError):
        save_dataset(bad, target)
    assert target.read_bytes() == before
    assert load_dataset(target, schema).sample_ids == ("a", "b")
    assert _leftovers(tmp_path) == []


def _write_paths(tree):
    """(line, what) for every tempfile use, os.replace call and open or
    os.fdopen call whose mode is not a read-only constant."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            names = [a.name for a in node.names]
            if "tempfile" in names or getattr(node, "module", None) == "tempfile":
                found.append((node.lineno, "tempfile"))
        elif isinstance(node, ast.Attribute) and node.attr == "replace" and (
            isinstance(node.value, ast.Name) and node.value.id == "os"
        ):
            found.append((node.lineno, "os.replace"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in ("open", "fdopen"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None
            )
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+")):
                found.append((node.lineno, "write-mode open"))
    return sorted(found)


def test_only_artifacts_module_writes_files():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "artifacts.py":
            continue
        found = _write_paths(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            offenders[path.name] = found
    assert offenders == {}
    assert _write_paths(ast.parse((PACKAGE / "artifacts.py").read_text(encoding="utf-8")))


def test_write_path_scan_flags_each_form():
    source = (
        "import tempfile\n"
        "from tempfile import mkstemp\n"
        "import os\n"
        "os.replace('a', 'b')\n"
        "open('a', 'w')\n"
        "open('a', mode='ab')\n"
        "os.fdopen(3, 'r+')\n"
        "open('a')\n"
        "open('a', encoding='utf-8')\n"
        "open('a', 'rb')\n"
    )
    assert [line for line, _ in _write_paths(ast.parse(source))] == [1, 2, 4, 5, 6, 7]
