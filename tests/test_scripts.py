"""The example scripts run end to end on a small benchmark: each drives
greedy_search or fit_weights through the public API, and nothing else
runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import logicood

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["run_synth_pipeline.py", "compare_normalizations.py"])
def test_script_runs(tmp_path, script):
    # In tmp_path, so run_synth_pipeline's default output directory is too.
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--n", "300"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(logicood.__file__).parent.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
