"""The benchmark's span tracer still binds to the package: every function
and method it names exists and is wrapped once a Tracer is installed, and
uninstalling leaves no wrapper bound. A package change that renames or
drops a traced name fails here, not silently in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import logicood.cli  # noqa: F401  (loads every package module, as a CLI stage does)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_every_name_it_lists():
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for mod, name, _ in tracing.FUNCTIONS:
            module = importlib.import_module(f"logicood.{mod}")
            assert getattr(getattr(module, name), tracing._MARK, False), f"{mod}.{name}"
        for mod, cls, meth, _ in tracing.METHODS:
            owner = getattr(importlib.import_module(f"logicood.{mod}"), cls)
            assert getattr(vars(owner)[meth], tracing._MARK, False), f"{mod}.{cls}.{meth}"
    finally:
        tracer.uninstall()
        tracing.assert_untraced()
