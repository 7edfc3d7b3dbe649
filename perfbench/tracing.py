"""Span tracing installed from outside the package.

A Tracer wraps the public entry points of each logicood layer and rebinds
every module-level name that refers to them, so calls made between
modules (``search`` calling ``fit_weights``, ``fusion`` calling
``survival``) are seen too. ``CompiledConstraint.evaluate_batch`` and
``evaluate`` are patched on the class. Spans stay in memory until the
caller dumps or summarizes them.

Only the traced half of a ``--trace 1`` run installs a Tracer; the
measured runs call ``assert_untraced`` to prove no wrapper is bound.

numpy is imported inside the size functions that need it, so importing
this module does not load numpy ahead of the harness's timed import.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref

_MARK = "__perfbench_traced__"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(pos, name):
    return lambda tracer, args, kwargs, out: len(_arg(args, kwargs, pos, name))


def _out_len(tracer, args, kwargs, out):
    return len(out)


def _survival_rows(tracer, args, kwargs, out):
    import numpy as np

    return int(np.size(_arg(args, kwargs, 1, "s")))


def _worlds(tracer, args, kwargs, out):
    tracer.last_worlds = weakref.ref(out)
    return out.shape[0]


def _cells(tracer, args, kwargs, out):
    worlds = tracer.last_worlds() if tracer.last_worlds is not None else None
    if worlds is not None and _arg(args, kwargs, 1, "rows") is worlds:
        # Satisfaction rows over enumerated worlds: how many are distinct.
        tracer.add("mln.pattern_worlds", out.shape[0])
        tracer.add("mln.distinct_patterns", _distinct_rows(out))
    return int(out.size)


def _distinct_rows(phi) -> int:
    """Number of distinct 0/1 rows, each packed into bytes."""
    import numpy as np

    if phi.shape[1] == 0:
        return min(phi.shape[0], 1)
    bits = np.packbits(phi.astype(bool), axis=1)
    codes = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
    return int(np.unique(codes).size)


def _epochs(tracer, args, kwargs, out):
    return int(out.epochs_used)


def _audit(tracer, args, kwargs, out):
    tracer.add("search.audited", len(out.audit))
    tracer.add("search.accepted", sum(e.accepted for e in out.audit))
    tracer.add("search.errors", sum(e.error is not None for e in out.audit))
    return len(out.audit)


# (module, function, size) for functions; the span name is "module.function".
FUNCTIONS = (
    ("schema", "load_dataset", _out_len),
    ("constraints", "load_constraints", _out_len),
    ("mln", "mln_score_batch", _rows(1, "rows")),
    ("mln", "explain", None),
    ("mln", "enumerate_space", _worlds),
    ("mln", "satisfaction_matrix", _cells),
    ("mln", "log_partition", None),
    ("mln", "fit_weights", _epochs),
    ("distributions", "fit_distribution", None),
    ("distributions", "survival", _survival_rows),
    ("fusion", "fuse_batch", None),
    ("metrics", "auroc", None),
    ("metrics", "evaluate_scores", None),
    ("search", "generate_candidates", _out_len),
    ("search", "greedy_search", _audit),
    ("synth", "make_benchmark", _out_len),
)

# (module, class, method, size) patched on the class itself.
METHODS = (
    ("constraints", "CompiledConstraint", "evaluate_batch", _rows(1, "rows")),
    ("constraints", "CompiledConstraint", "evaluate", None),
)


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "logicood" or name.startswith("logicood."))
    ]


def _traced_bindings():
    """Every (owner, attribute) in the package that holds a wrapper."""
    found = []
    for module in _package_modules():
        for key, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{key}")
    for mod, cls, meth, _ in METHODS:
        owner = getattr(importlib.import_module(f"logicood.{mod}"), cls)
        if getattr(vars(owner)[meth], _MARK, False):
            found.append(f"logicood.{mod}.{cls}.{meth}")
    return found


def assert_untraced() -> None:
    """Raise if any package function is currently a tracing wrapper."""
    found = _traced_bindings()
    if found:
        raise RuntimeError(f"tracing wrappers bound in an untraced run: {found}")


class Tracer:
    """Records spans [name, start, end, parent, pass_id, n, overhead] and
    counters. ``overhead`` is the time the tracer's own size functions took
    inside the span; summarize() removes it from durations."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple, int] = {}
        self.pass_id = None
        self.last_worlds = None
        self.overhead = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def add(self, key: str, value: int) -> None:
        k = (self.pass_id, key)
        self.counters[k] = self.counters.get(k, 0) + int(value)

    def span(self, name: str, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.overhead
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.pass_id, 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[6] = self.overhead - before
                stack.pop()
            if size is not None:
                rec[5] = size(self, args, kwargs, out)
                self.overhead += clock() - rec[2]
            return out

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        for mod, name, size in FUNCTIONS:
            original = getattr(importlib.import_module(f"logicood.{mod}"), name)
            wrapper = self.span(f"{mod}.{name}", original, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for mod, cls, meth, size in METHODS:
            owner = getattr(importlib.import_module(f"logicood.{mod}"), cls)
            original = vars(owner)[meth]
            self._restore.append((owner, meth, original))
            setattr(owner, meth, self.span(f"{mod}.{meth}", original, size))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def root(self, name: str, fn, *args, **kwargs):
        """Run fn under a top-level span of the given name."""
        return self.span(name, fn)(*args, **kwargs)

    def dump(self, path, extra=None) -> None:
        payload = {
            "spans": self.spans,
            "counters": [[p, k, v] for (p, k), v in self.counters.items()],
            "extra": extra or {},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def summarize(spans, counters):
    """Per-pass totals: {pass_id: {name: [calls, seconds, self_seconds, n]}}
    and {pass_id: {counter: value}}."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _, overhead in spans:
        if parent >= 0:
            covered[parent] += end - start - overhead
    totals: dict = {}
    for i, (name, start, end, parent, pass_id, n, overhead) in enumerate(spans):
        row = totals.setdefault(pass_id, {}).setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += end - start - overhead
        row[2] += end - start - overhead - covered[i]
        row[3] += n
    counts: dict = {}
    for pass_id, key, value in counters:
        counts.setdefault(pass_id, {})[key] = counts.get(pass_id, {}).get(key, 0) + value
    return totals, counts
