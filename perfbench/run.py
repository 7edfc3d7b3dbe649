#!/usr/bin/env python3
"""logicood benchmark: entry point.

    python3 perfbench/run.py --workload bulk_score --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn
    python3 perfbench/run.py --smoke                     # the benchmark's own tests

Each workload runs in a fresh child process (harness.py) with BLAS and
OpenMP threads capped at one (see NOTES.md, "Time budget and steadiness"). This script prints
the run record, a digest of every pass and every metric with its unit and
sample count, and then, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
ones. It exits 1 when a correctness oracle fails, and 2 without a result
when the checkout holds no ``src/logicood`` to measure.

Uses only the standard library, so it can report a missing package
cleanly. Scratch files go to ``.perfbench_work/`` in the checkout and are
removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from harness import is_exact

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bulk_score", "greedy_search", "large_space_fit", "cli_pipeline")
CHILD_TIMEOUT = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS/OpenMP thread per process: an idle OpenBLAS worker spins on the
# second core for the whole pass, which doubles the CPU the benchmark takes
# from a shared host and makes pass times noisier.
THREAD_CAP = 1


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_record() -> dict:
    """Identify the measured code: git SHA and dirty flag when the checkout
    is a repository, and always a digest of the package sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "logicood").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest()[:16],
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload, seed, seconds, trace, size, check_oracles=False):
    """Run one workload in its own process; returns its result dict, or
    None when the child failed without producing one."""
    nproc = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size,
           "--work", str(work), "--out", str(out)]
    if check_oracles:
        cmd.append("--check-oracles")
    # The child leads its own process group, so the CLI stages it starts
    # are stopped with it.
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
        if code != 0 or not out.exists():
            print(f"perfbench: {workload} child exited {code}", file=sys.stderr)
            return None
        result = json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {CHILD_TIMEOUT} s", file=sys.stderr)
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result["record"].update(source_record(), workload=workload, seed=seed, seconds=seconds,
                            trace=trace, size=size, nproc=nproc,
                            thread_caps={var: THREAD_CAP for var in THREAD_VARS})
    return result


def report(result) -> None:
    """Human-readable lines: record, digests, metrics with sample counts."""
    rec = result["record"]
    print(f"== {rec['workload']} seed={rec['seed']} seconds={rec['seconds']} trace={rec['trace']}")
    print("record " + json.dumps(rec, sort_keys=True))
    for d in result["digests"]:
        label = "warm-up" if d["pass"] < 0 else f"pass {d['pass']}" + (" traced" if d["traced"] else "")
        print(f"digest {label} {d['seconds']:.4f}s " + json.dumps(d["digest"], sort_keys=True))
    ratio = result["failed"] / result["attempted"]
    print(f"metric failed_ratio {ratio} fraction n={result['attempted']}")
    for section in ("metrics", "summary"):
        for name, m in result[section].items():
            print(f"{'metric' if section == 'metrics' else 'detail'} {name} {m['value']} {m['unit']} n={m['samples']}")
    for msg in result["failures"]:
        print(f"FAILED {msg}")


def final_line(result, correct) -> str:
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()}
    return json.dumps({"correct": correct, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def smoke() -> int:
    """Tiny sizes: every workload in both modes emits exactly the metric
    names and units of BENCHMARK.json, every oracle rejects its
    perturbations, and traced counts repeat for a seed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        before = len(problems)
        runs = {}
        for trace, oracles in ((0, True), (1, False), (1, False)):
            result = run_child(workload, 7, 1, trace, "smoke", check_oracles=oracles)
            if result is None:
                problems.append(f"{workload} trace={trace}: no result")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(expected[trace]))} "
                                f"or units differ from BENCHMARK.json")
            if result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failures']}")
            for name, ok in result.get("oracle_checks", {}).items():
                if not ok:
                    problems.append(f"{workload}: oracle check failed: {name}")
            runs.setdefault(trace, []).append(result)
        traced = runs.get(1, [])
        if len(traced) == 2:
            for name in expected[1]:
                a, b = (r["metrics"][name]["value"] for r in traced)
                if is_exact(name) and a != b:
                    problems.append(f"{workload}: count {name} differs between traced runs ({a} vs {b})")
        print(f"smoke {workload}: {len(problems) - before} problems")
    for p in problems:
        print(f"FAILED {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "logicood" / "__init__.py").is_file():
        print(f"perfbench: no src/logicood under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_child(name, args.seed, args.seconds, args.trace, "full")
        if result is None:
            return 1
        report(result)
        results.append(result)
    correct = all(r["failed"] == 0 for r in results)
    if len(results) == 1:
        print(final_line(results[0], correct))
    else:
        combined = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
        print(final_line(combined, correct))
    return 0 if correct else 1


if __name__ == "__main__":
    # On SIGTERM, unwind normally so the child group is stopped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.perf_counter()
    code = main()
    print(f"perfbench: done in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
