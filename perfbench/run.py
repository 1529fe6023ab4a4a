"""Benchmark of the dirichlet_curve library: end-to-end and per-layer figures.

    python3 perfbench/run.py --workload cli-suite --seed 1 --seconds 20 --trace 0

A run first imports the library SETUP_SAMPLES times, each in a fresh
interpreter, for set-up time. It then starts one worker (worker.py) that
repeats the workload's pass (workloads.py) for --seconds. All passes use the
same seed, so they must write identical bytes. With --trace 1 untraced and
traced passes alternate and the figures are per layer (layers.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `attempted` counts calls into the library
(one per CLI experiment or sampler call) and `failed` those that raised,
exited with a usage error or printed a summary that contradicts their exit
code. The full record, with the environment, the cell sizes, every pass and
the output digests, goes to .perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 5
# each child is killed after this long; a run must end within 180 s
CHILD_TIMEOUT_S = 160.0

sys.path.insert(0, str(HERE))
from spec import CHANCE_FAILURES, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import dirichlet_curve, dirichlet_curve.cli; t = time.monotonic_ns(); "
    "print(t, dirichlet_curve.__file__)"
)


def setup_seconds() -> float:
    """Seconds from spawning an interpreter to dirichlet_curve and its CLI imported."""
    spawned = time.monotonic_ns()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-2000:]}")
    imported, path = proc.stdout.split(maxsplit=1)
    if SRC not in Path(path.strip()).resolve().parents:
        raise RuntimeError(f"dirichlet_curve imported from {path.strip()}, not {SRC}")
    return (int(imported) - spawned) / 1e9


def run_worker(workload: str, seed: int, trace: int, seconds: float, workdir: Path, spans_out: Path) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--seconds", str(seconds), "--workdir", str(workdir)]
    if trace:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_failures(p: dict) -> int:
    return sum(1 for _, ok in p["checks"] if not ok)


def summarize(workload: str, seed: int, trace: int, setup: list, run: dict) -> tuple[dict, dict]:
    """The printed result and the full record."""
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = passes[0]["digests"]
    same_bytes = all(p["digests"] == first for p in passes)
    draws = {p["draws"] for p in passes}
    correct = (
        all(p["ops_failed"] == 0 for p in passes)
        and all(pass_failures(p) <= CHANCE_FAILURES[workload] for p in passes)
        and same_bytes
        and len(draws) == 1
        and min(draws) > 0
    )
    checks = sum(len(p["checks"]) for p in passes)
    checks_failed = sum(pass_failures(p) for p in passes)
    wall = statistics.median(p["wall_s"] for p in plain)

    if trace:
        # means over the traced passes, so the per-module self times still add
        # up to trace.wall_s
        figures = {name: statistics.fmean(p["layers"][name] for p in traced)
                   for name, _, _ in PER_LAYER if name in traced[0]["layers"]}
        figures.update(run["probe"])
        figures["floor.philox_uniform_ns"] = run["floor_ns"]
        figures["trace.overhead_frac"] = statistics.median(p["wall_s"] for p in traced) / wall - 1.0
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "draws_per_s": statistics.median(p["draws"] / p["wall_s"] for p in plain),
            "peak_rss_mb": run["peak_rss_mb"],
            "checks_passed_frac": 1.0 - checks_failed / checks,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    result = {
        "correct": correct,
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["ops_failed"] for p in passes),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "why": WORKLOADS[workload],
        "seed": seed,
        "trace": trace,
        "env": run["env"],
        "cells": run["cells"],
        "setup_s": setup,
        "floor_ns": run["floor_ns"],
        "passes": [{k: p[k] for k in ("traced", "wall_s", "draws", "cell_s")} for p in passes],
        "checks_per_pass": len(passes[0]["checks"]),
        "checks_failed": checks_failed,
        "checks_failed_frac": checks_failed / checks,
        "failed_checks": sorted({name for p in passes for name, ok in p["checks"] if not ok}),
        "exit_codes": run["exit_codes"],
        "errors": sorted({e for p in passes for e in p["errors"]}),
        "same_bytes_across_passes": same_bytes,
        "digests": first,
        "digests_vs_reference": compare_reference(workload, seed, first),
        "patched_sites": traced[0]["sites"] if traced else None,
        "result": result,
    }
    return result, record


def compare_reference(workload: str, seed: int, digests: dict) -> dict | None:
    """Which outputs changed against the digests committed with the benchmark.

    Informational only: a change that alters RNG stream use changes them on
    purpose."""
    ref = json.loads((HERE / "reference_digests.json").read_text())[workload]
    if ref["seed"] != seed:
        return None
    changed = sorted(k for k in ref["digests"] if digests.get(k) != ref["digests"][k])
    return {"seed": seed, "reference_commit": ref["commit"], "changed": changed,
            "unchanged": len(ref["digests"]) - len(changed)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "dirichlet_curve" / "__init__.py").is_file():
        print(f"no library source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup = [] if args.trace else [setup_seconds() for _ in range(SETUP_SAMPLES)]
        run = run_worker(args.workload, args.seed, args.trace, args.seconds, work, results / f"{tag}-spans.json")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result, record = summarize(args.workload, args.seed, args.trace, setup, run)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"# seed {args.seed}; env " + json.dumps(record["env"]))
    print("# cells " + json.dumps(record["cells"]))
    print(f"# checks: {record['checks_per_pass']} per pass, {len(run['passes'])} passes, "
          f"{record['checks_failed']} failed {record['failed_checks']}; "
          f"same bytes across passes: {record['same_bytes_across_passes']}; "
          f"vs reference digests: {record['digests_vs_reference']}")
    print(f"# record {results / (tag + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
