"""Passes of one workload in one interpreter; prints their results as JSON.

run.py starts this script once per run. It repeats the workload's pass until
--seconds have passed and at least MIN_PASSES (+1 when traced) passes are
done; with --trace 1 untraced and traced passes alternate. Standalone use:

    python3 perfbench/worker.py --workload crossval --seed 1 --trace 0 \
        --seconds 5 --workdir .perfbench/tmp
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dirichlet_curve  # noqa: E402
import layers  # noqa: E402
from dirichlet_curve import cauchy, measures  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import PASSES  # noqa: E402

# no pass starts after this many seconds, so a run ends well within 180 s
DEADLINE_S = 140.0
# passes a run makes at the least; a traced run makes one more, so that two
# of its alternating passes are traced
MIN_PASSES = 3


def philox_uniform_ns(reps: int = 5, size: int = 1 << 20) -> float:
    """Raw cost of one Generator(Philox).random draw: the floor for any sampler."""
    gen = np.random.Generator(np.random.Philox(0))
    buf = np.empty(size)
    gen.random(out=buf)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        gen.random(out=buf)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / size


def family_probe(reps: int = 3, size: int = 1 << 17) -> dict:
    """ns per draw_measure draw for each family, at one fixed size: the same
    figure on every workload, whichever families it runs."""
    cases = {
        "atoms": measures.bernoulli(0.5),
        "beta": measures.Beta(0.5, 0.5),
        "uniform": measures.Uniform01(),
        "beta_prime": measures.BetaPrime(0.5, 0.5),
        "cauchy": measures.Cauchy1D(0.0, 1.0),
        "circle": measures.UniformCircle(),
        "scaled_product": measures.ScaledProduct(measures.Uniform01(), measures.Cauchy1D(0.0, 1.0)),
        "cauchy_rd": measures.CauchyRd(cauchy.trefoil_spectrum()),
    }
    gen = np.random.Generator(np.random.Philox(0))
    out = {}
    for fam, measure in cases.items():
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            measures.draw_measure(measure, size, gen)
            times.append(time.perf_counter_ns() - t0)
        out[f"measures.draw_measure.ns_per_draw.{fam}"] = statistics.median(times) / size
    return out


def blas_info() -> dict:
    """OpenBLAS build string and thread count of the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    return {"library": os.path.basename(path), "config": config().decode(), "threads": threads()}
    return {"library": None, "config": None, "threads": None}


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def traced_pass(run_pass, seed: int, workdir: Path, floor_ns: float, spans_out) -> dict:
    tracer = Tracer()
    patcher, sites = layers.install_tracer(dirichlet_curve, tracer)
    try:
        root = tracer.begin("bench")
        res = run_pass(seed, workdir)
        tracer.end(root)
    finally:
        patcher.restore()
    spans = tracer.spans
    if sum(self_times(spans)) != spans[root].duration:
        raise RuntimeError("span self times do not add up to the pass")
    if spans_out:
        with open(spans_out, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.counts] for s in spans], fh)
    return {
        "res": res,
        "wall_ns": spans[root].duration,
        "draws": layers.total_rows(spans),
        "layers": layers.layer_metrics(spans, floor_ns),
        "sites": sites,
    }


def plain_pass(run_pass, seed: int, workdir: Path) -> dict:
    tally = [0]
    patcher = layers.install_draw_counter(dirichlet_curve, tally)
    try:
        t0 = time.perf_counter_ns()
        res = run_pass(seed, workdir)
        wall_ns = time.perf_counter_ns() - t0
    finally:
        patcher.restore()
    return {"res": res, "wall_ns": wall_ns, "draws": tally[0]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", help="write the spans of the first traced pass here as JSON")
    args = parser.parse_args()

    if SRC not in Path(dirichlet_curve.__file__).resolve().parents:
        print(f"dirichlet_curve imported from {dirichlet_curve.__file__}, not {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    run_pass = PASSES[args.workload]
    floor_ns = philox_uniform_ns()
    min_passes = MIN_PASSES + args.trace
    passes, first = [], None
    while len(passes) < min_passes or time.monotonic() - started < args.seconds:
        if passes and time.monotonic() - started > DEADLINE_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            first_traced = not any(p["traced"] for p in passes)
            out = traced_pass(run_pass, args.seed, workdir, floor_ns, args.spans_out if first_traced else None)
        else:
            out = plain_pass(run_pass, args.seed, workdir)
        res = out.pop("res")
        first = first or res
        out.update(traced=traced, wall_s=out.pop("wall_ns") / 1e9, checks=res.checks,
                   ops=res.ops, ops_failed=res.ops_failed, errors=res.errors, digests=res.digests,
                   cell_s=res.cell_s)
        passes.append(out)
    result = {
        "env": environment(),
        "floor_ns": floor_ns,
        "probe": family_probe() if args.trace else {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": first.cells,
        "exit_codes": first.exit_codes,
        "passes": passes,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
