"""BENCHMARK.json matches spec.py, and a traced pass prints every per-layer figure."""

import json
import re
from pathlib import Path

import spec
import layers
from spans import Tracer

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_layer_figures_cover_the_per_layer_list():
    tracer = Tracer()
    root = tracer.begin("bench")
    tracer.end(root)
    figures = set(layers.layer_metrics(tracer.spans, floor_ns=1.0))
    added_by_run = {"trace.overhead_frac"} | {f"measures.draw_measure.ns_per_draw.{f}" for f in spec.FAMILIES.values()}
    assert figures | added_by_run == {n for n, _, _ in spec.PER_LAYER}


def test_bounds_and_names_follow_the_contract():
    doc = spec.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in doc[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert len(doc["per_layer"]) <= 128 and 1 <= len(doc["end_to_end"]) <= 16
