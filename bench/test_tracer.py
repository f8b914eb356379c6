"""Tests of the span recorder and of the metric list it reports.

    python3 -m pytest bench/test_tracer.py
"""

from __future__ import annotations

import json
import pathlib
import time
import types

import numpy as np

import tracer

BENCH = pathlib.Path(__file__).resolve().parent


def test_out_bytes_walks_results_once_per_array():
    a = np.zeros(10)
    assert tracer.out_bytes((a, [a, {"x": np.zeros(3, dtype=np.int32)}], 7)) == 80 + 12


def test_self_time_excludes_children_and_wrappers_come_off():
    inner_mod = types.ModuleType("uqd.povm")
    outer_mod = types.ModuleType("uqd.cli")

    def build_povm(n):
        time.sleep(0.02)
        return np.zeros(n)

    def main(argv):
        time.sleep(0.01)
        return [outer_mod.build_povm(4), outer_mod.build_povm(2)]

    inner_mod.build_povm = outer_mod.build_povm = build_povm
    outer_mod.main = main
    modules = {"uqd.povm": inner_mod, "uqd.cli": outer_mod}
    targets = [t for t in tracer.TARGETS if t.span in ("povm.build_povm", "cli.main")]

    spans = tracer.Tracer()
    replaced = tracer.install(spans, modules, targets)
    start = time.perf_counter()
    outer_mod.main([])
    wall = time.perf_counter() - start
    tracer.uninstall(replaced)

    assert outer_mod.build_povm is build_povm and outer_mod.main is main
    found = spans.metrics()
    assert found["povm.build_povm.calls"] == 2 and found["cli.main.calls"] == 1
    assert found["povm.build_povm.out_bytes"] == 48
    assert 0.04 <= found["povm.build_povm.self_s"] < 0.06
    assert 0.01 <= found["cli.main.self_s"] < 0.03
    assert found["povm.build_povm.self_s"] + found["cli.main.self_s"] <= wall


def test_per_layer_metrics_match_benchmark_json():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]]
    assert declared == list(tracer.PER_LAYER)
