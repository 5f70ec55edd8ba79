"""Tests of the benchmark's own code: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import CAL_REF_S, Clock, run_passes  # noqa: E402
from run import END_TO_END, expected_digests, failures_against, keep_digest  # noqa: E402
from tracing import Absent, Api, Tracer, layer_metrics, per_layer_names, self_times  # noqa: E402
from workloads import (WORKLOADS, CliOneshot, ExpandH, MonomialDual,  # noqa: E402
                       VerifySweep, h_term_count, hook_probes)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_seeded_inputs_repeat_exactly():
    api = Api()
    expand = ExpandH(api)
    assert expand.ops(7, rows=(6, 7)) == expand.ops(7, rows=(6, 7))
    assert expand.ops(7, rows=(6, 7)) != expand.ops(8, rows=(6, 7))
    for workload in (MonomialDual(api), VerifySweep(api), CliOneshot(api)):
        assert workload.ops(7) == workload.ops(7)
        assert workload.ops(7) != workload.ops(8)
    assert [key for key, _ in hook_probes(7)] == [key for key, _ in hook_probes(7)]


def test_metric_names_are_well_formed_and_match_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    layer = [name for name, _ in per_layer_names()]
    e2e = [name for name, _ in END_TO_END]
    for name in layer + e2e + list(WORKLOADS):
        assert pattern.fullmatch(name), name
    assert len(set(layer + e2e)) == len(layer + e2e)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == e2e
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == per_layer_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_expected_outputs_hold_on_a_small_expand_list():
    api = Api()
    workload = ExpandH(api)
    off = Tracer(api, enabled=False)
    ops = workload.ops(3, rows=(6, 6, 6))
    passes = run_passes(ops, lambda op: workload.run(op, off), 0, Clock(),
                        keep_digest(workload))
    assert failures_against(passes, expected_digests(workload, ops, off)) == []
    for op in ops:
        got = workload.run(op, off)[0]
        assert h_term_count(op["mu"], op["nu"]) == len(got)


def test_injected_wrong_output_and_raise_are_counted():
    api = Api()
    workload = MonomialDual(api)
    off = Tracer(api, enabled=False)
    ops = workload.ops(5, sizes=(3, 4, 4))
    basis_expr = api.fn("expr.BasisExpr")

    def broken(op):
        out = workload.run(op, off)
        if op["key"] == 1:
            return out + basis_expr.term("dI", (9,))
        if op["key"] == 2:
            raise RuntimeError("injected")
        return out

    passes = run_passes(ops, broken, 0, Clock(), keep_digest(workload))
    failures = failures_against(passes, expected_digests(workload, ops, off))
    assert len(failures) / (len(ops) * len(passes)) == pytest.approx(2 / 3)
    assert any("differs" in f for f in failures)
    assert any("injected" in f for f in failures)


def test_absent_public_name_is_reported_not_fatal():
    api = Api()
    assert api.get("coverings.no_such_function") is None
    assert api.get("no_such_module.anything") is None
    assert api.get("expr.BasisExpr.no_such_method") is None
    assert api.get("expansions.skew_immaculate_to_H") is not None
    assert len(api.absent) == 3
    tracer = Tracer(api)
    with pytest.raises(Absent):
        tracer.call("coverings.no_such_function")
    values, missing = layer_metrics(tracer, 1.0, 1.0)
    assert "coverings.enumerate_coverings_us_per_covering" in missing
    assert set(values) == {name for name, _ in per_layer_names()}
    assert values["trace.absent_names"] == 3
    assert values["coverings.enumerate_coverings_us_per_covering"] == 0.0


class WithoutRunSuite(Api):
    """The package as it would be after a change that removed run_suite."""

    def _resolve(self, path):
        return None if path == "verify.run_suite" else super()._resolve(path)


def test_absent_name_inside_an_op_is_a_failure_not_a_crash():
    api = WithoutRunSuite()
    workload = VerifySweep(api)
    off = Tracer(api, enabled=False)
    ops = workload.ops(1)[:1]
    passes = run_passes(ops, lambda op: workload.run(op, off), 0, Clock(),
                        keep_digest(workload))
    failures = failures_against(passes, expected_digests(workload, ops, off))
    assert len(failures) == 1 and "Absent" in failures[0]


def test_self_time_subtracts_children():
    ops = [{"key": "0", "source": "ops", "scale": 2.0}]
    spans = [
        {"name": "bench.op", "start": 0.0, "end": 10.0, "parent": None, "op": 0},
        {"name": "expr.to_text", "start": 2.0, "end": 5.0, "parent": 0, "op": 0},
        {"name": "expr.to_json", "start": 5.0, "end": 6.0, "parent": 0, "op": 0},
    ]
    assert self_times(spans, ops) == [12.0, 6.0, 2.0]


def test_clock_scale_uses_the_calibration_window():
    clock = Clock()
    clock.samples = [(0.0, 0.004), (1.0, 0.002), (1.5, 0.002), (9.0, 0.010)]
    # An op from 1.0 to 1.5 reaches back and forward 0.5 s: samples at 1.0 and 1.5.
    assert clock.scale(1.0, 1.5) == pytest.approx(CAL_REF_S / 0.002)


def test_exits_without_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "expand_h",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
