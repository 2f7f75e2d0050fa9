"""Self-tests of the benchmark: the layer shim, the oracle, hygiene, the report.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_program()

import report  # noqa: E402
from shim import LayerShim, SpanRecorder, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def small(name: str, iterations: int):
    wl = copy.copy(WORKLOADS[name])
    wl.iterations = iterations
    return wl


@pytest.fixture(scope="module")
def chaos_wl():
    wl = small("volunteer_chaos", 300)
    return wl, wl.reference(wl.inputs(3))


def test_shim_restores_every_wrapped_attribute(chaos_wl):
    from repro.simkernel.sim import Simulator
    from repro.transport import tcp, wire

    originals = (Simulator.step, wire.encode_message, tcp.encode_message)
    wl, reference = chaos_wl
    recorder = SpanRecorder()
    with LayerShim(recorder) as shim:
        assert Simulator.step is not originals[0]
        assert tcp.encode_message is not originals[2]
        run.run_rep(wl, 3, 0, reference)
    assert len(shim.patched) > 100
    assert shim.restored()
    assert (Simulator.step, wire.encode_message, tcp.encode_message) == originals
    # An untraced repetition after removal records nothing.
    spans = len(recorder)
    assert spans > 0
    run.run_rep(wl, 3, 0, reference)
    assert len(recorder) == spans


@pytest.mark.parametrize("name,iterations", [("volunteer_chaos", 300), ("tcp_loopback", 300)])
def test_layer_self_times_add_up_to_traced_run(name, iterations):
    wl = small(name, iterations)
    reference = wl.reference(wl.inputs(3))
    recorder = SpanRecorder()
    rep = run.run_rep(wl, 3, 0, reference, recorder=recorder, keep=True)
    assert rep.errors == 0 and not rep.leaks
    attr = recorder.attribute(rep.before["root_span"])
    layers = layer_totals(attr["self_s"])
    assert sum(layers.values()) == pytest.approx(attr["total_s"], rel=0.01)
    assert layers["simkernel"] > 0 and layers["service"] > 0 and layers["core"] > 0
    if name == "tcp_loopback":
        assert layers["transport"] > 0 and recorder.measured["encode_message"] > 0


def test_traced_repetition_reproduces_untraced_results(chaos_wl):
    wl, reference = chaos_wl
    plain = run.run_rep(wl, 3, 1, reference)
    traced = run.run_rep(wl, 3, 1, reference, recorder=SpanRecorder())
    assert traced.digests == plain.digests == reference
    assert traced.makespan == plain.makespan


def test_oracle_counts_wrong_and_missing_digests(chaos_wl):
    wl, reference = chaos_wl
    bad = ["0" * 64] + reference[1:] + ["extra"]
    rep = run.run_rep(wl, 3, 0, bad)
    assert rep.errors == 2


def test_unclosed_tcp_grid_is_a_failed_repetition():
    wl = small("tcp_loopback", 50)
    reference = wl.reference(wl.inputs(3))
    wl.close = lambda grid: None
    rep = run.run_rep(wl, 3, 0, reference, keep=True)
    try:
        assert rep.leaks and rep.errors == wl.iterations
    finally:
        rep.grid.transport.close()


def test_report_exits_nonzero_when_error_rate_is_positive(monkeypatch, capsys):
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
    monkeypatch.setattr(report, "run_workload", lambda *a: dict(result))
    assert report.main(["--workload", "galaxy_render"]) == 0
    out = capsys.readouterr().out
    assert "setup_s" in out and "error_rate" in out
    monkeypatch.setattr(report, "run_workload", lambda *a: dict(result, failed=1))
    assert report.main(["--workload", "galaxy_render"]) == 1


def test_benchmark_refuses_to_run_without_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "galaxy_render",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_reports_exactly_the_declared_metrics(monkeypatch, trace, section):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    monkeypatch.setitem(WORKLOADS, "tcp_loopback", small("tcp_loopback", 100))
    result = run.measure("tcp_loopback", 3, 0.1, bool(trace))
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_calibrator_times_the_kernel_and_stops_its_child():
    from calibrate import REFERENCE_S, Calibrator

    with Calibrator() as cal:
        times = [cal.measure() for _ in range(3)]
        proc = cal.proc
    assert proc.returncode == 0
    assert all(REFERENCE_S / 10 < t < REFERENCE_S * 10 for t in times)
