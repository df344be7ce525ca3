"""Tests of the benchmark itself: result format, tracing, output check, generator."""

from __future__ import annotations

import ast
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibration
import runner
import tracing
import workloads
from flocksim import harness

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REF4 = ROOT / "scenarios" / "reference_4uav.yaml"


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, key):
    proc = _bench(ROOT, "--workload", "ref4", "--seed", "3", "--seconds", "0.05", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_a_directory_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "ref4", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_and_untraced_missions_export_identical_bytes(tmp_path):
    plain = runner.run_mission(REF4, 5, tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = runner.run_mission(REF4, 5, tmp_path / "traced")
    spans, links = tracer.take()
    assert runner.deterministic_files(plain.out_dir) == runner.deterministic_files(traced.out_dir)
    assert not runner.replay_mismatch(plain.out_dir, traced.out_dir)
    assert tracer.absent == []
    summary = tracing.summarize(spans)
    assert summary["harness.run"]["calls"] == 1
    assert summary["network.build_topology"]["calls"] == traced.n_ticks
    assert summary["dynamics.wind_sample"]["calls"] == traced.n_ticks * traced.n_vehicles
    assert links > 0
    assert runner.check_outputs(traced) == []


def test_tracer_restores_originals_and_reports_absent_names(monkeypatch):
    original = harness.run
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("geo.gone", "flocksim.geo", "no_such_name"),))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert harness.run is not original
    assert harness.run is original
    assert tracer.absent == ["flocksim.geo.no_such_name"]


def test_self_time_subtracts_direct_children():
    spans = [
        ["harness.run", 0.0, 10.0, -1, 0, False],
        ["replanner.replan", 1.0, 5.0, 0, 0, True],
        ["replanner.best_detour", 2.0, 4.0, 1, 0, False],
    ]
    s = tracing.summarize(spans)
    assert s["harness.run"]["self_s"] == 6.0
    assert s["replanner.replan"]["self_s"] == 2.0
    assert s["replanner.replan"]["failures"] == 1
    assert s["replanner.best_detour"]["busy_s"] == 2.0


def test_output_check_catches_a_short_trajectory(tmp_path):
    mission = runner.run_mission(REF4, 5, tmp_path / "m")
    fp = tmp_path / "m" / "uav_01.csv"
    fp.write_text("".join(fp.read_text().splitlines(keepends=True)[:-1]))
    assert runner.check_outputs(mission) == [f"uav_01.csv: {mission.n_ticks - 1} rows, expected {mission.n_ticks}"]


def test_replay_mismatch_names_the_differing_file(tmp_path):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        (tmp_path / d / "metrics.json").write_text("{}")
        (tmp_path / d / "timing.json").write_text(d)
    assert runner.replay_mismatch(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "metrics.json").write_text("{ }")
    assert runner.replay_mismatch(tmp_path / "a", tmp_path / "b") == ["metrics.json"]


@pytest.mark.parametrize("name, n_uavs", [("fleet104", 104), ("popup16", 16)])
def test_generator_is_deterministic_and_loads(name, n_uavs, tmp_path):
    assert workloads.scenario_yaml(name, 9, 2) == workloads.scenario_yaml(name, 9, 2)
    assert workloads.scenario_yaml(name, 9, 2) != workloads.scenario_yaml(name, 10, 2)
    assert workloads.scenario_yaml(name, 9, 2) != workloads.scenario_yaml(name, 9, 3)
    scenario = harness.load_scenario(workloads.prepare(name, 9, 2, tmp_path))
    assert len(scenario.uavs) == n_uavs
    assert (scenario.obstacle is not None) == (name == "popup16")


@pytest.mark.parametrize("module", ["workloads.py", "calibration.py"])
def test_generator_and_calibration_import_nothing_from_the_simulator(module):
    tree = ast.parse((ROOT / "bench" / module).read_text())
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not any(m.split(".")[0] == "flocksim" for m in modules)


def test_calibrated_times_scale_with_the_host_factor():
    mission = runner.Mission(1, 4, 100, 0.1, 0.2, 0.1, None, Path("."))
    slow = runner.Mission(1, 4, 100, 0.2, 0.4, 0.2, None, Path("."), host_factor=2.0)
    assert slow.mission_s == pytest.approx(mission.mission_s)
    assert slow.vehicle_ticks_per_s == pytest.approx(mission.vehicle_ticks_per_s)
    assert 0.0 < calibration.host_factor() < 100.0


def test_host_clock_samples_from_its_timer_and_leaves_them_out_of_now():
    host = calibration.HostClock()
    previous = signal.getsignal(signal.SIGALRM)
    with host.ticking():
        wall0, now0 = time.perf_counter(), host.now()
        while time.perf_counter() - wall0 < 3.5 * calibration.INTERVAL_S:
            sum(range(1000))
        wall1, now1 = time.perf_counter(), host.now()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(host.samples) >= 3
    assert host.spent_s > 0.0
    assert now1 - now0 == pytest.approx(wall1 - wall0 - host.spent_s, abs=1e-4)


def test_benchmark_json_workloads_are_known():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
