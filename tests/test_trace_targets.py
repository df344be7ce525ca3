"""Every span the benchmark's tracer installs still names a library attribute, and is called.

``bench/tracing.py`` wraps module globals by name and reports a missing one
as absent instead of failing, so a renamed or deleted function would
silently drop its span from the per-layer metrics.  A target that still
resolves but that the simulator no longer calls through it reports 0 s
just as silently, so one traced reference mission must call every span,
and each per-tick span once per tick: a small-fleet path that skipped one
on some ticks would report part of its time.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from flocksim import harness

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
PER_TICK = (
    "guidance.advance_virtual_target", "guidance.reference_angles", "coordination.time_index",
    "coordination.consensus_rate", "coordination.speed_command", "guidance.look_ahead_angles",
    "guidance.guidance_commands", "guidance.convergence_conditions", "dynamics.step_autopilot",
    "dynamics.step_kinematics", "network.build_topology", "network.deliver",
)


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, module_name, attr_path", _tracing().TARGETS, ids=str)
def test_trace_target_resolves(name, module_name, attr_path):
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{name}: {module_name}.{attr_path} is not callable"


def test_reference_mission_calls_every_span(scenario_dir, tmp_path):
    # reference_4uav replans once, so the replanner's spans are called too
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        log, metrics = harness.run(harness.load_scenario(f"{scenario_dir}/reference_4uav.yaml"))
        harness.export(log, metrics, tmp_path)
    assert tracer.absent == []
    assert metrics.n_replan_events == 1
    calls = {name: row["calls"] for name, row in tracing.summarize(tracer.spans).items()}
    assert sorted(calls) == sorted(tracing.SPAN_NAMES)
    assert [name for name, n in calls.items() if n == 0] == []
    assert {name: calls[name] for name in PER_TICK} == dict.fromkeys(PER_TICK, log.n_ticks)
