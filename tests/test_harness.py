"""Scenario loading, tick-loop behavior, metrics, and export tests.

Synthetic-log metric cases are hand-evaluated: the 3-4-5 error pair gives
AE exactly 5, and the RMSE spreads the two norms about the norm of the
mean error vector with the n-1 denominator.
"""

import copy
import csv
import dataclasses
import hashlib
import inspect
import itertools
import json
import math
import re
import shutil
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import yaml
from mini_scenario import MINI_SCENARIO
from oracles import consensus_oracle, deliver_oracle, topology_oracle

from flocksim import (
    AutopilotParams,
    CoordinationGains,
    DemGrid,
    GuidanceParams,
    LOG_COLUMNS,
    Point3,
    ReplanEvent,
    ReplanParams,
    RunError,
    RunLog,
    ScenarioError,
    WindModel,
    WindParams,
    compute_metrics,
    export,
    geo,
    harness,
    load_dem,
    load_scenario,
    run,
    save_dem,
    segment_obstructed,
)
from flocksim.dynamics import UavLimits, UavState
from flocksim.geo import Obstacle
from flocksim.harness import _KEYS
from flocksim.network import CommConfig, DropoutWindow
from flocksim.presets import fleet_scenario_dict


def rec(log, tick, uav_id, north, east, height, theta=0.0):
    """Log one vehicle-tick's position and time index through the log's views."""
    log.positions(uav_id)[tick] = (north, east, height)
    log.thetas()[tick, uav_id] = theta


# The most ticks of a one-vehicle run log in 2**47 bytes of float64.
MAX_LOG_TICKS = 2**47 // (len(LOG_COLUMNS) * 8)

ACTIVE_OBSTACLE = {
    "center_north_m": -450.0,
    "center_east_m": 20.0,
    "lateral_radius_m": 60.0,
    "base_height_m": 0.0,
    "top_height_m": 250.0,
    "activation_time_s": 0.0,
}


class TestLoadScenario:
    def test_bundled_reference_loads(self, scenario_dir):
        scenario = load_scenario(f"{scenario_dir}/reference_4uav.yaml")
        assert len(scenario.uavs) == 4
        assert scenario.dt == 1.0
        assert scenario.duration == 270.0
        assert scenario.comm.c_max == 2
        assert scenario.comm.r_com == 30_000.0
        assert scenario.obstacle is not None
        assert scenario.wind.sigma_u == 2.12
        limits = scenario.uavs[0].limits
        assert (limits.v_g_min, limits.v_g_max) == (9.0, 18.0)
        assert (limits.phi_min, limits.phi_max) == (-0.6, 0.6)
        assert (limits.n_lf_min, limits.n_lf_max) == (0.0, 2.1)
        for spec in scenario.uavs:
            assert spec.waypoints[-1].tolist() == list(scenario.target)

    def test_source_hash_is_stable(self, scenario_dir):
        a = load_scenario(f"{scenario_dir}/reference_4uav.yaml")
        b = load_scenario(f"{scenario_dir}/reference_4uav.yaml")
        assert a.source_sha256 == b.source_sha256
        assert len(a.source_sha256) == 64

    def test_mini_scenario_loads(self, make_scenario_file):
        scenario = load_scenario(make_scenario_file())
        assert len(scenario.uavs) == 1
        assert scenario.obstacle is None

    def test_final_waypoint_must_equal_target(self, make_scenario_file):
        path = make_scenario_file(
            uavs=[
                {
                    "id": 0,
                    "initial": dict(MINI_INITIAL),
                    "waypoints": [[-300.0, 0.0, 110.0], [10.0, 0.0, 110.0]],
                }
            ]
        )
        with pytest.raises(ScenarioError, match="must equal the shared target"):
            load_scenario(path)

    def test_needs_two_waypoints(self, make_scenario_file):
        uav = {"id": 0, "initial": dict(MINI_INITIAL), "waypoints": [[0.0, 0.0, 110.0]]}
        path = make_scenario_file(uavs=[uav])
        with pytest.raises(ScenarioError, match=r"^scenario\.uavs\[0\]\.waypoints: .*at least 2 waypoints, got 1"):
            load_scenario(path)

    def test_rejects_coincident_consecutive(self, make_scenario_file):
        uav = {
            "id": 0,
            "initial": dict(MINI_INITIAL),
            "waypoints": [[-300.0, 0.0, 110.0], [-300.0, 0.0, 110.0], [0.0, 0.0, 110.0]],
        }
        path = make_scenario_file(uavs=[uav])
        with pytest.raises(ScenarioError, match=r"^scenario\.uavs\[0\]\.waypoints: consecutive waypoints 0 and 1 coincide"):
            load_scenario(path)

    def test_inverted_speed_limits(self, make_scenario_file):
        path = make_scenario_file(limits={"v_g_min_mps": 19.0})
        with pytest.raises(ScenarioError, match="v_g"):
            load_scenario(path)

    def test_ids_must_be_contiguous(self, make_scenario_file):
        doc_uav = {
            "id": 1,
            "initial": dict(MINI_INITIAL),
            "waypoints": [[-300.0, 0.0, 110.0], [0.0, 0.0, 110.0]],
        }
        path = make_scenario_file(uavs=[doc_uav])
        with pytest.raises(ScenarioError, match="contiguous"):
            load_scenario(path)

    def test_waypoint_outside_terrain(self, make_scenario_file):
        path = make_scenario_file(
            uavs=[
                {
                    "id": 0,
                    "initial": dict(MINI_INITIAL),
                    "waypoints": [[99_999.0, 0.0, 110.0], [0.0, 0.0, 110.0]],
                }
            ]
        )
        with pytest.raises(ScenarioError, match="terrain footprint"):
            load_scenario(path)

    def test_non_positive_dt(self, make_scenario_file):
        # the one dt check: step_autopilot, step_kinematics and WindModel.sample trust it
        for dt in (0.0, -1.0):
            with pytest.raises(ScenarioError, match="dt_s"):
                load_scenario(make_scenario_file(dt_s=dt))

    def test_negative_duration(self, make_scenario_file):
        with pytest.raises(ScenarioError, match="duration_s"):
            load_scenario(make_scenario_file(duration_s=-1.0))

    # run steps round(duration_s / dt_s) times, and round takes halves to
    # even: at dt_s 1 it would fly 0 ticks for 0.5 s, 2 for 1.5 s and 2.5 s.
    @pytest.mark.parametrize("duration, dt", [(0.5, 1.0), (1.5, 1.0), (2.5, 1.0), (3.5, 1.0), (80.0, 0.3),
                                              (1.0, 1.0 + 1e-8)])
    def test_duration_not_a_whole_number_of_steps(self, make_scenario_file, duration, dt):
        path = make_scenario_file(duration_s=duration, dt_s=dt)
        with pytest.raises(ScenarioError, match=rf"^scenario\.duration_s: {duration} s is not a whole number of"
                                                rf" dt_s {re.escape(repr(dt))} s steps$"):
            load_scenario(path)

    @pytest.mark.parametrize("duration, dt, n_ticks", [(270.0, 0.2, 1350), (1.0, 1.0 + 1e-10, 1), (0.0, 0.3, 0)])
    def test_duration_within_1e9_of_whole_steps(self, make_scenario_file, duration, dt, n_ticks):
        log, _ = run(load_scenario(make_scenario_file(duration_s=duration, dt_s=dt)))
        assert log.n_ticks == n_ticks

    def test_oversized_log_is_reported_before_a_fractional_step(self, make_scenario_file):
        path = make_scenario_file(duration_s=2.0**47 + 0.5)
        with pytest.raises(ScenarioError, match=r"^scenario\.duration_s: the run log of "):
            load_scenario(path)

    # run's (n_ticks, 1, len(LOG_COLUMNS)) float64 log and one replan's
    # (k_samples, 3) float64 samples may take up to 2**47 bytes, and not one byte more.
    @pytest.mark.parametrize("overrides, message", [
        ({"duration_s": float(MAX_LOG_TICKS)}, None),
        ({"duration_s": float(MAX_LOG_TICKS + 1)},
         rf"^scenario\.duration_s: the run log of {MAX_LOG_TICKS + 1}\.0 s at dt_s 1\.0 for 1 "),
        ({"duration_s": 1e300, "dt_s": 1e-300}, r"^scenario\.duration_s: the run log of 1e\+300 s at dt_s 1e-300 "),
        ({"replan": {"k_samples": 5_864_062_014_805}}, None),
        ({"replan": {"k_samples": 5_864_062_014_806}}, r"^scenario\.replan\.k_samples: a \(5864062014806, 3\) "),
    ])
    def test_arrays_run_cannot_allocate_are_rejected(self, make_scenario_file, overrides, message):
        path = make_scenario_file(**overrides)
        if message is None:
            load_scenario(path)
        else:
            with pytest.raises(ScenarioError, match=message):
                load_scenario(path)

    def test_initial_speed_outside_limits(self, make_scenario_file):
        path = make_scenario_file(uavs=[{
            "id": 0,
            "initial": {**MINI_INITIAL, "v_g_mps": 25.0},
            "waypoints": [[-300.0, 0.0, 110.0], [0.0, 0.0, 110.0]],
        }])
        with pytest.raises(ScenarioError, match="outside limits"):
            load_scenario(path)

    def test_target_must_be_mapping(self, make_scenario_file):
        with pytest.raises(ScenarioError, match="mapping"):
            load_scenario(make_scenario_file(target="nope"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("uavs: [unclosed\n")
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load_scenario(bad)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    @pytest.mark.parametrize(
        "name",
        ["reference_4uav", "reference_4uav_dropout", "fleet_04", "fleet_07", "fleet_10", "fleet_13",
         "generated_fleet_104"],
    )
    def test_libyaml_parses_like_pure_python(self, scenario_dir, name):
        if name == "generated_fleet_104":
            text = yaml.safe_dump(fleet_scenario_dict(104), sort_keys=False, default_flow_style=None)
        else:
            text = (Path(scenario_dir) / f"{name}.yaml").read_text()
        assert harness._YAML_LOADER is yaml.CSafeLoader
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        # repr also tells 1 from 1.0 and compares key order
        assert repr(fast) == repr(yaml.load(text, Loader=yaml.SafeLoader))


def loaded(scenario, *ignore):
    """``scenario``'s fields less ``ignore``, its vehicles compared by value."""
    fields = {**vars(scenario), "uavs": [(u.uav_id, u.initial, u.limits, u.waypoints.tolist()) for u in scenario.uavs]}
    return {key: value for key, value in fields.items() if key not in ignore}


@pytest.fixture
def yaml_loads(monkeypatch):
    """Count the YAML parses, from an empty parse store."""
    monkeypatch.setattr(geo, "_LAST_PARSE", {})
    calls = []
    parse = yaml.load

    def counted(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(yaml, "load", counted)
    return calls


class TestScenarioParseReuse:
    """Identical scenario bytes are parsed once; all else runs on every load."""

    def test_identical_bytes_parse_once_into_distinct_scenarios(self, make_scenario_file, tmp_path, yaml_loads):
        path = make_scenario_file()
        copy_path = tmp_path / "copy.yaml"
        copy_path.write_bytes(path.read_bytes())
        first, second = load_scenario(path), load_scenario(copy_path)
        assert len(yaml_loads) == 1
        assert first is not second and first.uavs is not second.uavs
        assert loaded(first, "source_path") == loaded(second, "source_path")
        assert second.source_path == str(copy_path)
        first.master_seed = 99
        first.uavs.append(first.uavs[0])
        third = load_scenario(path)
        assert len(yaml_loads) == 1
        assert third.master_seed == 11 and len(third.uavs) == 1
        assert loaded(third) == loaded(second, "source_path") | {"source_path": str(path)}

    def test_same_text_over_other_terrain_is_validated_against_it(self, make_scenario_file, tmp_path, yaml_loads):
        uav = {"id": 0, "initial": dict(MINI_INITIAL), "waypoints": [[-300.0, 500.0, 110.0], [0.0, 0.0, 110.0]]}
        path = make_scenario_file(uavs=[uav])
        raised, narrow = tmp_path / "raised", tmp_path / "narrow"
        for directory, dem in ((raised, DemGrid(-2000.0, -2000.0, 500.0, np.full((9, 9), 5.0))),
                               (narrow, DemGrid(-2000.0, -200.0, 200.0, np.zeros((21, 3))))):
            directory.mkdir()
            (directory / "mini.yaml").write_bytes(path.read_bytes())
            save_dem(dem, directory / "flat.dem")
        flat, high = load_scenario(path), load_scenario(raised / "mini.yaml")
        for scenario, directory in ((flat, tmp_path), (high, raised)):
            assert scenario.dem_sha256 == hashlib.sha256((directory / "flat.dem").read_bytes()).hexdigest()
        assert high.dem.elevation.tolist() == np.full((9, 9), 5.0).tolist()
        with pytest.raises(ScenarioError, match=r"^scenario\.uavs\[0\]\.waypoints\[0\]: outside the terrain footprint$"):
            load_scenario(narrow / "mini.yaml")
        assert len(yaml_loads) == 1

    def test_file_rewritten_in_place_loads_its_new_value(self, make_scenario_file, yaml_loads):
        path = make_scenario_file()
        assert load_scenario(path).duration == 80.0
        assert make_scenario_file(duration_s=90.0) == path
        assert load_scenario(path).duration == 90.0
        assert len(yaml_loads) == 2

    def test_invalid_yaml_raises_on_every_load_and_is_not_stored(self, tmp_path, yaml_loads):
        bad = tmp_path / "bad.yaml"
        bad.write_text("uavs: [unclosed\n")
        for _ in range(2):
            with pytest.raises(ScenarioError, match="not valid YAML"):
                load_scenario(bad)
        assert len(yaml_loads) == 2
        assert geo._LAST_PARSE == {}

    def test_invalid_document_raises_the_same_message_on_every_load(self, make_scenario_file, yaml_loads):
        path = make_scenario_file(limits={"v_g_min_mps": 19.0})
        messages = []
        for _ in range(2):
            with pytest.raises(ScenarioError) as exc:
                load_scenario(path)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] and "v_g" in messages[0]
        assert len(yaml_loads) == 1

    @pytest.mark.parametrize("name", ["reference_4uav", "reference_4uav_dropout", "fleet_13", "mini"])
    def test_validation_leaves_the_stored_document_as_parsed(self, scenario_dir, make_scenario_file, name,
                                                           monkeypatch):
        monkeypatch.setattr(geo, "_LAST_PARSE", {})
        if name == "mini":
            # Root and vehicle limits are merged, and the obstacle and wind blocks read.
            uav = {**MINI_SCENARIO["uavs"][0], "limits": {"v_g_max_mps": 17.0}}
            path = make_scenario_file(obstacle=dict(ACTIVE_OBSTACLE), uavs=[uav])
        else:
            path = Path(scenario_dir) / f"{name}.yaml"
        scenario = load_scenario(path)
        data = path.read_bytes()
        document = yaml.load(data.decode(), Loader=harness._YAML_LOADER)
        assert geo._LAST_PARSE[harness._parse_yaml] == (scenario.source_sha256, document)

    def test_other_terrain_bytes_leave_the_document_parsed_once(self, make_scenario_file, tmp_path, yaml_loads):
        path = make_scenario_file()
        first = load_scenario(path)
        save_dem(DemGrid(0.0, 0.0, 10.0, np.full((3, 3), 7.0)), tmp_path / "other.dem")
        assert load_dem(tmp_path / "other.dem").elevation.tolist() == np.full((3, 3), 7.0).tolist()
        second = load_scenario(path)
        assert len(yaml_loads) == 1
        assert loaded(first, "dem") == loaded(second, "dem")

    def test_other_scenario_over_the_same_terrain_reuses_its_grid(self, make_scenario_file, monkeypatch):
        monkeypatch.setattr(geo, "_LAST_PARSE", {})
        dem_parses = []
        parse = geo._parse_dem

        def counted(data, path):
            dem_parses.append(path)
            return parse(data, path)

        monkeypatch.setattr(geo, "_parse_dem", counted)
        first = load_scenario(make_scenario_file())
        second = load_scenario(make_scenario_file(name="other", duration_s=90.0))
        assert first.source_sha256 != second.source_sha256 and second.duration == 90.0
        assert len(dem_parses) == 1 and second.dem is first.dem

    def test_crlf_copy_hashes_its_bytes_and_loads_like_the_lf_file(self, scenario_dir, tmp_path):
        lf = Path(scenario_dir) / "reference_4uav.yaml"
        crlf = tmp_path / "reference_4uav.yaml"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        shutil.copy(Path(scenario_dir) / "terrain.dem", tmp_path / "terrain.dem")
        a, b = load_scenario(lf), load_scenario(crlf)
        assert b.source_sha256 == hashlib.sha256(crlf.read_bytes()).hexdigest() != a.source_sha256
        assert a.source_sha256 == hashlib.sha256(lf.read_bytes()).hexdigest()
        assert loaded(a, "source_path", "source_sha256") == loaded(b, "source_path", "source_sha256")


REMOVE = object()


# One object of each class in _KEYS, every field read from YAML off its default.
OFF_DEFAULT = [
    Point3(1.5, -2.5, 3.25),
    GuidanceParams(2.0, 3.0, 41.0, 0.25, 0.75),
    CoordinationGains(2.0, 0.5, 0.002),
    CommConfig(1000.0, 3, 2.0, (DropoutWindow(1.0, 2.0, 0, 1),)),
    DropoutWindow(1.0, 2.0, 0, 1),
    ReplanParams(10, 100.0, 30.0, 1.0, 5.0, 10.0, 3),
    AutopilotParams(0.25, 0.75, 1.5, 2.5),
    WindParams((1.0, 2.0, 3.0), 0.5, 0.25, 0.125, 100.0, 150.0, 60.0, 12.0, 0.2),
    Obstacle(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    UavLimits(8.0, 19.0, -0.5, 0.5, 0.1, 2.0, -1.25, 1.25, -1.0, 1.0),
    UavState(Point3(1.0, 2.0, 3.0), 0.5, 0.1, 0.25, 12.0, 0.2, 1.1),
]


def load_variant(make_scenario_file, path, value=REMOVE):
    """Load the mini scenario with the key at ``path`` set to ``value``, or removed."""
    doc = copy.deepcopy(MINI_SCENARIO)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is REMOVE:
        del node[last]
    else:
        node[last] = value
    scenario_path = make_scenario_file()
    scenario_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return load_scenario(scenario_path)


class TestScenarioSchema:
    """The loader derived from the param dataclasses: messages, keys, defaults."""

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("target", "east_m"), "x", "scenario.target.east_m: expected a number, got 'x'"),
            (("guidance", "k_chi"), "x", "scenario.guidance.k_chi: expected a number, got 'x'"),
            (
                ("duration_s",),
                "1.0e12",
                "scenario.duration_s: expected a number, got '1.0e12'"
                " (YAML reads an exponent without a sign as text; write 1.0e+12)",
            ),
            (("coordination", "k_vg"), None, "scenario.coordination.k_vg: expected a number, got None"),
            (("comm", "c_max"), 2.5, "scenario.comm.c_max: expected an integer, got 2.5"),
            (("replan", "k_samples"), True, "scenario.replan.k_samples: expected an integer, got True"),
            (("autopilot", "tau_n_s"), "x", "scenario.autopilot.tau_n_s: expected a number, got 'x'"),
            (("wind", "sigma_u_mps"), math.inf, "scenario.wind.sigma_u_mps: must be finite, got inf"),
            (("wind", "sigma_u_mps"), -1.0, "scenario.wind: gust sigmas must be non-negative"),
            (
                ("obstacle",),
                {**ACTIVE_OBSTACLE, "lateral_radius_m": "x"},
                "scenario.obstacle.lateral_radius_m: expected a number, got 'x'",
            ),
            (
                ("obstacle",),
                {k: v for k, v in ACTIVE_OBSTACLE.items() if k != "center_north_m"},
                "scenario.obstacle: missing required field 'center_north_m'",
            ),
            (
                ("limits", "phi_max_rad"),
                [1],
                "scenario.limits.phi_max_rad: expected a number, got [1]",
            ),
            (
                ("uavs", 0, "initial", "chi_rad"),
                "x",
                "scenario.uavs[0].initial.chi_rad: expected a number, got 'x'",
            ),
        ],
        ids=["target", "guidance", "duration-unsigned-exponent", "coordination", "comm", "replan", "autopilot",
             "wind", "wind-semantic", "obstacle", "obstacle-missing", "limits", "initial"],
    )
    def test_each_section_reports_one_prefix(self, make_scenario_file, path, value, message):
        with pytest.raises(ScenarioError) as info:
            load_variant(make_scenario_file, path, value)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "path, message",
        [
            (("guidence",), "scenario: unknown key 'guidence'"),
            (("target", "up_m"), "scenario.target: unknown key 'up_m'"),
            (("guidance", "k_chii"), "scenario.guidance: unknown key 'k_chii'"),
            (("coordination", "dt_s"), "scenario.coordination: unknown key 'dt_s'"),
            (("comm", "r_com"), "scenario.comm: unknown key 'r_com'"),
            (("replan", "k_sample"), "scenario.replan: unknown key 'k_sample'"),
            (("autopilot", "tau_phi"), "scenario.autopilot: unknown key 'tau_phi'"),
            (("wind", "ambient"), "scenario.wind: unknown key 'ambient'"),
            (("limits", "v_g_min"), "scenario.limits: unknown key 'v_g_min'"),
            (("uavs", 0, "speed_mps"), "scenario.uavs[0]: unknown key 'speed_mps'"),
            (("uavs", 0, "initial", "v_g"), "scenario.uavs[0].initial: unknown key 'v_g'"),
        ],
        ids=["root", "target", "guidance", "coordination", "comm", "replan", "autopilot", "wind",
             "limits", "uav-row", "initial"],
    )
    def test_unknown_key_is_rejected(self, make_scenario_file, path, message):
        with pytest.raises(ScenarioError) as info:
            load_variant(make_scenario_file, path, 1.0)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "limits, uav_limits, message",
        [
            ({"phi_max_rad": "x"}, {}, "scenario.limits.phi_max_rad: expected a number, got 'x'"),
            ({"a": 1}, {}, "scenario.limits: unknown key 'a'"),
            (
                {"v_g_min_mps": 19.0},
                {},
                "scenario.uavs[0].limits: v_g: min (19.0) must be < max (18.0)",
            ),
            (
                {},
                {"phi_max_rad": "x"},
                "scenario.uavs[0].limits.phi_max_rad: expected a number, got 'x'",
            ),
        ],
        ids=["root-value", "root-unknown-key", "root-ordering", "uav-value"],
    )
    def test_limits_errors_name_the_block_they_are_in(
        self, make_scenario_file, limits, uav_limits, message
    ):
        # Keys and values are checked in the block that holds them; the
        # min < max orderings only once the root block is merged per vehicle.
        uav = {**MINI_SCENARIO["uavs"][0], "limits": uav_limits}
        with pytest.raises(ScenarioError) as info:
            load_scenario(make_scenario_file(limits=limits, uavs=[uav]))
        assert str(info.value) == message

    def test_root_limits_valid_only_once_merged_load(self, make_scenario_file):
        uav = {**MINI_SCENARIO["uavs"][0], "limits": {"eta_lat_min_rad": -1.55}}
        scenario = load_scenario(make_scenario_file(limits={"eta_lat_max_rad": -1.5}, uavs=[uav]))
        limits = scenario.uavs[0].limits
        assert (limits.eta_lat_min, limits.eta_lat_max) == (-1.55, -1.5)

    def test_unknown_obstacle_key_is_rejected(self, make_scenario_file):
        with pytest.raises(ScenarioError) as info:
            load_variant(make_scenario_file, ("obstacle",), {**ACTIVE_OBSTACLE, "radius_m": 5.0})
        assert str(info.value) == "scenario.obstacle: unknown key 'radius_m'"

    @pytest.mark.parametrize(
        "row, message",
        [
            ([0, 10, 1.7, 0], "uav_a: expected an integer, got 1.7"),
            (["0", 10, 0, 1], "start_s: expected a number, got '0'"),
            ([True, 10, 0, 1], "start_s: expected a number, got True"),
            ([0, math.inf, 0, 1], "end_s: must be finite, got inf"),
        ],
        ids=["fractional-id", "string-start", "bool-start", "infinite-end"],
    )
    def test_dropout_row_cells_follow_the_number_rules(self, make_scenario_file, row, message):
        with pytest.raises(ScenarioError) as info:
            load_variant(make_scenario_file, ("comm", "dropout_schedule"), [row])
        assert str(info.value) == f"scenario.comm.dropout_schedule[0].{message}"

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("replan", "clearance_m"), 10**400, r"scenario\.replan\.clearance_m: must be finite"),
            (
                ("uavs", 0, "waypoints", 0),
                [10**400, 0.0, 110.0],
                r"scenario\.uavs\[0\]\.waypoints\[0\]\.north_m: must be finite",
            ),
        ],
        ids=["field", "waypoint"],
    )
    def test_int_too_large_for_a_float_is_rejected(self, make_scenario_file, path, value, message):
        with pytest.raises(ScenarioError, match="^" + message):
            load_variant(make_scenario_file, path, value)

    def test_dropout_row_loads(self, make_scenario_file):
        uavs = [MINI_SCENARIO["uavs"][0], {**MINI_SCENARIO["uavs"][0], "id": 1}]
        scenario = load_scenario(make_scenario_file(uavs=uavs, comm={"dropout_schedule": [[0, 10.5, 1, 0]]}))
        assert scenario.comm.dropout_schedule == (DropoutWindow(0.0, 10.5, 1, 0),)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([0.0, 300.0, 0, 2], "vehicles 0 and 2 must both lie in [0, 2)"),
            ([0.0, 300.0, -1, 1], "vehicles -1 and 1 must both lie in [0, 2)"),
        ],
        ids=["id-N", "id-minus-1"],
    )
    def test_dropout_row_naming_a_vehicle_outside_the_fleet_is_rejected(self, make_scenario_file, row, message):
        uavs = [MINI_SCENARIO["uavs"][0], {**MINI_SCENARIO["uavs"][0], "id": 1}]
        rows = [[5.0, 10.0, 1, 0], row]
        with pytest.raises(ScenarioError) as info:
            load_scenario(make_scenario_file(uavs=uavs, comm={"dropout_schedule": rows}))
        assert str(info.value) == f"scenario.comm.dropout_schedule[1]: {message}"

    @pytest.mark.parametrize(
        "ambient, message",
        [
            ([math.nan, 0.0, 0.0], "north: must be finite, got nan"),
            ([0.0, math.inf, 0.0], "east: must be finite, got inf"),
        ],
        ids=["nan-north", "inf-east"],
    )
    def test_ambient_components_must_be_finite(self, make_scenario_file, ambient, message):
        with pytest.raises(ScenarioError) as info:
            load_variant(make_scenario_file, ("wind", "ambient_mps"), ambient)
        assert str(info.value) == f"scenario.wind.ambient_mps.{message}"

    @pytest.mark.parametrize(
        "value, message",
        [
            (REMOVE, ": expected [{keys}], got {row!r}"),
            (True, ".{key}: expected a number, got True"),
            ("north", ".{key}: expected a number, got 'north'"),
            ("1e3", ".{key}: expected a number, got '1e3' (YAML reads an exponent without a sign as text;"
                    " write 1.0e+3)"),
            (math.inf, ".{key}: must be finite, got inf"),
        ],
        ids=["short", "bool", "text", "unsigned-exponent", "infinite"],
    )
    @pytest.mark.parametrize(
        "path, ctx, keys, row",
        [
            (("uavs", 0, "waypoints", 0), "scenario.uavs[0].waypoints[0]", ("north_m", "east_m", "height_m"),
             [-300.0, 0.0, 110.0]),
            (("comm", "dropout_schedule"), "scenario.comm.dropout_schedule[0]",
             ("start_s", "end_s", "uav_a", "uav_b"), [0.0, 10.0, 0, 0]),
            (("wind", "ambient_mps"), "scenario.wind.ambient_mps", ("north", "east", "up"), [0.0, 0.0, 0.0]),
        ],
        ids=["waypoint", "dropout", "ambient"],
    )
    def test_list_row_values_follow_the_number_rules(self, make_scenario_file, path, ctx, keys, row, value, message):
        # REMOVE drops the row's last value; any other value replaces its first.
        row = row[:-1] if value is REMOVE else [value, *row[1:]]
        with pytest.raises(ScenarioError) as info:
            load_variant(make_scenario_file, path, [row] if path[-1] == "dropout_schedule" else row)
        assert str(info.value) == ctx + message.format(keys=", ".join(keys), row=row, key=keys[0])

    def test_int_field_of_a_named_tuple_loads_as_an_int(self, monkeypatch):
        class Counted(NamedTuple):
            # Strings, as every annotation is under postponed evaluation; a
            # named tuple's signature shows them as ForwardRef('int').
            count: "int"
            scale: "float" = 1.0

        monkeypatch.setitem(_KEYS, Counted, ("count", "scale_m"))
        assert harness._section(Counted, {"count": 2}, "scenario.counted") == Counted(2, 1.0)
        with pytest.raises(ScenarioError) as info:
            harness._section(Counted, {"count": 1.5}, "scenario.counted")
        assert str(info.value) == "scenario.counted.count: expected an integer, got 1.5"

    def test_keys_map_one_to_one_onto_fields(self):
        units = ("", "_m", "_s", "_rad", "_mps", "_radps")
        filled_by_loader = {"dropout_schedule", "ambient", "position"}
        for cls, keys in _KEYS.items():
            names = list(inspect.signature(cls).parameters)
            matched = []
            for key in keys:
                owners = [n for n in names if any(key == n + unit for unit in units)]
                assert len(owners) == 1, (cls.__name__, key, owners)
                matched.extend(owners)
            assert len(set(matched)) == len(keys), cls.__name__
            assert set(names) - set(matched) <= filled_by_loader, cls.__name__

    @pytest.mark.parametrize("built", OFF_DEFAULT, ids=lambda built: type(built).__name__)
    def test_node_reads_back_as_the_same_object(self, built):
        cls = type(built)
        schema = harness._schema(cls)
        assert all(getattr(built, name) != default for _, name, default, _ in schema)
        node = harness._node(built)
        assert list(node) == list(_KEYS[cls])
        read = {name for _, name, _, _ in schema}
        filled_by_loader = {f: getattr(built, f) for f in inspect.signature(cls).parameters if f not in read}
        assert harness._section(cls, node, "scenario.x", **filled_by_loader) == built

    def test_node_round_trip_covers_every_keyed_class(self):
        assert sorted(type(built).__name__ for built in OFF_DEFAULT) == sorted(cls.__name__ for cls in _KEYS)

    @pytest.mark.parametrize(
        "section, built, default",
        [
            ("guidance", attrgetter("guidance"), GuidanceParams()),
            ("coordination", attrgetter("coordination"), CoordinationGains()),
            ("comm", attrgetter("comm"), CommConfig()),
            ("replan", attrgetter("replan"), ReplanParams()),
            ("autopilot", attrgetter("autopilot"), AutopilotParams()),
            ("wind", attrgetter("wind"), WindParams()),
            ("limits", lambda scenario: scenario.uavs[0].limits, UavLimits()),
        ],
        ids=["guidance", "coordination", "comm", "replan", "autopilot", "wind", "limits"],
    )
    def test_omitted_section_takes_dataclass_defaults(
        self, make_scenario_file, section, built, default
    ):
        assert built(load_variant(make_scenario_file, (section,))) == default

    def test_readme_scenario_example_loads(self, scenario_dir, tmp_path, request):
        readme = (request.config.rootpath / "README.md").read_text()
        (block,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        (tmp_path / "example.yaml").write_text(block)
        shutil.copy(f"{scenario_dir}/terrain.dem", tmp_path / "terrain.dem")
        scenario = load_scenario(tmp_path / "example.yaml")
        assert scenario.name == "two_ship"
        assert scenario.comm.gamma_signal == 5.0e4
        assert scenario.obstacle is not None
        assert len(scenario.uavs) == 1


class TestRun:
    def test_tick_accounting(self, make_scenario_file):
        scenario = load_scenario(make_scenario_file())
        log, metrics = run(scenario)
        assert log.n_ticks == 80
        assert log.n_uavs == 1
        assert log.data.shape == (80, 1, len(LOG_COLUMNS))
        assert log.positions(0).shape == (80, 3)
        assert log.thetas().shape == (80, 1)

    def test_vehicle_reaches_target(self, make_scenario_file):
        scenario = load_scenario(make_scenario_file())
        log, metrics = run(scenario)
        dists = np.linalg.norm(
            log.positions(0) - scenario.target, axis=1
        )
        assert float(dists.min()) < 40.0
        assert metrics.ae_mean_m < 15.0

    def test_vehicle_on_its_active_waypoint_keeps_course_and_climb(self, make_scenario_file):
        # starting on the target, heading north away from waypoint 0: the
        # advance makes the target active, at distance 0, where no bearing exists
        uav = {
            "id": 0,
            "initial": {**MINI_INITIAL, "north_m": 0.0, "chi_rad": 0.0, "gamma_rad": 0.0},
            "waypoints": [[-300.0, 0.0, 110.0], [0.0, 0.0, 110.0]],
        }
        scenario = load_scenario(make_scenario_file(duration_s=1.0, uavs=[uav]))
        log, _ = run(scenario)
        row = dict(zip(LOG_COLUMNS, log.data[0, 0].tolist()))
        assert (row["cursor"], row["theta"], row["eta_lat"], row["eta_lon"]) == (1.0, 0.0, 0.0, 0.0)

    def test_straight_line_arrival_and_theta_descent(self, make_scenario_file):
        # dt fine enough that the flyby itself is sampled, not just bracketed
        scenario = load_scenario(make_scenario_file(dt_s=0.2))
        log, metrics = run(scenario)
        dists = np.linalg.norm(log.positions(0) - scenario.target, axis=1)
        arrival = int(np.argmin(dists))
        assert dists[arrival] < 5.0
        # theta falls monotonically once the speed transient settles
        thetas = log.thetas()[:, 0]
        assert np.all(np.diff(thetas[2 : arrival + 1]) < 0.0)

    def test_non_finite_state_names_tick_and_first_vehicle(self, scenario_dir, monkeypatch):
        # vehicles 2 and 3 both get a NaN course gust at tick 3; the guard
        # names the first of them in id order
        scenario = load_scenario(f"{scenario_dir}/reference_4uav.yaml")
        n = len(scenario.uavs)
        sample = WindModel.sample
        calls = itertools.count()

        def nan_gust(model, dt):
            k = next(calls)
            d_chi, d_gamma = sample(model, dt)
            return (math.nan, d_gamma) if k // n == 3 and k % n >= 2 else (d_chi, d_gamma)

        monkeypatch.setattr(WindModel, "sample", nan_gust)
        with pytest.raises(RunError, match=r"^tick 3, uav 2: state became non-finite"):
            run(scenario)

    # Each array asked for is above 2**47 bytes, more than a process's address
    # space holds, so it fails at once and commits no memory under any
    # overcommit setting. The loader refuses both, so each is raised after it.
    @pytest.mark.parametrize("field, message", [
        ("duration", rf"^cannot allocate the run log of shape \(10000000000000, 1, {len(LOG_COLUMNS)}\): "),
        ("replan", r"^tick 0: cannot allocate: "),
    ])
    def test_allocation_that_fails_raises_run_error(self, make_scenario_file, field, message):
        scenario = load_scenario(make_scenario_file(obstacle=dict(ACTIVE_OBSTACLE)))
        raised = {"duration": 1e13, "replan": dataclasses.replace(scenario.replan, k_samples=10**14)}
        setattr(scenario, field, raised[field])
        with pytest.raises(RunError, match=message):
            run(scenario)

    def test_consensus_uses_last_ticks_values_over_last_ticks_graph(self, scenario_dir):
        # theta_dot at tick t is the scalar law on the peers' tick t-1 theta,
        # routed over the graph of the tick t-1 positions; at tick 0 nothing
        # has been received, so every rate is gamma_d exactly
        scenario = load_scenario(f"{scenario_dir}/reference_4uav_dropout.yaml")
        log, _ = run(scenario)
        gains = scenario.coordination
        theta = log.thetas().tolist()
        theta_dot = log.data[:, :, LOG_COLUMNS.index("theta_dot")].tolist()
        assert theta_dot[0] == [gains.gamma_d] * log.n_uavs
        suppressed = current_differs = 0
        for tick in range(1, log.n_ticks):
            positions, now = log.data[tick - 1, :, :3].T, (tick - 1) * log.dt
            links = topology_oracle(positions, scenario.comm, now)
            inboxes = deliver_oracle(theta[tick - 1], links)
            assert theta_dot[tick] == [consensus_oracle(th, inbox, gains) for th, inbox in zip(theta[tick], inboxes)]
            open_links = topology_oracle(positions, dataclasses.replace(scenario.comm, dropout_schedule=()), now)
            suppressed += links != open_links
            current = deliver_oracle(theta[tick], links)
            current_differs += theta_dot[tick] != [consensus_oracle(th, inbox, gains)
                                                   for th, inbox in zip(theta[tick], current)]
        assert suppressed > 0
        assert current_differs > 0

    def test_zero_duration_run(self, make_scenario_file, tmp_path):
        scenario = load_scenario(make_scenario_file(duration_s=0.0))
        log, metrics = run(scenario)
        assert log.n_ticks == 0
        assert log.data.shape == (0, 1, len(LOG_COLUMNS))
        assert metrics.ae_mean_m == 0.0
        assert metrics.md_max_s == 0.0
        out = tmp_path / "empty"
        files = export(log, metrics, out)
        content = (out / "uav_00.csv").read_text()
        assert content.count("\n") == 1  # header only

    def test_deterministic_exports(self, make_scenario_file, tmp_path):
        path = make_scenario_file(obstacle=dict(ACTIVE_OBSTACLE), replan={"delta_h_m": 200.0})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        log_a, metrics_a = run(load_scenario(path))
        log_b, metrics_b = run(load_scenario(path))
        files_a = export(log_a, metrics_a, out_a)
        files_b = export(log_b, metrics_b, out_b)
        for fa, fb in zip(files_a, files_b):
            if fa.name == "timing.json":
                continue
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_inactive_obstacle_never_triggers_replanning(self, make_scenario_file):
        inert = {**ACTIVE_OBSTACLE, "activation_time_s": 1e9}
        scenario = load_scenario(make_scenario_file(obstacle=inert))
        log, metrics = run(scenario)
        assert log.replan_events == []
        assert log.replan_failures == []
        assert metrics.n_replan_events == 0

    def test_replan_event_contract(self, make_scenario_file):
        scenario = load_scenario(
            make_scenario_file(obstacle=dict(ACTIVE_OBSTACLE), replan={"delta_h_m": 200.0})
        )
        log, metrics = run(scenario)
        assert len(log.replan_events) >= 1
        event = log.replan_events[0]
        assert [f.name for f in dataclasses.fields(ReplanEvent)] == [
            "tick", "uav_id", "waypoints", "overhead", "wall_ms"
        ]
        assert event.uav_id == 0
        assert event.tick == 0
        assert event.overhead > 0.0
        assert event.wall_ms >= 0.0

        # the detour must clear the obstacle on every leg back to the
        # waypoint that was active at detection time
        detection = Point3(-600.0, 0.0, 110.0)
        original = Point3(-300.0, 0.0, 110.0)
        now = event.tick * log.dt
        assert segment_obstructed(detection, original, scenario.obstacle, now)
        legs = [detection, *event.waypoints, original]
        for a, b in zip(legs, legs[1:]):
            assert not segment_obstructed(a, b, scenario.obstacle, now)

        # and the vehicle still completes the mission
        dists = np.linalg.norm(log.positions(0) - scenario.target, axis=1)
        assert float(dists.min()) < 40.0
        assert metrics.detour_overhead_s > 0.0


class TestComputeMetrics:
    def make_scenario(self, make_scenario_file, **overrides):
        return load_scenario(make_scenario_file(**overrides))

    def test_closest_approach_hand_case(self, make_scenario_file):
        # waypoint errors (3,4,0) and (0,0,5): both norms 5, AE exactly 5;
        # mean error vector (1.5,2,2.5) has norm sqrt(12.5), so RMSE is
        # sqrt(2) * (5 - sqrt(12.5))
        scenario = self.make_scenario(make_scenario_file)
        log = RunLog(n_uavs=1, dt=1.0, n_ticks=2)
        rec(log, 0, 0, -303.0, -4.0, 110.0)
        rec(log, 1, 0, 0.0, 0.0, 105.0)
        metrics = compute_metrics(log, scenario)
        assert metrics.ae_mean_m == 5.0
        assert metrics.per_uav_ae_m == [5.0]
        expected_rmse = math.sqrt(2.0) * (5.0 - math.sqrt(12.5))
        assert metrics.rmse_mean_m == pytest.approx(expected_rmse, abs=1e-12)

    def test_perfect_passage_zeroes_errors(self, make_scenario_file):
        scenario = self.make_scenario(make_scenario_file)
        log = RunLog(n_uavs=1, dt=1.0, n_ticks=2)
        rec(log, 0, 0, -300.0, 0.0, 110.0)
        rec(log, 1, 0, 0.0, 0.0, 110.0)
        metrics = compute_metrics(log, scenario)
        assert metrics.ae_mean_m == 0.0
        assert metrics.rmse_mean_m == 0.0

    def test_md_tracks_whole_run_and_final_tick(self, make_scenario_file):
        second_uav = {
            "id": 1,
            "initial": {**MINI_INITIAL, "north_m": 0.0, "east_m": -600.0,
                        "chi_rad": math.pi / 2, "psi_rad": math.pi / 2},
            "waypoints": [[0.0, -300.0, 110.0], [0.0, 0.0, 110.0]],
        }
        scenario = self.make_scenario(
            make_scenario_file,
            uavs=[
                {
                    "id": 0,
                    "initial": dict(MINI_INITIAL),
                    "waypoints": [[-300.0, 0.0, 110.0], [0.0, 0.0, 110.0]],
                },
                second_uav,
            ],
        )
        log = RunLog(n_uavs=2, dt=1.0, n_ticks=3)
        thetas = {(0, 0): 10.0, (0, 1): 4.0, (1, 0): 6.0, (1, 1): 6.0, (2, 0): 5.0, (2, 1): 6.0}
        for (t, u), theta in thetas.items():
            rec(log, t, u, -300.0 if u == 0 else 0.0, 0.0 if u == 0 else -300.0, 110.0,
                theta=theta)
        metrics = compute_metrics(log, scenario)
        assert metrics.md_max_s == 6.0
        assert metrics.md_final_s == 1.0

    def test_detour_overhead_sums_events(self, make_scenario_file):
        scenario = self.make_scenario(make_scenario_file)
        log = RunLog(n_uavs=1, dt=1.0, n_ticks=1)
        rec(log, 0, 0, -300.0, 0.0, 110.0)
        log.replan_events = [
            ReplanEvent(0, 0, (Point3(0, 0, 110),), overhead=1.5, wall_ms=2.0),
            ReplanEvent(0, 0, (Point3(0, 0, 110),), overhead=2.25, wall_ms=2.0),
        ]
        metrics = compute_metrics(log, scenario)
        assert metrics.detour_overhead_s == 3.75
        assert metrics.n_replan_events == 2

    def test_detour_overhead_adds_left_to_right(self, make_scenario_file):
        # 1 + 1e16 is a tie that rounds back to 1e16, twice; a compensated
        # sum (math.fsum, Python 3.12's builtin sum) gives 1e16 + 2.
        scenario = self.make_scenario(make_scenario_file)
        log = RunLog(n_uavs=1, dt=1.0, n_ticks=1)
        rec(log, 0, 0, -300.0, 0.0, 110.0)
        overheads = [1.0, 1e16, 1.0]
        log.replan_events = [ReplanEvent(0, 0, (Point3(0, 0, 110),), overhead=x, wall_ms=2.0)
                             for x in overheads]
        assert compute_metrics(log, scenario).detour_overhead_s == 1e16
        assert math.fsum(overheads) == 1e16 + 2.0

    def test_empty_log_is_all_zero(self, make_scenario_file):
        scenario = self.make_scenario(make_scenario_file)
        log = RunLog(n_uavs=1, dt=1.0, n_ticks=0)
        metrics = compute_metrics(log, scenario)
        assert metrics.ae_mean_m == 0.0
        assert metrics.rmse_mean_m == 0.0
        assert metrics.md_max_s == 0.0
        assert metrics.md_final_s == 0.0


class TestExport:
    def test_file_set_and_headers(self, make_scenario_file, tmp_path):
        scenario = load_scenario(make_scenario_file())
        log, metrics = run(scenario)
        out = tmp_path / "out"
        files = export(log, metrics, out)
        names = [f.name for f in files]
        assert names == ["uav_00.csv", "events.csv", "metrics.json", "manifest.json", "timing.json"]
        header = (out / "uav_00.csv").read_text().splitlines()[0]
        assert header == "tick,t_s,p_north_m,p_east_m,height_m,chi_rad,gamma_rad,phi_rad,n_lf,v_g_mps,theta_s,cursor"
        assert len((out / "uav_00.csv").read_text().splitlines()) == 81

    def test_float_cells_round_trip_exactly(self, make_scenario_file, tmp_path):
        scenario = load_scenario(make_scenario_file())
        log, metrics = run(scenario)
        out = tmp_path / "out"
        export(log, metrics, out)
        lines = (out / "uav_00.csv").read_text().splitlines()
        last = lines[-1].split(",")
        final_record = dict(zip(LOG_COLUMNS, log.data[-1, 0].tolist()))
        assert float(last[2]) == final_record["north"]
        assert float(last[10]) == final_record["theta"]

    def test_manifest_ties_run_to_scenario(self, make_scenario_file, tmp_path):
        import flocksim

        path = make_scenario_file()
        scenario = load_scenario(path)
        log, metrics = run(scenario)
        out = tmp_path / "out"
        export(log, metrics, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario_sha256"] == scenario.source_sha256
        dem_bytes = (path.parent / MINI_SCENARIO["dem_file"]).read_bytes()
        assert manifest["dem_sha256"] == hashlib.sha256(dem_bytes).hexdigest()
        assert manifest["master_seed"] == 11
        assert manifest["n_uavs"] == 1
        assert manifest["n_ticks"] == 80
        assert manifest["software_version"] == flocksim.__version__

    def test_manifest_names_the_terrain_it_flew_over(self, scenario_dir, tmp_path):
        # One elevation token edited in place: the manifests differ in the
        # DEM hash alone, the scenario file and its path being unchanged.
        for name in ("reference_4uav.yaml", "terrain.dem"):
            shutil.copy(Path(scenario_dir) / name, tmp_path / name)

        def manifest(out):
            export(*run(load_scenario(tmp_path / "reference_4uav.yaml")), out)
            return json.loads((out / "manifest.json").read_text())

        a = manifest(tmp_path / "a")
        dem = tmp_path / "terrain.dem"
        lines = dem.read_text().splitlines(keepends=True)
        first, rest = lines[5].split(" ", 1)  # the first elevation, after the five header lines
        lines[5] = f"{float(first) + 1.0!r} {rest}"
        dem.write_text("".join(lines))
        b = manifest(tmp_path / "b")
        assert {key for key in a if a[key] != b[key]} == {"dem_sha256"}
        assert a.keys() == b.keys()

    def test_metrics_json_matches_as_dict(self, make_scenario_file, tmp_path):
        scenario = load_scenario(make_scenario_file())
        log, metrics = run(scenario)
        out = tmp_path / "out"
        export(log, metrics, out)
        loaded = json.loads((out / "metrics.json").read_text())
        assert loaded == metrics.as_dict()

    def test_replan_event_row_is_parseable(self, make_scenario_file, tmp_path):
        scenario = load_scenario(
            make_scenario_file(obstacle=dict(ACTIVE_OBSTACLE), replan={"delta_h_m": 200.0})
        )
        log, metrics = run(scenario)
        out = tmp_path / "out"
        export(log, metrics, out)
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[0] == "event,tick,t_s,uav_id,detail"
        replan_rows = [l for l in lines[1:] if l.startswith("replan,")]
        assert replan_rows
        import csv as csv_mod
        import io

        row = next(csv_mod.reader(io.StringIO(replan_rows[0])))
        detail = json.loads(row[4])
        assert set(detail) == {"overhead_s", "waypoints"}
        assert detail["waypoints"]
        assert detail["overhead_s"] > 0.0

    def test_premise_violation_rows_come_from_the_monitor_columns(self, scenario_dir, tmp_path):
        # one row per vehicle-tick where a premise failed, in (tick, uav)
        # order, with the three flags as JSON booleans
        scenario = load_scenario(f"{scenario_dir}/reference_4uav.yaml")
        log, metrics = run(scenario)
        export(log, metrics, tmp_path)
        rows = [r for r in csv.reader((tmp_path / "events.csv").read_text().splitlines()[1:])
                if r[0] == "premise_violation"]
        col = {name: LOG_COLUMNS.index(name) for name in LOG_COLUMNS}
        gp = scenario.guidance
        want = []
        for tick, uavs in enumerate(log.data.tolist()):
            for uav_id, v in enumerate(uavs):
                lat_ok, lon_ok = abs(v[col["eta_lat"]]) <= gp.delta_lat, abs(v[col["eta_lon"]]) <= gp.delta_lon
                assert (v[col["lat_ok"]], v[col["lon_ok"]]) == (float(lat_ok), float(lon_ok))
                sign_ok = v[col["sign_ok"]] == 1.0
                if not (lat_ok and lon_ok and sign_ok):
                    detail = {"lat_ok": lat_ok, "lon_ok": lon_ok, "sign_ok": sign_ok}
                    want.append(["premise_violation", str(tick), repr(tick * log.dt), str(uav_id),
                                 json.dumps(detail, sort_keys=True)])
        assert rows == want
        assert len(want) == metrics.n_premise_violations == np.count_nonzero(log.premise_violations()) > 0
        assert any('"lat_ok": false' in r[4] for r in rows)

    def test_reference_run_file_set(self, scenario_dir, tmp_path):
        scenario = load_scenario(f"{scenario_dir}/reference_4uav.yaml")
        log, metrics = run(scenario)
        out = tmp_path / "out"
        files = export(log, metrics, out)
        names = [f.name for f in files]
        assert names == [
            "uav_00.csv",
            "uav_01.csv",
            "uav_02.csv",
            "uav_03.csv",
            "events.csv",
            "metrics.json",
            "manifest.json",
            "timing.json",
        ]

    def test_re_export_is_byte_identical(self, make_scenario_file, tmp_path):
        scenario = load_scenario(make_scenario_file())
        log, metrics = run(scenario)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        export(log, metrics, out_a)
        export(log, metrics, out_b)
        for name in ("uav_00.csv", "events.csv", "metrics.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


MINI_INITIAL = {
    "north_m": -600.0,
    "east_m": 0.0,
    "height_m": 110.0,
    "chi_rad": 0.0,
    "gamma_rad": 0.0,
    "psi_rad": 0.0,
    "v_g_mps": 13.5,
    "phi_rad": 0.0,
    "n_lf": 1.0,
}
