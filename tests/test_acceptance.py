"""Acceptance gate: one test per shipped behavioral guarantee.

Each check prints a single PASS/FAIL line (visible under ``pytest -s``)
and asserts the same condition, so the file doubles as a release
checklist.  Property bands and runtime budgets live here; the per-module
suites hold the fine-grained equation-level checks.
"""

import dataclasses
import math
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import grid_cost_oracle, two_leg_cost

from flocksim import (
    AutopilotParams,
    DemGrid,
    GuidanceParams,
    LOG_COLUMNS,
    Obstacle,
    Point3,
    ReplanParams,
    UavLimits,
    UavState,
    actuator_bounds,
    convergence_conditions,
    dem_elevation,
    distance3,
    fleet_arrays,
    guidance_commands,
    load_scenario,
    look_ahead_angles,
    reference_angles,
    replan,
    run,
    segment_obstructed,
    step_autopilot,
    step_kinematics,
)
from flocksim.cli import main


def report(check: str, ok: bool, detail: str) -> None:
    print(f"{check}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{check}: {detail}"


@pytest.fixture(scope="module")
def reference_run(scenario_dir):
    scenario = load_scenario(f"{scenario_dir}/reference_4uav.yaml")
    return scenario, *run(scenario)


def test_01_guidance_convergence_without_wind():
    # one vehicle, no wind: 500 m slant range to a static waypoint with a
    # 200 m offset normal to the initial velocity, premises holding at t=0;
    # the range must fall below 5 m, stay there, and shrink on every tick
    # the premise monitor reports true
    limits = UavLimits()
    gp = GuidanceParams(k_chi=8.8844, k_gamma=8.8844, delta_lat=0.5, delta_lon=0.5)
    ap = AutopilotParams()
    wp = Point3(458.2575694955841, 160.0, 120.0)
    state = UavState(position=Point3(0.0, 0.0, 0.0), chi=0.0, gamma=0.0, psi=0.0, v_g=13.5)

    assert distance3(state.position, wp) == pytest.approx(500.0, abs=1e-9)
    rel = np.subtract(wp, state.position)
    mu = state.velocity_unit()
    perp = rel - float(rel @ mu) * mu
    assert float(np.linalg.norm(perp)) == pytest.approx(200.0, abs=1e-9)

    dt = 0.05
    t0 = time.perf_counter()
    errs: list[float] = []
    oks: list[bool] = []
    y, act = fleet_arrays([state])
    lo, hi = actuator_bounds([limits])
    target_height = np.array([wp.height])
    for _ in range(4000):
        north, east, height, chi, gamma, _psi = y[:, 0].tolist()
        state = UavState(Point3(north, east, height), chi, gamma, _psi, v_g=float(act[2, 0]))
        rel = np.subtract(wp, state.position)
        if float(rel @ state.velocity_unit()) < 0.0:
            break  # waypoint passed: the pursuit is over
        chi_c, gamma_c = reference_angles(rel[:, None])
        eta_lat, eta_lon = look_ahead_angles(y[3], y[4], chi_c, gamma_c)
        lat_ok, lon_ok, sign_ok = convergence_conditions(eta_lat, eta_lon, y, target_height, gp)
        errs.append(distance3(state.position, wp))
        oks.append(bool(lat_ok[0] and lon_ok[0] and sign_ok[0]))
        phi_c, n_lf_c = guidance_commands(eta_lat, eta_lon, y, act, gp, lo, hi)
        act = step_autopilot(act, np.array([phi_c, n_lf_c, [13.5]]), lo, hi, dt, ap)
        y = step_kinematics(y, act, np.zeros((2, 1)), dt, ap)
    else:
        raise AssertionError("vehicle never passed the waypoint")
    wall = time.perf_counter() - t0

    assert oks[0], "premises must hold at t=0 by construction"
    below = np.nonzero(np.array(errs) < 5.0)[0]
    converged = below.size > 0 and all(e < 5.0 for e in errs[below[0] :])
    monotone = all(
        errs[k + 1] <= errs[k] + 1e-9 for k in range(len(errs) - 1) if oks[k]
    )
    ok = converged and monotone and wall < 1.0
    report(
        "check 1 (guidance convergence, no wind)",
        ok,
        f"error 500 m -> {min(errs):.2f} m, below 5 m from tick {below[0] if below.size else -1}"
        f" of {len(errs)}, monotone on premise-true ticks: {monotone}, wall {wall:.2f} s (< 1 s)",
    )


def test_02_consensus_agreement_reference_fleet(reference_run):
    scenario, log, metrics = reference_run
    thetas0 = log.thetas()[0]
    spread0 = float(thetas0.max() - thetas0.min())
    assert spread0 >= 60.0, f"scenario must start with >= 60 s spread, got {spread0:.1f}"
    ok = metrics.md_final_s < 15.0 and log.wall_s < 10.0
    report(
        "check 2 (consensus agreement)",
        ok,
        f"initial spread {spread0:.1f} s -> final-tick max deviation {metrics.md_final_s:.2f} s"
        f" (< 15 s), wall {log.wall_s:.2f} s (< 10 s for {scenario.duration:.0f} sim-s)",
    )


def test_03_consensus_under_link_dropout(scenario_dir):
    scenario = load_scenario(f"{scenario_dir}/reference_4uav_dropout.yaml")
    assert scenario.comm.dropout_schedule, "dropout scenario must carry a schedule"
    log, metrics = run(scenario)
    ok = metrics.md_final_s < 20.0
    report(
        "check 3 (consensus under dropout)",
        ok,
        f"{len(scenario.comm.dropout_schedule)} dropout windows -> final-tick max deviation"
        f" {metrics.md_final_s:.2f} s (< 20 s)",
    )


def test_04_replanning_geometry_and_cost_quality(reference_run):
    scenario, log, metrics = reference_run
    assert log.replan_events, "the obstacle activation must force at least one replan"

    def record(tick, uav_id):
        return SimpleNamespace(**dict(zip(LOG_COLUMNS, log.data[tick, uav_id].tolist())))

    # every spliced leg, detection point through the original waypoint,
    # must clear the obstacle at the time it was planned
    wp_lists = {spec.uav_id: [Point3(*wp) for wp in spec.waypoints.tolist()] for spec in scenario.uavs}
    first_contexts = {}
    for event in log.replan_events:
        r = record(event.tick, event.uav_id)
        cursor = int(r.cursor)
        pos = Point3(r.north, r.east, r.height)
        before = wp_lists[event.uav_id]
        original = before[cursor]
        legs = [pos, *event.waypoints, original]
        now = event.tick * log.dt
        for a, b in zip(legs, legs[1:]):
            assert not segment_obstructed(a, b, scenario.obstacle, now), f"spliced leg {a} -> {b} obstructed at t={now}"
        if event.uav_id not in first_contexts:
            first_contexts[event.uav_id] = (r, original)
        wp_lists[event.uav_id] = (
            before[:cursor] + list(event.waypoints) + before[cursor:]
        )

    # and the flown trajectories never cross the active obstacle
    for spec in scenario.uavs:
        pts = log.positions(spec.uav_id)
        for k in range(len(pts) - 1):
            a = Point3(*pts[k])
            b = Point3(*pts[k + 1])
            assert not segment_obstructed(a, b, scenario.obstacle, k * scenario.dt)

    # cost quality: the first event's chosen waypoint must sit within 2%
    # of a dense deterministic grid search over the same region
    first = log.replan_events[0]
    r, original = first_contexts[first.uav_id]
    state = UavState(
        position=Point3(r.north, r.east, r.height),
        chi=r.chi, gamma=r.gamma, psi=r.psi, v_g=r.v_g, phi=r.phi, n_lf=r.n_lf,
    )
    chosen_cost = two_leg_cost(state, first.waypoints[0], original)
    t0 = time.perf_counter()
    now = first.tick * log.dt
    oracle_cost = grid_cost_oracle(state, original, scenario.obstacle, scenario.dem, now, scenario.replan)
    oracle_wall = time.perf_counter() - t0
    gap = abs(chosen_cost - oracle_cost) / oracle_cost
    ok = gap <= 0.02 and oracle_wall < 60.0
    report(
        "check 4 (replanning geometry and cost quality)",
        ok,
        f"{len(log.replan_events)} replans, all spliced legs clear; minimizer cost"
        f" {chosen_cost:.1f} m vs 1e5-point grid {oracle_cost:.1f} m"
        f" ({100 * gap:.2f}% <= 2%), oracle wall {oracle_wall:.1f} s (< 60 s)",
    )


def test_05_replanning_wall_clock_budget(reference_run):
    scenario, log, metrics = reference_run
    grid = DemGrid(
        origin_north=-2000.0, origin_east=-2000.0, cell_size=500.0,
        elevation=np.zeros((9, 9)),
    )
    uav = UavState(position=Point3(0.0, 0.0, 50.0), chi=0.0, gamma=0.0, psi=0.0, v_g=13.5)
    obstacle = Obstacle(450.0, 20.0, 60.0, 0.0, 200.0)
    t0 = time.perf_counter()
    params = ReplanParams(k_samples=2000, delta_r=300.0, delta_h=100.0, delta_angle=math.pi / 2)
    detour = replan(uav, Point3(900.0, 0.0, 50.0), obstacle, grid, params, rng_seed=77, now=80.0)
    wall_ms = (time.perf_counter() - t0) * 1e3
    overhead_ok = math.isfinite(metrics.detour_overhead_s) and metrics.detour_overhead_s >= 0.0
    ok = len(detour) > 0 and wall_ms < 100.0 and overhead_ok
    report(
        "check 5 (replanning responsiveness)",
        ok,
        f"one K=2000 replan in {wall_ms:.1f} ms (< 100 ms); reference-run detour overhead"
        f" {metrics.detour_overhead_s:.2f} s (finite)",
    )


def test_06_accuracy_under_wind_three_seeds(scenario_dir):
    results = []
    ok = True
    for seed in (101, 202, 303):
        scenario = load_scenario(f"{scenario_dir}/reference_4uav.yaml")
        scenario.master_seed = seed
        log, metrics = run(scenario)
        results.append(f"seed {seed}: {metrics.ae_mean_m:.2f} m in {log.wall_s:.1f} s")
        ok = ok and metrics.ae_mean_m < 15.0 and log.wall_s < 30.0
    report(
        "check 6 (accuracy under wind)",
        ok,
        "mean closest-approach error " + "; ".join(results) + " (each < 15 m, < 30 s)",
    )


def test_07_equation_level_suites():
    # the per-module suites carry every worked example against its stated
    # oracle; run them in a clean interpreter so this line certifies them
    suites = [
        "tests/test_geo.py",
        "tests/test_dynamics.py",
        "tests/test_guidance.py",
        "tests/test_replanner.py",
        "tests/test_network.py",
        "tests/test_coordination.py",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *suites],
        capture_output=True,
        text=True,
    )
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "<no output>"
    report(
        "check 7 (equation-level unit suites)",
        proc.returncode == 0,
        f"{len(suites)} suites: {tail}",
    )


def test_08_replay_determinism(scenario_dir, capsys):
    code = main(["replay-check", f"{scenario_dir}/reference_4uav.yaml"])
    out = capsys.readouterr().out.strip()
    with capsys.disabled():
        report("check 8 (replay determinism)", code == 0, out or "no output")


def test_09_fleet_size_sweep(scenario_dir):
    lines = []
    ok = True
    for n in (4, 7, 10, 13):
        scenario = load_scenario(f"{scenario_dir}/fleet_{n:02d}.yaml")
        log, metrics = run(scenario)
        assert log.n_uavs == n
        final_cursor = log.data[-1, :, LOG_COLUMNS.index("cursor")]
        for spec in scenario.uavs:
            assert final_cursor[spec.uav_id] == len(spec.waypoints) - 1, (
                f"fleet {n}: uav {spec.uav_id} never reached its final waypoint"
            )
            dists = np.linalg.norm(
                log.positions(spec.uav_id) - scenario.target, axis=1
            )
            assert float(dists.min()) <= 40.0, (
                f"fleet {n}: uav {spec.uav_id} never entered the target's acceptance radius"
            )
        lines.append(f"N={n}: AE {metrics.ae_mean_m:.2f} m, MD {metrics.md_max_s:.2f} s")
        ok = ok and metrics.ae_mean_m < 15.0 and metrics.md_max_s < 25.0
    report(
        "check 9 (fleet-size sweep)",
        ok,
        "; ".join(lines) + " (AE < 15 m, MD < 25 s at every N)",
    )


# The calm reference case of the two step gates: reference_4uav without its
# obstacle, gusts off (ambient wind kept).  "No links" sets r_com to 1 mm, so
# no vehicle hears another.
CALM_DTS = (0.2, 0.1, 0.05)
NO_LINKS_R_COM = 0.001


@pytest.fixture(scope="module")
def calm_runs(scenario_dir):
    """(dt, r_com or None) -> (scenario, log) of the calm reference case, each run once."""
    base = load_scenario(f"{scenario_dir}/reference_4uav.yaml")
    wind = dataclasses.replace(base.wind, sigma_u=0.0, sigma_v=0.0, sigma_w=0.0)
    runs = {}

    def get(dt, r_com=None):
        if (dt, r_com) not in runs:
            comm = base.comm if r_com is None else dataclasses.replace(base.comm, r_com=r_com)
            scenario = dataclasses.replace(base, obstacle=None, dt=dt, wind=wind, comm=comm)
            runs[dt, r_com] = scenario, run(scenario)[0]
        return runs[dt, r_com]

    return get


def arrival_spread(scenario, log):
    """Spread (s) of each vehicle's first tick within the acceptance radius of the target."""
    arrivals = []
    for i in range(log.n_uavs):
        dist = np.linalg.norm(log.positions(i) - np.asarray(scenario.target), axis=1)
        inside = np.flatnonzero(dist <= scenario.guidance.acceptance_radius)
        assert inside.size, f"dt {log.dt}: uav {i} never entered the target's acceptance radius"
        arrivals.append(inside[0] * log.dt)
    return max(arrivals) - min(arrivals)


def test_10_consensus_synchronises_arrival_at_a_fine_step(calm_runs):
    linked = arrival_spread(*calm_runs(0.2))
    alone = arrival_spread(*calm_runs(0.2, NO_LINKS_R_COM))
    ok = linked <= 0.2 * alone
    report(
        "check 10 (consensus ablation at dt 0.2 s)",
        ok,
        f"arrival spread {linked:.1f} s with links vs {alone:.1f} s without ({linked / alone:.3f} <= 0.2)",
    )


def test_11_consensus_does_not_depend_on_the_step(calm_runs):
    runs = [calm_runs(dt) for dt in CALM_DTS]
    spreads = [arrival_spread(*r) for r in runs]
    # largest position gap between dt and dt/2 at the whole seconds 0..120
    gaps = []
    for (_, coarse), (_, fine) in zip(runs, runs[1:]):
        seconds = np.arange(121)
        a = coarse.data[seconds * round(1.0 / coarse.dt), :, :3]
        b = fine.data[seconds * round(1.0 / fine.dt), :, :3]
        gaps.append(float(np.linalg.norm(a - b, axis=2).max()))
    ok = max(spreads) - min(spreads) <= 2.0 and gaps[0] >= 1.6 * gaps[1]
    report(
        "check 11 (step refinement)",
        ok,
        "arrival spread " + " / ".join(f"{s:.1f}" for s in spreads) + f" s at dt {CALM_DTS} s (within 2 s);"
        f" 120 s position gap {gaps[0]:.3f} -> {gaps[1]:.3f} m per halving ({gaps[0] / gaps[1]:.2f}x >= 1.6x)",
    )


# Check 12: reference_4uav as bundled (gusts and obstacle) at dt 0.2 s, over
# gust realisations.  The no-link half runs on fewer seeds to keep the
# check's cost down; its median is the yardstick of the linked spreads.
# fleet_13 joins for safety alone: its paths are nearly synchronous, so its
# spread says nothing about consensus.
GUST_SEEDS = tuple(range(1, 11))
NO_LINK_SEEDS = GUST_SEEDS[:3]


def min_height_above_terrain(scenario, log):
    return min(
        height - dem_elevation(scenario.dem, north, east)
        for i in range(log.n_uavs)
        for north, east, height in log.positions(i).tolist()
    )


def test_12_robust_arrival_over_gust_realisations(scenario_dir):
    base = load_scenario(f"{scenario_dir}/reference_4uav.yaml")
    clearance = base.replan.clearance
    alone = []
    for seed in NO_LINK_SEEDS:
        comm = dataclasses.replace(base.comm, r_com=NO_LINKS_R_COM)
        scenario = dataclasses.replace(base, dt=0.2, master_seed=seed, comm=comm)
        alone.append(arrival_spread(scenario, run(scenario)[0]))
    rows = []
    for seed in GUST_SEEDS:
        scenario = dataclasses.replace(base, dt=0.2, master_seed=seed)
        log = run(scenario)[0]
        rows.append((seed, arrival_spread(scenario, log), min_height_above_terrain(scenario, log)))
        print(f"  seed {seed:2d}: arrival spread {rows[-1][1]:4.1f} s, min height above terrain {rows[-1][2]:5.1f} m")
    fleet = dataclasses.replace(load_scenario(f"{scenario_dir}/fleet_13.yaml"), dt=0.2)
    fleet_floor = min_height_above_terrain(fleet, run(fleet)[0])
    print(f"  fleet_13: min height above terrain {fleet_floor:5.1f} m (clearance {fleet.replan.clearance:g} m)")
    worst_spread = max(spread for _, spread, _ in rows)
    lowest = min(floor for _, _, floor in rows)
    median_alone = float(np.median(alone))
    ok = (worst_spread <= 5.0 and worst_spread <= 0.2 * median_alone and lowest >= clearance
          and fleet_floor >= fleet.replan.clearance)
    report(
        "check 12 (robust arrival over gust realisations at dt 0.2 s)",
        ok,
        f"reference_4uav seeds {GUST_SEEDS[0]}-{GUST_SEEDS[-1]}: every vehicle arrives; worst arrival spread "
        f"{worst_spread:.1f} s (<= 5 s and <= 0.2 x {median_alone:.1f} s, the no-link median of seeds "
        f"{NO_LINK_SEEDS}); min height above terrain {lowest:.1f} m (>= {clearance:g} m clearance); "
        f"fleet_13 {fleet_floor:.1f} m (>= {fleet.replan.clearance:g} m)",
    )
