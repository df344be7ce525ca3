"""Closed-loop mission runs, the output check and the metrics they yield.

One client in one process runs missions back to back: each mission is
``load_scenario`` + ``run`` + ``export``, exactly what one ``flocksim run``
costs. Untraced runs sweep the master seed across missions and give the
end-to-end metrics. Traced runs alternate untraced and traced missions of
one master seed and give the per-layer metrics, whose counts must then
repeat exactly from one traced mission to the next.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from flocksim import harness

import calibration
import tracing
import workloads

WARMUP_SCENARIO = "scenarios/reference_4uav.yaml"
SETUP_REPEATS = 9


@dataclass
class Mission:
    master_seed: int
    n_vehicles: int
    n_ticks: int
    load_s: float
    run_s: float
    export_s: float
    metrics: Any
    out_dir: Path
    # Host slowdown measured around the mission; see calibration.py.
    host_factor: float = 1.0

    @property
    def mission_s(self) -> float:
        return (self.load_s + self.run_s + self.export_s) / self.host_factor

    @property
    def vehicle_ticks_per_s(self) -> float:
        return self.n_vehicles * self.n_ticks * self.host_factor / self.run_s

    @property
    def replan_success_ratio(self) -> float:
        """Replan events / attempts; 1.0 without attempts, as ``replanner.success_ratio``."""
        attempts = self.metrics.n_replan_events + self.metrics.n_replan_failures
        return self.metrics.n_replan_events / attempts if attempts else 1.0


def run_mission(
    path: Path, master_seed: int, out_dir: Path, clock: Callable[[], float] = time.perf_counter
) -> Mission:
    """Load, run and export one mission, each phase timed by ``clock``."""
    t0 = clock()
    scenario = harness.load_scenario(path)
    t1 = clock()
    scenario.master_seed = master_seed
    log, metrics = harness.run(scenario)
    t2 = clock()
    harness.export(log, metrics, out_dir)
    t3 = clock()
    return Mission(master_seed, log.n_uavs, log.n_ticks, t1 - t0, t2 - t1, t3 - t2, metrics, out_dir)


def check_outputs(mission: Mission) -> list[str]:
    """Problems with a mission's exports: trajectory lengths, finite metrics."""
    problems = []
    for i in range(mission.n_vehicles):
        fp = mission.out_dir / f"uav_{i:02d}.csv"
        rows = len(fp.read_text().splitlines()) - 1 if fp.is_file() else -1
        if rows != mission.n_ticks:
            problems.append(f"{fp.name}: {rows} rows, expected {mission.n_ticks}")
    values = json.loads((mission.out_dir / "metrics.json").read_text())
    for key, value in values.items():
        for x in value if isinstance(value, list) else [value]:
            if not math.isfinite(x):
                problems.append(f"metrics.json {key}: {x} is not finite")
    return problems


def deterministic_files(out_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name not in harness.WALL_CLOCK_FILES
    }


def export_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in sorted(files.items()):
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def replay_mismatch(a: Path, b: Path) -> list[str]:
    """Deterministic export files that are missing on one side or differ."""
    fa, fb = deterministic_files(a), deterministic_files(b)
    return sorted(set(fa) ^ set(fb)) + sorted(k for k in set(fa) & set(fb) if fa[k] != fb[k])


def simulated_counts(mission: Mission, links_admitted: int) -> dict[str, int]:
    m = mission.metrics
    return {
        "replan_events": m.n_replan_events,
        "replan_failures": m.n_replan_failures,
        "premise_violations": m.n_premise_violations,
        "links_admitted": links_admitted,
    }


def spread(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples above it, and n."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    q = math.floor(100.0 * (n - 10) / n) if n > 10 else 0
    if q >= 50:
        text += f", p{q} {statistics.quantiles(values, n=100, method='inclusive')[q - 1]:.6g}"
    return text + f", n={n}"


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        # Relative to the checkout root, so the scenario path recorded in
        # the export manifest, and with it the export digest, is the same
        # in every checkout.
        self.out = Path(".bench_out")
        self.tmp = self.out / f"tmp-{workload}"
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.setup_samples: list[float] = []

    def _mission(
        self, path: Path, master_seed: int, out_dir: Path, clock: Callable[[], float] = time.perf_counter
    ) -> Mission | None:
        """Run and check one mission; a failure is counted and reported, not raised."""
        self.attempted += 1
        try:
            mission = run_mission(path, master_seed, out_dir, clock)
            problems = check_outputs(mission)
        except Exception:
            self.failed += 1
            self.problems.append(f"mission seed {master_seed} raised")
            traceback.print_exc(file=sys.stderr)
            return None
        if problems:
            self.failed += 1
            self.problems.extend(f"mission seed {master_seed}: {p}" for p in problems)
            return None
        return mission

    def _scenario(self, k: int) -> Path:
        return workloads.prepare(self.workload, self.seed, k, self.tmp / "scenario")

    def _prepare(self) -> Path:
        """Warm up and time set-up; returns mission 0's scenario."""
        shutil.rmtree(self.tmp, ignore_errors=True)
        path = self._scenario(0)
        # Warm imports, caches and lazily built state with one discarded mission.
        run_mission(Path(WARMUP_SCENARIO), 0, self.tmp / "warmup")
        before = calibration.host_factor()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            harness.load_scenario(path)
            load_s = time.perf_counter() - t0
            after = calibration.host_factor()
            self.setup_samples.append(2.0 * load_s / (before + after))
            before = after
        return path

    def _replay(self, first: Mission, out_dir: Path) -> int:
        """Replay mission 0 traced and byte-compare the exports; returns the links admitted."""
        path = self._scenario(0)
        tracer = tracing.Tracer()
        tracer.mission = 0
        with tracer.installed():
            replay = run_mission(path, first.master_seed, out_dir)
        _, links = tracer.take()
        diff = replay_mismatch(first.out_dir, replay.out_dir)
        if diff:
            self.failed += 1
            self.problems.append(f"traced replay of seed {first.master_seed} differs in {', '.join(diff)}")
        return links

    def end_to_end(self) -> dict[str, float]:
        try:
            self._prepare()
            missions: list[Mission] = []
            deadline = time.perf_counter() + self.seconds
            k = 0
            host = calibration.HostClock()
            with host.ticking():
                host.sample()
                while k == 0 or time.perf_counter() < deadline:
                    before = len(host.samples) - 1
                    out_dir = self.tmp / ("m0" if k == 0 else "m")
                    mission = self._mission(self._scenario(k), workloads.mission_seed(self.seed, k), out_dir, host.now)
                    host.sample()
                    if mission is not None:
                        mission.host_factor = statistics.fmean(host.samples[before:])
                        missions.append(mission)
                    k += 1
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if not missions:
                return {}
            first = missions[0]
            if first.out_dir.name != "m0":
                self.problems.append("mission 0 failed; nothing to replay")
                return {}
            digest = export_digest(deterministic_files(first.out_dir))
            links = self._replay(first, self.tmp / "replay")
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

        vts = [m.vehicle_ticks_per_s for m in missions]
        mission_s = [m.mission_s for m in missions]
        self.setup_samples += [m.load_s / m.host_factor for m in missions]
        factors = [m.host_factor for m in missions]
        events = sum(m.metrics.n_replan_events for m in missions)
        failures = sum(m.metrics.n_replan_failures for m in missions)
        replan_success = [m.replan_success_ratio for m in missions]
        print(f"workload {self.workload} seed {self.seed}: {len(missions)} missions of "
              f"{first.n_vehicles} vehicles x {first.n_ticks} ticks, master seed swept per mission")
        print(f"  vehicle_ticks_per_s  {spread(vts)} [1/s]")
        print(f"  mission_s            {spread(mission_s)} [s]")
        print(f"  setup_s              {spread(self.setup_samples)} [s]")
        print(f"  peak_rss_mb          {peak_rss_mb:.1f} [MB]")
        print(f"  host factor          {spread(factors)}; uncalibrated vehicle_ticks_per_s median "
              f"{statistics.median(v / f for v, f in zip(vts, factors)):.6g}, mission_s median "
              f"{statistics.median(v * f for v, f in zip(mission_s, factors)):.6g}")
        passed = self.attempted - self.failed
        print(f"  mission_success_ratio {passed / self.attempted:.4g} [ratio] "
              f"({passed} of {self.attempted} missions attempted passed; mission_fail_ratio "
              f"{self.failed / self.attempted:.4g})")
        print(f"  replan_success_ratio {statistics.fmean(replan_success):.4g} [ratio] (mean over "
              f"{len(missions)} missions of events / replan attempts, 1 without attempts)")
        if events + failures:
            print(f"  replan_fail_ratio    {failures / (events + failures):.4g} [ratio] "
                  f"({failures} failures of {events + failures} replan attempts, pooled over the run)")
        else:
            print("  replan_fail_ratio    n/a [ratio] (no replan attempts)")
        print(f"  export sha256 (master seed {first.master_seed}): {digest}")
        print(f"  simulated counts (master seed {first.master_seed}): "
              + json.dumps(simulated_counts(first, links), sort_keys=True))
        return {
            "vehicle_ticks_per_s": statistics.median(vts),
            "mission_s": statistics.median(mission_s),
            "setup_s": statistics.median(self.setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "mission_success_ratio": passed / self.attempted,
            "replan_success_ratio": statistics.fmean(replan_success),
        }

    def per_layer(self) -> dict[str, float]:
        tracer = tracing.Tracer()
        master_seed = workloads.mission_seed(self.seed, 0)
        untraced: list[Mission] = []
        traced: list[tuple[Mission, dict[str, float]]] = []
        first_spans: list[list[Any]] = []
        try:
            path = self._prepare()
            deadline = time.perf_counter() + self.seconds
            k = 0
            while not (untraced and traced) or time.perf_counter() < deadline:
                if k % 2 == 0:
                    mission = self._mission(path, master_seed, self.tmp / "untraced")
                    if mission is None:
                        break
                    untraced.append(mission)
                else:
                    tracer.mission = k
                    with tracer.installed():
                        mission = self._mission(path, master_seed, self.tmp / "traced")
                    spans, links = tracer.take()
                    if mission is None:
                        break
                    diff = replay_mismatch(untraced[0].out_dir, mission.out_dir)
                    if diff:
                        self.failed += 1
                        self.problems.append(f"traced mission {k} differs from untraced in {', '.join(diff)}")
                    if not first_spans:
                        first_spans = spans
                    values = layer_values(tracing.summarize(spans), links)
                    values["harness.export.bytes"] = sum(map(len, deterministic_files(mission.out_dir).values()))
                    traced.append((mission, values))
                k += 1
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)
        if not (untraced and traced):
            return {}

        counts = [name for name, v in traced[0][1].items() if not name.endswith("_s")]
        for mission, values in traced[1:]:
            moved = [c for c in counts if values[c] != traced[0][1][c]]
            if moved:
                self.problems.append(f"counts differ between identical traced missions: {', '.join(moved)}")
        out = {name: statistics.median(v[name] for _, v in traced) for name in traced[0][1]}
        traced_vts = statistics.median(m.vehicle_ticks_per_s for m, _ in traced)
        untraced_vts = statistics.median(m.vehicle_ticks_per_s for m in untraced)
        out["trace.overhead_ratio"] = traced_vts / untraced_vts

        self.out.mkdir(exist_ok=True)
        spans_path = self.out / f"spans-{self.workload}-{self.seed}.csv"
        tracing.write_spans(first_spans, spans_path)
        mission_s = statistics.median(m.mission_s for m, _ in traced)
        self_s = {layer: out[f"{layer}.self_s"] for layer in tracing.LAYERS}
        # Inside run() the harness is only the tick loop and compute_metrics.
        in_run = dict(self_s, harness=out["harness.run.self_s"] + out["harness.compute_metrics.self_s"])
        shares = {layer: v / mission_s for layer, v in self_s.items()}
        run_shares = {layer: v / out["harness.run.busy_s"] for layer, v in in_run.items()}
        print(f"workload {self.workload} seed {self.seed}: traced {len(traced)} and untraced "
              f"{len(untraced)} missions of master seed {master_seed}")
        print(f"  traced mission_s median {mission_s:.6g} s; traced / untraced vehicle_ticks_per_s "
              f"{out['trace.overhead_ratio']:.4f}")
        for label, share in (("a traced mission", shares), ("run()", run_shares)):
            print(f"  self-time share of {label}: "
                  + ", ".join(f"{layer} {100 * s:.1f}%" for layer, s in sorted(share.items(), key=lambda x: -x[1]))
                  + f"; leading: {max(share, key=share.get)}")
        if tracer.absent:
            print(f"  absent, not traced: {', '.join(tracer.absent)}")
        print(f"  simulated counts (master seed {master_seed}): "
              + json.dumps(simulated_counts(traced[0][0], out["network.links_admitted"]), sort_keys=True))
        print(f"  spans of the first traced mission: {spans_path}")
        return out


def layer_values(summary: dict[str, dict[str, float]], links_admitted: int) -> dict[str, float]:
    """One traced mission's per-layer values, keyed by metric name."""
    out: dict[str, float] = {}
    for name, row in summary.items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(row["self_s"] for name, row in summary.items() if name.startswith(layer + "."))
    out["network.links_admitted"] = links_admitted
    replans = summary["replanner.replan"]
    out["replanner.success_ratio"] = (
        1.0 - replans["failures"] / replans["calls"] if replans["calls"] else 1.0
    )
    return out


def result_line(run: Run, values: dict[str, float], specs: list[dict[str, str]]) -> dict[str, Any]:
    """The JSON result: every metric named in ``specs``, with its unit."""
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs if s["name"] in values}
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        run.problems.append(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
