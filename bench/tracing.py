"""Spans around the simulator's layer boundaries, recorded from outside.

The tracer replaces module-global names that ``flocksim.harness`` and
``flocksim.replanner`` look up at call time (plus ``WindModel.sample``)
with wrappers that record a span per call: name, start, end, parent span
and mission id. Nothing in the simulator changes; restoring the originals
removes every wrapper. A name that the simulator no longer has is reported
as absent and simply not traced.

Spans are kept in memory. ``summarize`` folds one mission's spans into
per-name calls, busy time, self time (busy time minus the busy time of
direct traced children) and failures (calls that raised).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from typing import Any, Callable, Iterator

LAYERS = ("harness", "network", "dynamics", "guidance", "coordination", "geo", "replanner")

# (span name, module, attribute path). A span name's first component is its
# layer. The same span name may be bound in two modules: both are traced.
TARGETS = (
    ("harness.load_scenario", "flocksim.harness", "load_scenario"),
    ("harness.run", "flocksim.harness", "run"),
    ("harness.compute_metrics", "flocksim.harness", "compute_metrics"),
    ("harness.export", "flocksim.harness", "export"),
    ("network.build_topology", "flocksim.harness", "build_topology"),
    ("network.deliver", "flocksim.harness", "deliver"),
    ("dynamics.step_autopilot", "flocksim.harness", "step_autopilot"),
    ("dynamics.step_kinematics", "flocksim.harness", "step_kinematics"),
    ("dynamics.wind_sample", "flocksim.dynamics", "WindModel.sample"),
    ("guidance.advance_virtual_target", "flocksim.harness", "advance_virtual_target"),
    ("guidance.reference_angles", "flocksim.harness", "reference_angles"),
    ("guidance.look_ahead_angles", "flocksim.harness", "look_ahead_angles"),
    ("guidance.guidance_commands", "flocksim.harness", "guidance_commands"),
    ("guidance.convergence_conditions", "flocksim.harness", "convergence_conditions"),
    ("coordination.time_index", "flocksim.harness", "time_index"),
    ("coordination.consensus_rate", "flocksim.harness", "consensus_rate"),
    ("coordination.speed_command", "flocksim.harness", "speed_command"),
    ("geo.segment_obstructed", "flocksim.harness", "segment_obstructed"),
    ("geo.segment_obstructed", "flocksim.replanner", "segment_obstructed"),
    ("geo.segment_above_terrain", "flocksim.replanner", "segment_above_terrain"),
    ("replanner.replan", "flocksim.harness", "replan"),
    ("replanner.best_detour", "flocksim.replanner", "best_detour"),
    ("replanner.sample_region", "flocksim.replanner", "sample_region"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Span fields, stored as lists: [name, start_s, end_s, parent_index, mission, raised]
_NAME, _START, _END, _PARENT, _MISSION, _RAISED = range(6)


class Tracer:
    """Records spans while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        # Links in the CommGraphs that build_topology returned, counted
        # outside its span.
        self.links_admitted = 0
        self.mission: int = -1
        self.absent: list[str] = []
        self._stack: list[int] = [-1]

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count_links = name == "network.build_topology"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1], self.mission, False]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_RAISED] = True
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            if count_links:
                self.links_admitted += sum(len(links) for links in result.neighbors)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target that exists; restore the originals on exit."""
        restore: list[tuple[Any, str, Any]] = []
        self.absent = []
        try:
            for name, module_name, attr_path in TARGETS:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                try:
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except AttributeError:
                    self.absent.append(f"{module_name}.{attr_path}")
                    continue
                restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def take(self) -> tuple[list[list[Any]], int]:
        """Return and clear the spans and the links admitted recorded so far."""
        spans, links = self.spans[:], self.links_admitted
        self.spans.clear()
        self.links_admitted = 0
        return spans, links


def summarize(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s, self_s and failures over ``spans``."""
    child_busy = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            child_busy[span[_PARENT]] += span[_END] - span[_START]
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failures": 0} for name in SPAN_NAMES}
    for span, children in zip(spans, child_busy):
        row = out[span[_NAME]]
        busy = span[_END] - span[_START]
        row["calls"] += 1
        row["busy_s"] += busy
        row["self_s"] += busy - children
        row["failures"] += int(span[_RAISED])
    return out


def write_spans(spans: list[list[Any]], path: os.PathLike[str] | str) -> None:
    """Write spans as CSV, times in microseconds from the first span's start."""
    t0 = spans[0][_START] if spans else 0.0
    lines = ["index,name,start_us,end_us,parent,mission,raised"]
    for i, s in enumerate(spans):
        lines.append(
            f"{i},{s[_NAME]},{(s[_START] - t0) * 1e6:.3f},{(s[_END] - t0) * 1e6:.3f},"
            f"{s[_PARENT]},{s[_MISSION]},{int(s[_RAISED])}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
