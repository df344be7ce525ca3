"""Command-line front end.

Subcommands: ``run`` executes a scenario and exports its artifacts,
``validate`` checks a scenario file without running it, ``metrics``
prints the summary of a finished run directory, and ``replay-check``
runs a scenario twice and byte-compares the deterministic exports.

Exit codes: 0 on success, 2 for validation problems (bad scenario file,
bad inputs), 3 for runtime failures (aborted run, I/O trouble, replay
mismatch).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from .harness import (
    WALL_CLOCK_FILES,
    RunError,
    ScenarioError,
    export,
    load_scenario,
    run,
)

__all__ = ["main"]


def _load(args: argparse.Namespace):
    scenario = load_scenario(args.scenario)
    if getattr(args, "seed", None) is not None:
        scenario.master_seed = args.seed
    return scenario


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args)
    log, metrics = run(scenario)
    out_dir = Path(args.out) if args.out else Path("runs") / (scenario.name or Path(args.scenario).stem)
    files = export(log, metrics, out_dir)
    if args.json:
        payload = {"out_dir": str(out_dir), "metrics": metrics.as_dict()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"run complete: {log.n_uavs} uavs, {log.n_ticks} ticks, {len(files)} files -> {out_dir}")
        for key, value in sorted(metrics.as_dict().items()):
            print(f"  {key}: {value}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    summary = {
        "name": scenario.name,
        "n_uavs": len(scenario.uavs),
        "duration_s": scenario.duration,
        "dt_s": scenario.dt,
        "has_obstacle": scenario.obstacle is not None,
        "master_seed": scenario.master_seed,
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"ok: {args.scenario}")
        for key, value in summary.items():
            print(f"  {key}: {value}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    path = Path(args.run_dir) / "metrics.json"
    try:
        payload = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in sorted(payload.items()):
            print(f"{key}: {value}")
    return 0


def _replay_files(out_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name not in WALL_CLOCK_FILES
    }


def _cmd_replay_check(args: argparse.Namespace) -> int:
    mismatches: list[str] = []
    checked = 0
    with tempfile.TemporaryDirectory(prefix="flocksim-replay-") as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        for out_dir in (first, second):
            scenario = _load(args)
            log, metrics = run(scenario)
            export(log, metrics, out_dir)
        a, b = _replay_files(first), _replay_files(second)
        for name in sorted(set(a) | set(b)):
            if name not in a or name not in b:
                mismatches.append(f"{name}: present in only one run")
            elif a[name] != b[name]:
                mismatches.append(f"{name}: byte mismatch")
            else:
                checked += 1
    if mismatches:
        for line in mismatches:
            print(f"MISMATCH {line}", file=sys.stderr)
        return 3
    print(f"replay identical: {checked} files match")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flocksim",
        description="Deterministic multi-vehicle path-following simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and export its artifacts")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("--out", help="output directory (default: runs/<name>)")
    p_run.add_argument("--seed", type=int, help="override the scenario master seed")
    p_run.add_argument("--json", action="store_true", help="print metrics as JSON")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("scenario", help="scenario YAML file")
    p_val.add_argument("--json", action="store_true", help="print the summary as JSON")
    p_val.set_defaults(func=_cmd_validate)

    p_met = sub.add_parser("metrics", help="print the metrics of a finished run")
    p_met.add_argument("run_dir", help="directory written by 'flocksim run'")
    p_met.add_argument("--json", action="store_true", help="print raw JSON")
    p_met.set_defaults(func=_cmd_metrics)

    p_rep = sub.add_parser(
        "replay-check", help="run twice and verify the deterministic exports match"
    )
    p_rep.add_argument("scenario", help="scenario YAML file")
    p_rep.add_argument("--seed", type=int, help="override the scenario master seed")
    p_rep.set_defaults(func=_cmd_replay_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RunError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
