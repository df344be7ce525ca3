"""flocksim host-time benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload ref4 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones. A human-readable report comes first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The simulator is imported from ``src/`` of the
checkout, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pin BLAS/OpenMP pools to one thread before numpy is imported: the
# benchmark is one single-threaded client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv: list[str] | None = None) -> int:
    root = Path(".")
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    package = root / "src" / "flocksim"
    spec_path = root / "BENCHMARK.json"
    if not (package / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: {Path.cwd()} is not a flocksim checkout (needs src/flocksim and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(package.parent.resolve()))

    import flocksim
    import runner
    import workloads

    if Path(flocksim.__file__).resolve().parent != package.resolve():
        print(f"bench: imported flocksim from {flocksim.__file__}, not from {package}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    for needed in (workloads.BUNDLED.get(args.workload), runner.WARMUP_SCENARIO):
        if needed is not None and not (root / needed).is_file():
            print(f"bench: missing scenario file {needed}", file=sys.stderr)
            return 2

    spec = json.loads(spec_path.read_text())
    run = runner.Run(args.workload, args.seed, args.seconds)
    if args.trace:
        values, specs = run.per_layer(), spec["per_layer"]
    else:
        values, specs = run.end_to_end(), spec["end_to_end"]
    result = runner.result_line(run, values, specs)
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
