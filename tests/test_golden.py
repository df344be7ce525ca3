"""Golden export digests: numeric drift between commits fails here.

``replay-check`` only shows that two runs in one process agree.  These
digests pin the deterministic exports (every file except
``WALL_CLOCK_FILES``) of each bundled scenario and of one generated
40-vehicle fleet with an alternating blackout, so that a refactor which
claims no behaviour change keeps them byte for byte.  The 40-vehicle
fleet sits above the topology screen threshold and has dropouts, so it
runs the screened candidate path with the compiled schedule.  The
reference scenario also runs at ``dt_s: 0.2``: every other case steps in
whole seconds, so only this one pins ``t_s`` cells that are not integers
(``3 * 0.2`` is ``0.6000000000000001``).  With ``master_seed: 1`` the
reference scenario replans three times (4, 2 and 1 detour points) and
fails three replans, so that case pins a multi-iteration replan, a later
replan of the same vehicle and the failure messages in ``events.csv``.

Replays must not depend on which SIMD kernels numpy dispatches to: two
cases run again in child processes with ``NPY_DISABLE_CPU_FEATURES``
turning off numpy's AVX-512 dispatch targets (``X86_V4`` and the later
ones), and then also AVX2 (``X86_V3``), and must give the same digests.

An intended change to exported numbers updates the table below in one
place and says why in CHANGES.md.  ``manifest.json`` loses its
``scenario_path`` field before hashing, because it names the checkout
directory.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from flocksim import export, load_scenario, presets, run
from flocksim.harness import WALL_CLOCK_FILES

GOLDEN = {
    "fleet_04": {
        "events.csv": "672d351dc22adc4404d0e6f02b7941a6a8b4df250f6c92ceeb4aa84262bbe26e",
        "manifest.json": "d36c3a3fd27299a96a6a58b48329bec79f850dc1ddc9458e660fc304eed0aba3",
        "metrics.json": "dd114b395729060e9b9ab38f6b5b5231579ae9ae72b23b5159ea0fb2921d0b6e",
        "trajectories": "16132b045d33ca869d47fbe80000237196f9d0aabb6b5de3330529b3e7048ddb",
    },
    "fleet_07": {
        "events.csv": "aace4c925d6ffd0a9b22d09b723f5e07df6f3193e9b89bf01d9ac98dea7ff59d",
        "manifest.json": "bd6763c358d0e1b6081023f999fc7f688ad54d367a870c485354c9fba2a6c149",
        "metrics.json": "76c32ae3e7501817303d9aaf7ba1cfcfd3c50675760e5539c7610b428ce07f4b",
        "trajectories": "74a799e29ba82db4a61ac3620383eaf33ad52257111e149c14ad73cdd58a2ded",
    },
    "fleet_10": {
        "events.csv": "daabcd2490734c91aad10677e75020619ce9b2b8d012f4b47946018896ca6c7a",
        "manifest.json": "cc8ddd9ec0ea519cac1689bbaff001bae2d283e2e36754f4659e7925dc1a21c7",
        "metrics.json": "d19018489eafc74c78e7bdb816478cb316dba0f6f32f5ae9cf46435e0de46026",
        "trajectories": "e49eb5bd90006029a7d0f646e2a8c84b5d70505e75c749d0194d98a4cc7b68a4",
    },
    "fleet_13": {
        "events.csv": "081a5d1cb41f645ba918e648c745ae9c0cb86ae87453290813a7ca2b6bbe6b70",
        "manifest.json": "cec785046757863266c630913f470fbc5778d4bb793a13fe0c43c6400f7a43de",
        "metrics.json": "73c1a94d2731ca6b6bada62f4888c4b0bbed726fec21aabc8d57c4618c717206",
        "trajectories": "cea7e2314992c25358dd322d1b26ec85673c4e3dbd2ebe60b606bba398bc63c7",
    },
    "fleet_40_blackout": {
        "events.csv": "9e0c5daef6216bc56e918d0584141ead12dfad90c8a59199c52ef2de203a2f78",
        "manifest.json": "b642c75b281c087bd6bc404a2249be3630e113302864524bff50fe70d81cb6d9",
        "metrics.json": "361d8a8edefd202355bf487718173023fbeee7b0119ca6d13bb025ce0c222e96",
        "trajectories": "a2fb823bb18390fa2eb99616d2bc520e401da570a1618764e9c46297e2f5899d",
    },
    "reference_4uav": {
        "events.csv": "fcdce997a83407c4e1dac8e2a50a8a254bc89bc3467a0580d7f6d19a51272b2b",
        "manifest.json": "7581ad3fbf775dac5597e0bbd60c4830128a17913a96bd97b82cc2dba1b089bc",
        "metrics.json": "2361d0def4471b3f6c6ff7ba334d0f20ba2308a62170e050dd7f89e46913962c",
        "trajectories": "d35ed0be159aff6960a45007074675241dae2b702b11ef65ad3ffdb82a0c353a",
    },
    "reference_4uav_dt02": {
        "events.csv": "a578770a8eb501c30d9175ee9685e93fe2a66c52dd7437d3b61af1e4bd925c0a",
        "manifest.json": "6aef2ac9f7c53cddb4ab71301844931ac75691afda1da82d6f60e3bb2ccd9f96",
        "metrics.json": "e3ad977878468218e69302503c35fabbd7f522fd1ea95ff87be3221335dfe348",
        "trajectories": "40a0025db055f24e9ee0c9c19841542187f07e71cf7a036c2295091b230a586f",
    },
    "reference_4uav_dropout": {
        "events.csv": "fefbe57bb622dfa9b2f7e57bbdc9a790724b6826bc55c2d821c333af36fba531",
        "manifest.json": "2fe74af6e68957a9f59eb765d4401fe5cfd48d3c5f0064b2f9e7ae610decafde",
        "metrics.json": "fa232a3f1d11ef606e9ce4aadbfb8cf2004ef57c21b41b7498379c0ce1b508e8",
        "trajectories": "ff19fcb123779dc09b370c37c3ea236583a8b1f70b5719f3a92aaac20cf0c2cd",
    },
    "reference_4uav_seed1": {
        "events.csv": "2ac185b9484bd4bc4aa7904234f6330275a67f9c79837c3e2ccdeebadd027089",
        "manifest.json": "37e54522cdce4dab4d7998c8aae386847a0a13c8d23af398f09f71d8082a8ae3",
        "metrics.json": "cea8ea1b80d243f1cd41c14071da1ca474cc71c06ed51d8a7d7eca035b2c1e12",
        "trajectories": "3313e1581fa791f275c5b9c72ab630bde0698d0216b00d9225c2c11b00a1aaf2",
    },
}


def _export_digests(out_dir: Path) -> dict[str, str]:
    """sha256 per export kind; the per-vehicle CSVs hash together in id order."""
    trajectories = hashlib.sha256()
    digests = {}
    for fp in sorted(out_dir.iterdir()):
        if fp.name in WALL_CLOCK_FILES:
            continue
        data = fp.read_bytes()
        if fp.name.startswith("uav_"):
            trajectories.update(fp.name.encode() + b"\0" + hashlib.sha256(data).digest())
            continue
        if fp.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["scenario_path"]
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[fp.name] = hashlib.sha256(data).hexdigest()
    digests["trajectories"] = trajectories.hexdigest()
    return digests


def _scenario_file(name: str, scenario_dir: str, tmp_path: Path) -> Path:
    if name == "fleet_40_blackout":
        doc = presets.fleet_scenario_dict(40)
        doc["duration_s"] = 60
        doc["comm"]["dropout_schedule"] = presets.alternating_blackout(60, 40)
    elif name == "reference_4uav_dt02":
        doc = yaml.safe_load((Path(scenario_dir) / "reference_4uav.yaml").read_text())
        doc["dt_s"] = 0.2
    elif name == "reference_4uav_seed1":
        doc = yaml.safe_load((Path(scenario_dir) / "reference_4uav.yaml").read_text())
        doc["master_seed"] = 1
    else:
        return Path(scenario_dir) / f"{name}.yaml"
    doc["name"] = name
    shutil.copy(Path(scenario_dir) / doc["dem_file"], tmp_path / doc["dem_file"])
    return presets.write_scenario(doc, tmp_path / f"{name}.yaml")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_export_digests_unchanged(name, scenario_dir, tmp_path):
    log, metrics = run(load_scenario(_scenario_file(name, scenario_dir, tmp_path)))
    out = tmp_path / "out"
    export(log, metrics, out)
    assert _export_digests(out) == GOLDEN[name]


# Run in a child process, whose numpy reads NPY_DISABLE_CPU_FEATURES at
# import: fails unless the named features read as off, then prints the
# digests of each case named on the command line.
_DISPATCH_CHILD = """
import json, os, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
from flocksim import export, load_scenario, run
from test_golden import _export_digests, _scenario_file

still_on = [f for f in os.environ["NPY_DISABLE_CPU_FEATURES"].split() if __cpu_features__[f]]
if still_on:
    sys.exit(f"NPY_DISABLE_CPU_FEATURES left {still_on} on")
scenario_dir, work = sys.argv[1], Path(sys.argv[2])
digests = {}
for name in sys.argv[3:]:
    (work / name).mkdir()
    log, metrics = run(load_scenario(_scenario_file(name, scenario_dir, work / name)))
    export(log, metrics, work / name / "out")
    digests[name] = _export_digests(work / name / "out")
print(json.dumps(digests))
"""
DISPATCH_CASES = ("reference_4uav", "reference_4uav_seed1")


# Each case keeps numpy's dispatch targets up to a level and turns off every
# higher one this CPU has.  Turning off X86_V4 alone leaves the AVX512_ICL and
# AVX512_SPR targets on (numpy 2.4), so the targets are listed one by one.
@pytest.mark.parametrize("keep", [["X86_V3"], []], ids=["no-avx512", "no-avx512-no-avx2"])
def test_digests_do_not_depend_on_simd_dispatch(keep, scenario_dir, tmp_path):
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        pytest.skip("numpy before 2.0 has no X86_V3/X86_V4 dispatch targets")
    if not {"X86_V3", "X86_V4"} <= set(__cpu_dispatch__):
        pytest.skip(f"numpy dispatches to {__cpu_dispatch__} here, not to X86_V3 and X86_V4")
    features = [f for f in __cpu_dispatch__ if f not in keep and __cpu_features__[f]]
    if not features:
        pytest.skip(f"this CPU runs no dispatch target above {keep or 'the baseline'}")
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(features),
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run(
        [sys.executable, "-c", _DISPATCH_CHILD, scenario_dir, str(tmp_path), *DISPATCH_CASES],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: GOLDEN[name] for name in DISPATCH_CASES}
