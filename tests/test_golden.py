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

Replays must not depend on which SIMD kernels numpy dispatches to: three
cases run again in child processes with ``NPY_DISABLE_CPU_FEATURES``
turning off numpy's AVX-512 dispatch targets (``X86_V4`` and the later
ones), and then also AVX2 (``X86_V3``), and must give the same digests.
``fleet_13`` is among them because its 13 vehicles step RK4 through
numpy's sin and cos; the 4-vehicle cases step it through ``math``.
Nor on the BLAS kernel, which a ``DYNAMIC_ARCH`` OpenBLAS build picks by
CPU at load.  The replanner computes its cone and turn tests as dot
products written out elementwise, so no BLAS call reaches a replan; the
two replanning reference cases run again in child processes with
``OPENBLAS_CORETYPE`` forcing the Prescott and the Haswell kernels, and
must give the same digests, which guards that this stays so.

An intended change to exported numbers updates the table below in one
place and says why in CHANGES.md.  ``PYTHONPATH=src python
tests/test_golden.py`` prints the table for the current code in this
file's layout, to paste over the one below.  ``manifest.json`` loses its
``scenario_path`` field before hashing, because it names the checkout
directory.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml

from flocksim import export, load_scenario, presets, run
from flocksim.harness import WALL_CLOCK_FILES

GOLDEN = {
    "fleet_04": {
        "events.csv": "97b676702749bc01aab48d40635099429e7848dd3d5f8bf0b5a6d4547c642093",
        "manifest.json": "20879fa9e0d0ec72ed4cd5770020c54acd772faaf2249aa75a8f6f8a67f78141",
        "metrics.json": "2dc3305ca3fd5a534e189702c06d24306f3f1a67ca6a4315b0e9922ae8863d5c",
        "trajectories": "16132b045d33ca869d47fbe80000237196f9d0aabb6b5de3330529b3e7048ddb",
    },
    "fleet_07": {
        "events.csv": "9c7e3c6a61650d43e30136493a4533bdd3ffde00b59a395bbab8316da532f477",
        "manifest.json": "56069ff8aa6c8ccb3f7b24f1f4d3916e45b576998eb369a329eb60e5848fd3e8",
        "metrics.json": "9d3e76f020864545f0c60d33d8fcb006caac3acef24a07c14cd179aba5a10044",
        "trajectories": "74a799e29ba82db4a61ac3620383eaf33ad52257111e149c14ad73cdd58a2ded",
    },
    "fleet_10": {
        "events.csv": "befe1dad73ea93c14600f1d80f80322af34cc34fe610f57e1e7a603f7b58011d",
        "manifest.json": "464c59f2782b83df4675a16ab069f27c18823a72d2737b3a6e600bd1ae346f57",
        "metrics.json": "647f794edf352dfc2b2da6f26a04b8cf45bbb5974e02b6260a541e7e43573ee2",
        "trajectories": "e49eb5bd90006029a7d0f646e2a8c84b5d70505e75c749d0194d98a4cc7b68a4",
    },
    "fleet_13": {
        "events.csv": "554db8da7cb1e58d6fe1ea2627563e970dd014f22667c1f9985033a210a9a18d",
        "manifest.json": "a872244bb06cd298c38a22e80e8270b718ea847937a726e1b013e6a13b733d1c",
        "metrics.json": "aeedbee439bfb9a240d8e42c41cd28dc7fee05976a1d1e9127983567db71d39c",
        "trajectories": "cea7e2314992c25358dd322d1b26ec85673c4e3dbd2ebe60b606bba398bc63c7",
    },
    "fleet_40_blackout": {
        "events.csv": "59c1110e0d805e39a69afcb6ddf5165c0beb6d67c2eadcfe5e02fee8a09a24f6",
        "manifest.json": "0a7cfe4411a104d10acfdd79aaf7c75d7163e466cb12f5fc40a8b341f947e9b3",
        "metrics.json": "29bd2b0a84cf532850abe916dce320f62da8c935b47ec16ab69f36a1753541cc",
        "trajectories": "a2fb823bb18390fa2eb99616d2bc520e401da570a1618764e9c46297e2f5899d",
    },
    "reference_4uav": {
        "events.csv": "5aaa2f1780d6d77087414367512bec0223a5699f7ffa0d77f5ae63025f0c4a83",
        "manifest.json": "16bd019e8f7a002c1b68fe850b5002fe2f75acebaf94695d20ce1c2cb13bbbf7",
        "metrics.json": "04a60170692e29b97f46b74dbbc61020e119ce0ab807eb9373006a57cdaeffdc",
        "trajectories": "d35ed0be159aff6960a45007074675241dae2b702b11ef65ad3ffdb82a0c353a",
    },
    "reference_4uav_dropout": {
        "events.csv": "f3266c85deed177f5abff4cc7e255d344ae75b817a79385e30310e0833d12163",
        "manifest.json": "e1ba7561177fa46d766a16d141541b5218e7844b8391a9437ed3353c628cf257",
        "metrics.json": "b506102bc2e62f571665cb3fb9461b2b9469ba4781aa5b297237360f9f6307af",
        "trajectories": "ff19fcb123779dc09b370c37c3ea236583a8b1f70b5719f3a92aaac20cf0c2cd",
    },
    "reference_4uav_dt02": {
        "events.csv": "12cdae7ac39af948acfe12d9e2790957488f50f882a941813d8fd3adf68fc809",
        "manifest.json": "695f73655b3391aa37085c3dc277088c1b7e574e86516506ca9a221e33d1e67a",
        "metrics.json": "48317eabe2b8d0e79355095d51e5f6c9d3a58e135470f3293d60fb69c9043d8c",
        "trajectories": "b5dbc557f444ae13f33e01ef80dc2364a48dbccca0a3994860d768d08661f4b9",
    },
    "reference_4uav_seed1": {
        "events.csv": "690a6695738fd6f195b66fbf9e95f81c21964a1014f3de9330857de66c7f4825",
        "manifest.json": "8fd6da12baab725103488b899b904db12c132e9dad0839d0e5c1378b5e74e29e",
        "metrics.json": "5ab13c2ec1207fa77e9923d6c316dee44eafbb4bbf4407c7926d5bc1d4b74687",
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


def _case_digests(name: str, scenario_dir: str, work: Path) -> dict[str, str]:
    """Run the golden case ``name`` in the directory ``work`` and digest its exports."""
    log, metrics = run(load_scenario(_scenario_file(name, scenario_dir, work)))
    export(log, metrics, work / "out")
    return _export_digests(work / "out")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_export_digests_unchanged(name, scenario_dir, tmp_path):
    assert _case_digests(name, scenario_dir, tmp_path) == GOLDEN[name]


# Run in a child process, whose numpy reads NPY_DISABLE_CPU_FEATURES and
# OpenBLAS reads OPENBLAS_CORETYPE at import: fails unless the features
# named in NPY_DISABLE_CPU_FEATURES read as off, then prints the OpenBLAS
# core and the digests of each case named on the command line.
_CHILD = """
import json, os, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
from test_golden import _case_digests, _openblas_core

still_on = [f for f in os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split() if __cpu_features__[f]]
if still_on:
    sys.exit(f"NPY_DISABLE_CPU_FEATURES left {still_on} on")
scenario_dir, work = sys.argv[1], Path(sys.argv[2])
digests = {}
for name in sys.argv[3:]:
    (work / name).mkdir()
    digests[name] = _case_digests(name, scenario_dir, work / name)
print(json.dumps({"core": _openblas_core(), "digests": digests}))
"""
DISPATCH_CASES = ("fleet_13", "reference_4uav", "reference_4uav_seed1")
BLAS_CASES = ("reference_4uav", "reference_4uav_seed1")


def _child_run(env: dict[str, str], scenario_dir: str, work: Path, cases: tuple[str, ...]) -> dict:
    """The child's core and digests of ``cases``, run with ``env`` added to this environment."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, scenario_dir, str(work), *cases],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _openblas_core() -> str | None:
    """The kernel family of the OpenBLAS that numpy's wheel bundles, or None where it cannot be read."""
    import ctypes

    import numpy as np

    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


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
    out = _child_run({"NPY_DISABLE_CPU_FEATURES": " ".join(features)}, scenario_dir, tmp_path, DISPATCH_CASES)
    assert out["digests"] == {name: GOLDEN[name] for name in DISPATCH_CASES}


# OPENBLAS_CORETYPE forces the kernel family of a DYNAMIC_ARCH build.  A
# child whose core reads as this process's did not take the forced one,
# unless that is the one this CPU picks anyway.
@pytest.mark.parametrize("core", ["Prescott", "Haswell"])
def test_digests_do_not_depend_on_blas_kernel(core, scenario_dir, tmp_path):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:
        pytest.skip("numpy before 1.26 does not report its BLAS build")
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"numpy's BLAS ({blas.get('name')}) is not an OpenBLAS DYNAMIC_ARCH build")
    own = _openblas_core()
    if own is None:
        pytest.skip("cannot read which OpenBLAS kernel numpy runs")
    from numpy._core._multiarray_umath import __cpu_features__

    if core == "Haswell" and not (__cpu_features__["AVX2"] and __cpu_features__["FMA3"]):
        pytest.skip("this CPU cannot run the Haswell kernel")
    out = _child_run({"OPENBLAS_CORETYPE": core}, scenario_dir, tmp_path, BLAS_CASES)
    if core.lower() != own.lower():
        assert out["core"] != own, f"OPENBLAS_CORETYPE={core} left the {own} kernel in place"
    assert out["digests"] == {name: GOLDEN[name] for name in BLAS_CASES}


if __name__ == "__main__":
    scenarios = str(Path(__file__).resolve().parent.parent / "scenarios")
    print("GOLDEN = {")
    for case in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as work:
            print(f'    "{case}": {{')
            for kind, digest in sorted(_case_digests(case, scenarios, Path(work)).items()):
                print(f'        "{kind}": "{digest}",')
            print("    },")
    print("}")
