"""End-to-end checks of the command-line front end via :func:`main`."""

import json

import pytest

from flocksim.cli import main
from flocksim.harness import WALL_CLOCK_FILES
from mini_scenario import MINI_SCENARIO


def test_validate_ok(make_scenario_file, capsys):
    path = make_scenario_file()
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"ok: {path}" in out
    assert "n_uavs: 1" in out


def test_validate_json(make_scenario_file, capsys):
    path = make_scenario_file()
    assert main(["validate", str(path), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_uavs"] == 1
    assert summary["has_obstacle"] is False
    assert summary["master_seed"] == 11


def test_validate_rejects_bad_scenario(make_scenario_file, capsys):
    path = make_scenario_file(dt_s=-1.0)
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_validate_rejects_non_utf8_scenario(make_scenario_file, capsys):
    path = make_scenario_file()
    path.write_bytes(path.read_bytes() + b"# \xff\n")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read scenario {path}: ")
    assert "byte 0xff" in err


@pytest.mark.parametrize("line, bad, message", [
    (-1, "1 \xff", "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    (0, "nrows nan", "header line 1: 'nrows' must be finite, got 'nan'"),
    (0, "nrows inf", "header line 1: 'nrows' must be finite, got 'inf'"),
    (2, "origin_north_m nan", "header line 3: 'origin_north_m' must be finite, got 'nan'"),
    (4, "cell_size_m inf", "header line 5: 'cell_size_m' must be finite, got 'inf'"),
])
def test_validate_rejects_a_bad_dem(make_scenario_file, capsys, line, bad, message):
    path = make_scenario_file()
    dem = (path.parent / MINI_SCENARIO["dem_file"]).resolve()
    lines = dem.read_bytes().splitlines()
    lines[line] = bad.encode("latin-1")
    dem.write_bytes(b"\n".join(lines))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: scenario.dem_file: {dem}: {message}")


def test_run_writes_artifacts(make_scenario_file, tmp_path, capsys):
    path = make_scenario_file()
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "run complete: 1 uavs, 80 ticks" in stdout
    for name in ("uav_00.csv", "events.csv", "metrics.json", "manifest.json", "timing.json"):
        assert (out / name).is_file()


def test_rerun_into_a_used_directory_equals_a_fresh_run(make_scenario_file, tmp_path):
    longer = make_scenario_file(name="longer", duration_s=120.0, master_seed=12)
    path = make_scenario_file()
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["run", str(longer), "--out", str(out)]) == 0
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert main(["run", str(path), "--out", str(fresh)]) == 0
    names = sorted(p.name for p in fresh.iterdir() if p.name not in WALL_CLOCK_FILES)
    assert names == ["events.csv", "manifest.json", "metrics.json", "uav_00.csv"]
    for name in names:
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_run_json_payload(make_scenario_file, tmp_path, capsys):
    path = make_scenario_file()
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["out_dir"] == str(out)
    assert payload["metrics"]["ae_mean_m"] < 15.0


def test_run_seed_override_lands_in_manifest(make_scenario_file, tmp_path):
    path = make_scenario_file()
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--seed", "99"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 99


def test_metrics_reads_run_dir(make_scenario_file, tmp_path, capsys):
    path = make_scenario_file()
    out = tmp_path / "out"
    main(["run", str(path), "--out", str(out)])
    capsys.readouterr()
    assert main(["metrics", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "ae_mean_m",
        "rmse_mean_m",
        "md_max_s",
        "md_final_s",
        "detour_overhead_s",
        "per_uav_ae_m",
        "n_replan_events",
        "n_replan_failures",
        "n_premise_violations",
    }


def test_metrics_missing_dir(tmp_path, capsys):
    assert main(["metrics", str(tmp_path / "absent")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_metrics_rejects_non_utf8_file(tmp_path, capsys):
    (tmp_path / "metrics.json").write_bytes(b'{"ae_mean_m": \xff}')
    assert main(["metrics", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path / 'metrics.json'}: ")


def test_metrics_rejects_a_file_that_is_not_an_object(tmp_path, capsys):
    (tmp_path / "metrics.json").write_text("[1, 2]")
    for flags in ([], ["--json"]):
        assert main(["metrics", str(tmp_path), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {tmp_path / 'metrics.json'}: expected a JSON object\n")


OBSTACLE_ON_PATH = {"center_north_m": -450.0, "center_east_m": 20.0, "lateral_radius_m": 60.0,
                    "base_height_m": 0.0, "top_height_m": 250.0, "activation_time_s": 0.0}


# Each array these scenarios ask of run is above 2**47 bytes, more than a
# process's address space holds: the (1e13, 1, len(LOG_COLUMNS)) run log,
# and the 1e14 replan samples drawn at the first tick. The loader refuses
# both, so validate and run exit 2 without allocating anything.
@pytest.mark.parametrize("overrides, message", [
    ({"duration_s": 1e13}, "error: scenario.duration_s: the run log of 10000000000000.0 s at dt_s 1.0 for 1"
                           " vehicles exceeds 140737488355328 bytes\n"),
    ({"replan": {"k_samples": 10**14}, "obstacle": OBSTACLE_ON_PATH},
     "error: scenario.replan.k_samples: a (100000000000000, 3) sample block exceeds 140737488355328 bytes\n"),
], ids=["run-log", "replan-samples"])
def test_scenario_that_run_cannot_allocate_exits_2(make_scenario_file, tmp_path, capsys, overrides, message):
    path = make_scenario_file(**overrides)
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def test_run_into_an_output_path_that_is_a_file_exits_3(make_scenario_file, tmp_path, capsys):
    path = make_scenario_file(duration_s=2.0)
    (tmp_path / "out").write_text("")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {tmp_path / 'out'}: ")
    assert "Traceback" not in err


def test_replay_check_passes(make_scenario_file, capsys):
    path = make_scenario_file()
    assert main(["replay-check", str(path)]) == 0
    assert "replay identical:" in capsys.readouterr().out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
