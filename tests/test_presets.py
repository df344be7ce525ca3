"""The scenario generators reproduce the bundled ``scenarios/`` directory."""

from pathlib import Path

from flocksim import presets


def test_write_bundle_reproduces_scenarios(scenario_dir, tmp_path):
    written = presets.write_bundle(tmp_path)
    bundled = sorted(p.name for p in Path(scenario_dir).iterdir())
    assert sorted(p.name for p in written) == bundled
    for fp in written:
        assert fp.read_bytes() == (Path(scenario_dir) / fp.name).read_bytes(), fp.name
