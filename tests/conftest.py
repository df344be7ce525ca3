import copy
from pathlib import Path

import numpy as np
import pytest
import yaml

from flocksim import DemGrid, save_dem
from mini_scenario import MINI_SCENARIO

SCENARIO_DIR_NAME = "scenarios"


@pytest.fixture
def flat_dem() -> DemGrid:
    """Flat terrain at elevation 0 covering +-2000 m in both axes."""
    return DemGrid(
        origin_north=-2000.0,
        origin_east=-2000.0,
        cell_size=1000.0,
        elevation=np.zeros((5, 5)),
    )


@pytest.fixture(scope="session")
def scenario_dir(request) -> str:
    return str(request.config.rootpath / SCENARIO_DIR_NAME)


def _deep_merge(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@pytest.fixture
def make_scenario_file(tmp_path):
    """Factory writing a small single-vehicle scenario plus its flat DEM.

    Keyword overrides deep-merge into the template; pass e.g.
    ``obstacle={...}`` or ``duration_s=0.0`` to vary one aspect.  Returns
    the scenario path.
    """

    def factory(**overrides) -> Path:
        doc = _deep_merge(MINI_SCENARIO, overrides)
        dem = DemGrid(
            origin_north=-2000.0,
            origin_east=-2000.0,
            cell_size=500.0,
            elevation=np.zeros((9, 9)),
        )
        save_dem(dem, tmp_path / doc["dem_file"])
        path = tmp_path / f"{doc['name']}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        return path

    return factory
