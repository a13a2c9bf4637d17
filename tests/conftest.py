import importlib.util
import pathlib

import pytest

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


@pytest.fixture(scope="session")
def models_dir():
    return MODELS


@pytest.fixture(scope="session")
def families():
    """The benchmark's model generators, ``synthbench/families.py``."""
    path = MODELS.parent / "synthbench" / "families.py"
    spec = importlib.util.spec_from_file_location("families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def model_suite(models_dir, families):
    """Model text by name: the shipped models, and one member of each
    benchmark family, which have more hyperedges, events, variables and
    live nodes than the shipped ones, so more dict and set iterations and
    more root bookkeeping."""
    suite = {p.stem: p.read_text() for p in sorted(models_dir.glob("*.efa"))
             if not p.name.endswith(".sup.efa")}
    suite["philosophers_8"] = families.philosophers(8)
    suite["chain_100"] = families.chain(100)
    suite["tank_2_12"] = families.tank(2, 12)
    return suite
