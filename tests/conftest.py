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
