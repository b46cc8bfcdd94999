"""Fixtures shared by the test modules."""
import os
from pathlib import Path

import pytest

import srbb


@pytest.fixture
def srbb_env():
    """Environment for a child interpreter that imports the srbb under test,
    installed or not."""
    src = str(Path(srbb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
