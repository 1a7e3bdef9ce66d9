"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def bench_modules():
    """The benchmark's geometry oracle and seeded scenes, ``bench/oracle.py``
    and ``bench/scenes.py``, loaded from their files (``bench`` is not a
    package)."""
    oracle = _load("oracle")
    with mock.patch.dict(sys.modules, {"oracle": oracle}):  # scenes.py imports it
        scenes = _load("scenes")
    return oracle, scenes
