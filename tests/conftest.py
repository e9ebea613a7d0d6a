"""Shared fixtures: the benchmark's reference values, loaded by path."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def bench_oracles():
    """``perfbench/oracles.py``: references that never call ctstat."""
    path = Path(__file__).parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
