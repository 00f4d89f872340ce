"""Lets the tests that start ``python -m fuzzphaser`` find the package in a
checkout: ``pythonpath`` in pyproject.toml reaches only the pytest process,
so its ``src`` directory is put on PYTHONPATH for the processes it starts.

Loads one hypothesis profile for every property test: no deadline, and
examples drawn from each test's own fixed seed, so a run is reproducible.
Each ``@settings`` sets only its ``max_examples``."""

import os
from pathlib import Path

from hypothesis import settings

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")
