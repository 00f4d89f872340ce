"""Lets the tests that start ``python -m fuzzphaser`` find the package in a
checkout: ``pythonpath`` in pyproject.toml reaches only the pytest process,
so its ``src`` directory is put on PYTHONPATH for the processes it starts."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
