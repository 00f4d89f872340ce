"""The names that the benchmark's tracer wraps must exist in the program.

``bench/worker.py`` wraps each (module, attribute) of ``_targets()`` by
name, so a name renamed or removed in ``fuzzphaser`` fails every traced
benchmark run; here it fails a test instead.
"""

import importlib.util
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    targets = worker._targets()
    assert targets
    missing = [
        f"{module.__name__}.{attr}"
        for _, module, attr, _ in targets
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, f"bench/worker.py wraps names the program lacks: {missing}"
