"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import reference
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["lexicon.json"] != _files(tmp_path / "c")["lexicon.json"]


def test_reference_matches_demo_answers():
    assert reference.demo_answers(ROOT / "demo") == []


def _program_output(manifest: dict, text: dict) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    from fuzzphaser.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", text["path"], "--lexicon", manifest["lexicon"],
                     *manifest["flags"]]) == 0
    return out.getvalue()


def _perturb_json(output: str) -> str:
    doc = json.loads(output)
    doc["actors"][0]["matrix"][0][0][0] *= 1.001
    return json.dumps(doc)


def _perturb_text(output: str) -> str:
    lines = output.splitlines()
    cells = lines[3].strip()[1:-1].split(", ")
    cells[0] = "0.25+0j" if cells[0] != "0.25+0j" else "0.5+0j"
    lines[3] = "  [" + ", ".join(cells) + "]"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("flags, perturb", [
    (["--format", "json"], _perturb_json),
    (["--renormalize"], _perturb_text),
])
def test_perturbed_output_counts_as_failure(tmp_path, flags, perturb):
    manifest = gen.generate("small-texts", 3, tmp_path)
    manifest["flags"] = flags
    text = next(t for t in manifest["texts"] if t["actors"] == 2)
    good = _program_output(manifest, text)
    sample = {"text": text["id"], "error": None, "output": good}
    assert run._check([sample], manifest)[0] == []
    bad = {**sample, "output": perturb(good)}
    failures, _ = run._check([sample, bad], manifest)
    assert len(failures) == 1


@pytest.mark.parametrize("trace, kind", [(1, "per_layer"), (0, "end_to_end")])
def test_run_emits_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "small-texts",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
