"""The benchmark's gated workloads: CLI output recorded in ``golden_bench.json``,
and the routes their words take.

``bench/gen.py`` (imported read-only, as ``test_bench_worker.py`` reads
``bench/worker.py``) writes ``long-text`` and ``joint-1024`` for one seed;
``run`` takes each text with its workload's flags. The recording pins the
sha256 of every input, so that a change of the generator reads as such and
not as a change of the program. ``long-text`` output (text format) must
stay byte-identical; ``joint-1024`` output (JSON) may move by
``test_golden.JSON_RTOL`` of each field's scale, as the demos' JSON may.

After a change meant to alter this output, rewrite the file with
``PYTHONPATH=src python tests/test_bench_workloads.py`` and say why in the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from test_golden import _close

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_bench.json"
SEED = 7
WORKLOADS = ("long-text", "joint-1024")
#: The seeds of the campaigns recorded in BENCH_21.json.
CAMPAIGN_SEEDS = (*range(2511, 2521), *range(2531, 2541))


def _gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _runs(outdir: Path) -> list[dict]:
    """Each workload's inputs (by name and sha256) and each text's exit code and stdout."""
    from fuzzphaser.cli import main

    gen, runs = _gen(), []
    for workload in WORKLOADS:
        manifest = gen.generate(workload, SEED, outdir / workload)
        lexicon = manifest["lexicon"]
        inputs = {"lexicon.json": _digest(lexicon)}
        for case in manifest["texts"]:
            path = case["path"]
            inputs[Path(path).name] = _digest(path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["run", path, "--lexicon", lexicon, *manifest["flags"]])
            runs.append({"workload": workload, "text": Path(path).name, "flags": manifest["flags"],
                         "exit": code, "stdout": out.getvalue()})
        runs.append({"workload": workload, "inputs": inputs})
    return runs


def _matches(got: dict, want: dict) -> bool:
    if "inputs" in want or "--format" not in want["flags"]:
        return got == want
    if (got["exit"], got["flags"]) != (want["exit"], want["flags"]):
        return False
    return _close(json.loads(got["stdout"]), json.loads(want["stdout"]), 0.0)


def test_bench_workloads_match_the_recording(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _runs(tmp_path)
    inputs = [run for run in recorded if "inputs" in run]
    assert inputs == [run for run in got if "inputs" in run], "bench/gen.py writes other inputs"
    assert len(got) == len(recorded)
    changed = [f"{want['workload']} {want['text']}"
               for have, want in zip(got, recorded) if not _matches(have, want)]
    assert not changed, f"{len(changed)} of {len(recorded)} outputs changed: {changed}"


def test_long_text_ddm_verbs_take_v_in_both_slot_orders(tmp_path):
    """Every text of the campaign's seeds has both of long-text's ddm verbs
    (2 factors of 2 branches, s = 8, and 3 of 3, s = 27) on its 16-dim
    block in both slot orders, and each such plan takes the factored route:
    V's 2,048 and 6,912 entries lie below what the block's gates write."""
    from fuzzphaser.lexicon import load_lexicon
    from fuzzphaser.textcirc import compile_text

    gen = _gen()
    for seed in CAMPAIGN_SEEDS:
        manifest = gen.generate("long-text", seed, tmp_path / str(seed))
        lexicon = load_lexicon(manifest["lexicon"])
        for case in manifest["texts"]:
            circuit = compile_text(Path(case["path"]).read_text(encoding="utf-8"), lexicon)
            plans = {(g.label.split()[1], g.slots): g.plan for g in circuit.gates
                     if g.mechanism == "ddm" and len(g.slots) == 2}
            assert len(plans) == 4, (seed, case["id"], sorted(plans))
            assert {plan.doubled[1].shape for plan in plans.values()} == {(256, 8), (256, 27)}
            assert {plan.route for plan in plans.values()} == {"factored"}, (seed, case["id"])


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        doc = _runs(Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} records to {GOLDEN}")
