"""Benchmark of `fuzzphaser run`: one command, every metric, every output checked.

    python3 bench/run.py --workload joint-1024|long-text|small-texts \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The seed fixes the generated lexicon and texts (gen.py). A fresh
worker process runs the texts one after another through
`fuzzphaser.cli.main` for S seconds (worker.py); every output is then
checked against the numpy-only reference (reference.py). The last line
of output is one JSON object. With --trace 0 it carries the end-to-end
metrics, with --trace 1 the per-layer ones from a traced run. Inputs are
written under `.bench_work/` and removed at the end; the spans of the
last traced run of each workload stay in `.bench_work/spans-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
#: Fresh processes timed for setup_s; the median is reported. One more
#: runs first untimed: it compiles the checkout's bytecode, which a user
#: pays once per install, not once per run.
SETUP_PROBES = 7
#: Every process this script starts must be done by then.
DEADLINE_S = 170.0


def _tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least 10 samples above it."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1]


def _check(samples, manifest) -> tuple[list[str], float]:
    """Failures (raised, non-zero exit, or disagreeing with the reference)."""
    lexicon = reference.load_lexicon(manifest["lexicon"])
    renorm = "--renormalize" in manifest["flags"]
    json_format = "json" in manifest["flags"]
    rtol = reference.JSON_RTOL if json_format else reference.TEXT_RTOL
    paths = {t["id"]: t["path"] for t in manifest["texts"]}
    refs, seen = {}, {}
    failures, worst = [], 0.0
    for s in samples:
        problems = [s["error"]] if s["error"] else None
        if problems is None and (s["text"], s["output"]) in seen:
            problems = seen[s["text"], s["output"]]
        elif problems is None:
            if s["text"] not in refs:
                text = Path(paths[s["text"]]).read_text(encoding="utf-8")
                refs[s["text"]] = reference.evaluate(lexicon, text, renorm)
            try:
                doc = (json.loads(s["output"]) if json_format
                       else reference.parse_text_output(s["output"]))
                problems, err = reference.compare(doc, refs[s["text"]], rtol)
                worst = max(worst, err)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            seen[s["text"], s["output"]] = problems
        if problems:
            failures.append(f"text t{s['text']:03d}: " + "; ".join(problems))
    return failures, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    src = ROOT / "src"
    if not (src / "fuzzphaser" / "cli.py").is_file():
        print(f"error: no fuzzphaser sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        manifest = gen.generate(args.workload, args.seed, work)
        setup = []
        for _ in range(SETUP_PROBES + 1):
            probe = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "setup", manifest["lexicon"]],
                env=env, capture_output=True, text=True, check=True, timeout=60)
            setup.append(float(probe.stdout))
        del setup[0]
        config = {
            "lexicon": manifest["lexicon"],
            "flags": manifest["flags"], "texts": manifest["texts"],
            "seconds": args.seconds, "trace": bool(args.trace),
            "out": str(work / "result.json"),
            "spans": str(ROOT / ".bench_work" / f"spans-{args.workload}.jsonl"),
        }
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "run", str(work / "config.json")],
            env=env, check=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - began)))
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        demo_failures = reference.demo_answers(ROOT / "demo")
        failures, worst = _check(result["samples"], manifest)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = result["samples"]
    gates = {t["id"]: t["gates"] for t in manifest["texts"]}
    cases = {t["id"]: t for t in manifest["texts"]}
    seconds = [s["seconds"] for s in samples]
    print("env: " + json.dumps({**result["env"], "seed": args.seed}))
    print("case: " + json.dumps({
        "workload": args.workload, "mechanism_mix": manifest["mechanism_mix"],
        "lexicon_entries": manifest["entries"],
        "actors": sorted({cases[s["text"]]["actors"] for s in samples}),
        "joint_dim": sorted({cases[s["text"]]["joint_dim"] for s in samples}),
        "gates_per_text": sorted({gates[s["text"]] for s in samples}),
        "flags": manifest["flags"], "texts_run": len(samples),
    }))
    for failure in demo_failures:
        print(f"reference FAILS demo answer: {failure}")
    print(f"reference: max relative error {worst:.3g} (information, not gated)")
    print(f"fail_frac {len(failures) / len(samples):.6g} ({len(failures)}/{len(samples)})")
    for failure in failures:
        print(f"FAILED {failure}")

    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    if args.trace:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in sorted(result["layers"].items())}
    else:
        tail = _tail(seconds)
        if tail is None:
            print(f"text_tail_s omitted: n={len(seconds)} < 20")
        else:
            print(f"text_tail_s p{tail[0]} {tail[1]:.6g} s (n={len(seconds)})")
        values = {
            "text_p50_s": statistics.median(seconds),
            "gates_per_s": sum(gates[s["text"]] for s in samples) / sum(seconds),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures and not demo_failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
