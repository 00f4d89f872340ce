"""The process that runs the program: one workload, one closed-loop client.

    python3 worker.py setup LEXICON   print seconds to import fuzzphaser and
                                      load LEXICON, in this fresh process
    python3 worker.py run CONFIG      run CONFIG's texts through
                                      fuzzphaser.cli.main until its seconds
                                      are up; write the samples to its "out"

fuzzphaser is imported from PYTHONPATH.

Each text starts when the previous one returns. With tracing on, every
text is run twice, untraced and traced in alternating order, so the
trace overhead is measured on the same texts. Tracing wraps public
functions of the fuzzphaser modules from outside, at the name each
caller looks up, and keeps one span per call in memory.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def setup(lexicon: str):
    start = perf_counter()
    import fuzzphaser.cli
    fuzzphaser.cli.load_lexicon(lexicon)
    print(repr(perf_counter() - start))


class Tracer:
    """Spans [name, start, end, parent index, text id, size] of wrapped calls."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list = []
        self.text = None
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.text, None]
            if size is not None:
                spans[index][5] = size(args, result)
            return result

        return wrapper

    def install(self):
        for name, module, attr, size in self.targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, size))

    def remove(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def _targets():
    """(span name, module, attribute, size of the call or None).

    On the run path `linalg.min_eigenvalue` is called only by
    DensityMatrix.__init__, so it and `linalg.is_hermitian` time state
    validation. `textcirc.ddm_kraus` and `textcirc.renormalize` are
    imported by name, so they are wrapped where textcirc looks them up;
    so are the names cli imports.
    """
    from fuzzphaser import cli, linalg, textcirc, update

    def dim(args, result):
        return len(args[0])

    def count(args, result):
        return len(result)

    return [
        ("cli.main", cli, "main", None),
        ("lexicon.load", cli, "load_lexicon", lambda a, r: len(r.entries)),
        ("textcirc.parse", textcirc, "parse", count),
        ("textcirc.compile", textcirc, "compile_sentences",
         lambda a, r: [len(r.gates), r.joint_dim]),
        ("textcirc.evaluate", cli, "evaluate", None),
        ("textcirc.reduced_state", cli, "reduced_state", None),
        ("density.renormalize", textcirc, "renormalize", None),
        ("ddm.kraus", textcirc, "ddm_kraus", count),
        ("update.fuzz", update, "fuzz", None),
        ("update.phaser", update, "phaser", None),
        ("linalg.min_eigenvalue", linalg, "min_eigenvalue", dim),
        ("linalg.is_hermitian", linalg, "is_hermitian", None),
        ("linalg.eigh", linalg, "hermitian_eig", dim),
        ("linalg.eigh", linalg, "grouped_eigh", dim),
        ("linalg.sqrt", linalg, "matrix_sqrt", dim),
        ("linalg.embed", linalg, "embed_on_subsystem", lambda a, r: len(r)),
        ("linalg.kron_all", linalg, "kron_all", None),
        ("linalg.partial_trace", linalg, "partial_trace", None),
    ]


def layer_metrics(spans: list, texts: int) -> dict:
    """Per-layer figures per traced text (sizes as maxima or sums).

    A layer's time counts only its outermost spans, so a layer that
    calls itself (hermitian_eig calls grouped_eigh) is not counted
    twice. Self time is a span's duration minus its direct children's.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    time_in = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    sizes = defaultdict(list)
    validate = 0.0
    for i, (name, start, end, parent, _, size) in enumerate(spans):
        self_time[name] += end - start - child_time[i]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up >= 0:
            continue
        time_in[name] += end - start
        calls[name] += 1
        if size is not None:
            sizes[name].append(size)
        if name == "linalg.is_hermitian" and not (
            parent >= 0 and spans[parent][0].startswith("linalg.")
        ):
            validate += end - start
    validate += time_in["linalg.min_eigenvalue"]
    compiled = sizes["textcirc.compile"]
    n = max(texts, 1)
    per_text = {
        "lexicon.load_s": time_in["lexicon.load"],
        "lexicon.load.calls": calls["lexicon.load"],
        "textcirc.parse_s": time_in["textcirc.parse"],
        "textcirc.parse.sentences": sum(sizes["textcirc.parse"]),
        "textcirc.compile_s": time_in["textcirc.compile"],
        "textcirc.compile.gates": sum(g for g, _ in compiled),
        "textcirc.evaluate_s": time_in["textcirc.evaluate"],
        "textcirc.evaluate.self_s": self_time["textcirc.evaluate"],
        "textcirc.reduced_state_s": time_in["textcirc.reduced_state"],
        "textcirc.reduced_state.calls": calls["textcirc.reduced_state"],
        "textcirc.trajectory_bytes": sum((g + 1) * d * d * 16 for g, d in compiled),
        "update.fuzz_s": time_in["update.fuzz"],
        "update.fuzz.calls": calls["update.fuzz"],
        "update.phaser_s": time_in["update.phaser"],
        "update.phaser.calls": calls["update.phaser"],
        "ddm.kraus_s": time_in["ddm.kraus"],
        "ddm.kraus.ops": sum(sizes["ddm.kraus"]),
        "density.validate_s": validate,
        "density.validate.calls": calls["linalg.min_eigenvalue"],
        "density.renormalize.calls": calls["density.renormalize"],
        "linalg.eigh_s": time_in["linalg.eigh"],
        "linalg.eigh.calls": calls["linalg.eigh"],
        "linalg.sqrt_s": time_in["linalg.sqrt"],
        "linalg.sqrt.calls": calls["linalg.sqrt"],
        "linalg.embed_s": time_in["linalg.embed"],
        "linalg.embed.calls": calls["linalg.embed"],
        "linalg.embed.bytes": sum(d * d * 16 for d in sizes["linalg.embed"]),
        "linalg.kron_all_s": time_in["linalg.kron_all"],
        "linalg.partial_trace_s": time_in["linalg.partial_trace"],
        "cli.self_s": self_time["cli.main"],
    }
    out = {k: v / n for k, v in per_text.items()}
    out["lexicon.entries"] = max(sizes["lexicon.load"], default=0)
    for key, name in (("density.validate", "linalg.min_eigenvalue"),
                      ("linalg.eigh", "linalg.eigh"), ("linalg.sqrt", "linalg.sqrt")):
        out[f"{key}.max_dim"] = max(sizes[name], default=0)
    return out


def environment() -> dict:
    """Interpreter, numpy and BLAS, as this process sees them."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run_one(cli, argv: list, text_id: int, traced: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a traceback is a failed text, not a crash
        rc, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if error is None and rc != 0:
        error = f"exit {rc}: {err.getvalue().strip()}"
    return {"text": text_id, "seconds": seconds, "error": error,
            "output": out.getvalue(), "traced": traced}


def run(config_path: str):
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    from fuzzphaser import cli

    tracer = Tracer(_targets()) if cfg["trace"] else None
    samples, pairs = [], []
    texts = cfg["texts"]
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < cfg["seconds"]:
        text = texts[k % len(texts)]
        argv = ["run", text["path"], "--lexicon", cfg["lexicon"], *cfg["flags"]]
        if tracer is None:
            samples.append(_run_one(cli, argv, text["id"], False))
        else:
            tracer.text = k
            pair = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    pair[traced] = _run_one(cli, argv, text["id"], traced)
                finally:
                    tracer.remove()
            samples += [pair[False], pair[True]]
            pairs.append(pair[True]["seconds"] - pair[False]["seconds"])
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"samples": samples, "peak_rss_mb": peak_rss_mb, "env": environment()}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, k)
        result["layers"]["trace.overhead_s"] = statistics.median(pairs)
        with open(cfg["spans"], "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, text_id, size in tracer.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "text": text_id,
                                     "size": size}) + "\n")
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        run(sys.argv[2])
