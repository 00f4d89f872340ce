"""Command-line frontend: run texts, ship demos, verify properties, export.

Exit codes: 0 success, 2 input error (parse, lexicon, missing file),
3 annihilated state (zero trace), 4 verification or demo failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .density import DensityMatrix, purity
from .errors import FuzzPhaserError, ParseError, ZeroTraceError
from .lexicon import _matrix_out, load_lexicon
from .sampling import DEFAULT_SEED
from .textcirc import MECHANISMS, Circuit, compile_text, evaluate, reduced_state

#: The shipped demos (``demos``), which ``run`` does not import.
DEMO_NAMES = ("paint-it-black", "black-fuzztones")


def _fmt_num(x: float) -> str:
    return f"{x:.6g}"


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt_num(z.real)}{sign}{_fmt_num(abs(z.imag))}j"


def _fmt_matrix(m: np.ndarray) -> list[str]:
    return [
        "  [" + ", ".join(_fmt_complex(complex(z)) for z in row) + "]" for row in m
    ]


def _dims_arg(raw: str) -> tuple[int, int]:
    parts = raw.split("..")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except (ValueError, IndexError):
        raise argparse.ArgumentTypeError("expected a range like 2..5")
    if len(parts) != 2 or lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError("expected an increasing range like 2..5")
    return lo, hi


def _trials_arg(raw: str) -> int:
    try:
        trials = int(raw)
    except ValueError:
        trials = 0
    if trials < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return trials


def _actor_report(circuit: Circuit, states: list[DensityMatrix]) -> list[dict]:
    return [
        {
            "name": actor.name,
            "space": actor.space,
            "dim": actor.dim,
            "trace": state.trace,
            "purity": None if state.trace <= 0.0 else purity(state),
            "matrix": _matrix_out(state.matrix),
        }
        for actor, state in zip(circuit.actors, states)
    ]


def _read_text(path: str) -> str:
    """The file's UTF-8 text; ParseError naming it where a byte is not UTF-8."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"{path} is not UTF-8 ({exc.reason} at byte {exc.start})") from exc


def cmd_run(args) -> int:
    text = _read_text(args.text)
    lexicon = load_lexicon(args.lexicon)
    circuit = compile_text(text, lexicon, args.mechanism)
    world = evaluate(circuit, renormalize_each_step=args.renormalize)
    states = [reduced_state(world, actor.name) for actor in circuit.actors]
    actors = _actor_report(circuit, states)
    if args.format == "json":
        doc = {
            "gates": [g.label for g in circuit.gates],
            "joint_trace": world.trace,
            "actors": actors,
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"gates applied: {len(circuit.gates)}")
    print(f"joint trace: {_fmt_num(world.trace)}")
    for entry, state in zip(actors, states):
        shown = "undefined" if entry["purity"] is None else _fmt_num(entry["purity"])
        print(
            f"{entry['name']} (space {entry['space']}, dim {entry['dim']}): "
            f"trace {_fmt_num(entry['trace'])}, purity {shown}"
        )
        for line in _fmt_matrix(state.matrix):
            print(line)
    return 0


def cmd_demo(args) -> int:
    from .demos import run_black_fuzztones, run_paint_it_black
    runs = (run_paint_it_black(),) if args.name == DEMO_NAMES[0] else run_black_fuzztones()
    all_passed = True
    for run in runs:
        print(f"== {run.title}: {run.actor} ==")
        for step in run.steps:
            print(f"after {step.label} (trace {_fmt_num(step.state.trace)}):")
            for line in _fmt_matrix(step.state.matrix):
                print(line)
        for check in run.checks:
            mark = "PASS" if check.passed else "FAIL"
            print(
                f"{mark} {check.name}: {check.value:.12g} "
                f"{check.relation} {check.threshold:.12g}"
            )
        all_passed = all_passed and run.passed
    print(f"demo result: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 4


def cmd_verify(args) -> int:
    from .properties import run_all
    results = run_all(seed=args.seed, trials=args.trials, dims=args.dims)
    ok = all(r.passed for r in results)
    if args.format == "json":
        doc = {
            "seed": args.seed,
            "trials": args.trials,
            "dims": f"{args.dims[0]}..{args.dims[1]}",
            "passed": ok,
            "results": [dataclasses.asdict(r) for r in results],
        }
        print(json.dumps(doc, indent=2))
        return 0 if ok else 4
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(
            f"{mark} {r.name:28s} max deviation {r.metric:.6e} "
            f"(needs {r.relation} {r.bound:g}, {r.trials} trials)"
        )
    passed = sum(1 for r in results if r.passed)
    print(
        f"verify: {passed}/{len(results)} passed "
        f"(seed {args.seed}, trials {args.trials}, "
        f"dims {args.dims[0]}..{args.dims[1]})"
    )
    return 0 if ok else 4


def cmd_export(args) -> int:
    text = _read_text(args.text)
    lexicon = load_lexicon(args.lexicon)
    circuit = compile_text(text, lexicon, args.mechanism)
    doc = {
        "actors": [
            {
                "name": a.name,
                "space": a.space,
                "dim": a.dim,
                "prior": _matrix_out(a.prior.matrix),
            }
            for a in circuit.actors
        ],
        "gates": [
            {
                "label": g.label,
                "mechanism": g.mechanism,
                "slots": list(g.slots),
                "kraus": [_matrix_out(k) for k in g.kraus],
            }
            for g in circuit.gates
        ],
    }
    print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzphaser",
        description="Update density-matrix meanings through controlled-grammar texts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="evaluate a text file against a lexicon")
    p.add_argument("text", help="path to a UTF-8 text file")
    p.add_argument("--lexicon", required=True, help="path to a JSON lexicon")
    p.add_argument("--mechanism", choices=MECHANISMS, default=None,
                   help="override every gate's default mechanism")
    p.add_argument("--renormalize", action="store_true",
                   help="renormalize the joint state after each gate")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("demo", help="run a shipped example end to end")
    p.add_argument("name", choices=DEMO_NAMES)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("verify", help="run every property check")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=_trials_arg, default=100)
    p.add_argument("--dims", type=_dims_arg, default=(2, 5),
                   help="dimension range, e.g. 2..5")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="dump the compiled circuit as JSON")
    p.add_argument("text", help="path to a UTF-8 text file")
    p.add_argument("--lexicon", required=True, help="path to a JSON lexicon")
    p.add_argument("--mechanism", choices=MECHANISMS, default=None)
    p.set_defaults(func=cmd_export)
    return parser


_parser = functools.cache(build_parser)  # built on main's first call, once per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ZeroTraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FuzzPhaserError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
