"""CLI output on the shipped demo files, recorded in ``golden_cli.json``.

The file holds the exit code, stdout and stderr of ``run`` (text and
json, with and without ``--renormalize``) and ``export`` for every
``demo/`` text x lexicon x ``--mechanism`` (none and each), and of both
``demo``s. All of it must stay byte-identical except the numbers of
``run --format json``, which are full precision: a change in how the
gate kernel rounds may move them by 1e-14 of their scale (the value
itself, or the largest entry of its matrix).

After a change meant to alter this output, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
JSON_RTOL = 1e-14


def _cases() -> list[list[str]]:
    cases = []
    for text in sorted(p.name for p in (ROOT / "demo").glob("*.txt")):
        for lexicon in sorted(p.name for p in (ROOT / "demo").glob("*.json")):
            for mechanism in (None, "projector", "fuzz", "phaser", "ddm"):
                base = [f"demo/{text}", "--lexicon", f"demo/{lexicon}"]
                if mechanism is not None:
                    base += ["--mechanism", mechanism]
                for fmt in ("text", "json"):
                    for renorm in ([], ["--renormalize"]):
                        cases.append(["run", *base, "--format", fmt, *renorm])
                cases.append(["export", *base])
    return cases + [["demo", "paint-it-black"], ["demo", "black-fuzztones"]]


def _invoke(argv: list[str]) -> dict:
    from fuzzphaser.cli import main

    out, err = io.StringIO(), io.StringIO()
    resolved = [str(ROOT / a) if a.startswith("demo/") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _scale(value) -> float:
    if isinstance(value, dict):
        return max(map(_scale, value.values()), default=0.0)
    if isinstance(value, list):
        return max(map(_scale, value), default=0.0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return abs(value)
    return 0.0


def _close(got, want, scale: float) -> bool:
    """Equal structure; numbers within JSON_RTOL of the enclosing field's scale."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_close(got[k], want[k], _scale(want[k])) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w, scale) for g, w in zip(got, want))
        )
    if isinstance(want, float) and type(got) is float:
        return abs(got - want) <= JSON_RTOL * scale
    return type(got) is type(want) and got == want


def _matches(got: dict, want: dict) -> bool:
    if (got["exit"], got["stderr"]) != (want["exit"], want["stderr"]):
        return False
    if want["argv"][0] == "run" and "json" in want["argv"] and want["exit"] == 0:
        return _close(json.loads(got["stdout"]), json.loads(want["stdout"]), 0.0)
    return got["stdout"] == want["stdout"]


def test_cli_output_matches_the_recording():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [case["argv"] for case in recorded] == _cases()
    changed = [
        " ".join(want["argv"])
        for want in recorded
        if not _matches(_invoke(want["argv"]), want)
    ]
    assert not changed, f"{len(changed)} of {len(recorded)} outputs changed: {changed}"


def test_json_comparison_is_relative_to_the_field_scale():
    want = {"trace": 0.2304, "matrix": [[[1.0, 0.0], [0.0, 0.0]]], "name": "Door"}
    near = {"trace": 0.2304 * (1 + 5e-15), "matrix": [[[1.0, 3e-16], [0.0, 0.0]]],
            "name": "Door"}
    assert _close(near, want, 0.0)
    assert not _close({**near, "trace": 0.2305}, want, 0.0)
    assert not _close({**near, "matrix": [[[1.0, 1e-13], [0.0, 0.0]]]}, want, 0.0)
    assert not _close({**near, "name": "Window"}, want, 0.0)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    doc = [_invoke(argv) for argv in _cases()]
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
