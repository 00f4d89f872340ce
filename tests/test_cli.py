import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzphaser import linalg, textcirc
from fuzzphaser.cli import main
from fuzzphaser.density import DensityMatrix, PureState
from fuzzphaser.lexicon import load_lexicon, save_lexicon
from fuzzphaser.properties import run_all
from fuzzphaser.sampling import random_ddm, random_density, random_pure
from fuzzphaser.textcirc import Lexicon, LexiconEntry, compile_text

DEMO_DIR = Path(__file__).resolve().parent.parent / "demo"

#: EIGH_CALL values that pin every gate to the factor or to the dense joint.
ROUTES = {"factor": -math.inf, "dense": math.inf}

ORTHO_LEXICON = {
    "spaces": {"axis": 2},
    "entries": [
        {"name": "X", "space": "axis", "kind": "pure", "mechanism": "projector",
         "data": [[1.0, 0.0], [0.0, 0.0]]},
        {"name": "down", "space": "axis", "kind": "pure", "mechanism": "projector",
         "data": [[0.0, 0.0], [1.0, 0.0]]},
    ],
}


VOID_LEXICON = {
    "spaces": {"axis": 2},
    "entries": [
        {"name": "void", "space": "axis", "kind": "density", "mechanism": "fuzz",
         "data": [[0.0, 0.0], [0.0, 0.0]]},
    ],
}

LINK_LEXICON = {
    "spaces": {"axis": 2},
    "entries": [
        {"name": "links", "space": ["axis", "axis"], "kind": "ddm", "mechanism": "ddm",
         "data": {"factors": [
             {"y": 1.0, "branches": [{"x": 1.0, "phi": [0, 0, 0, 1]}]},
             {"y": 4.0, "branches": [{"x": 1.0, "phi": [1, 0, 0, 0]},
                                     {"x": 0.5, "phi": [0, 1, 0, 0]}]},
         ]}},
    ],
}


HUGE_LEXICON = {
    "spaces": {"axis": 2},
    "entries": [
        {"name": "huge", "space": "axis", "kind": "density", "mechanism": "phaser",
         "data": [[1e200, 0.0], [0.0, 1e200]]},
    ],
}


#: Door's weight 1e30 lies where neither word acts: a roundoff bound from
#: max diag(ρ) and the largest row of the word's operators would be 1e330.
VAST_LEXICON = {
    "spaces": {"axis": 2},
    "entries": [
        {"name": "Door", "space": "axis", "kind": "density", "mechanism": "fuzz",
         "data": [[1.0, 0.0], [0.0, 1e30]]},
        {"name": "vast", "space": "axis", "kind": "density", "mechanism": "phaser",
         "data": [[1e300, 0.0], [0.0, 0.0]]},
        {"name": "wide", "space": "axis", "kind": "ddm", "mechanism": "ddm",
         "data": {"factors": [{"y": 1e300, "branches": [
             {"x": 1.0, "phi": [1, 0]}, {"x": 1e-200, "phi": [0, 1]}]}]}},
    ],
}


def _dim_lexicon(scale: float) -> dict:
    """Door's prior the ket [1, 0], and ``dim`` a phaser by scale·I."""
    return {
        "spaces": {"axis": 2},
        "entries": [
            {"name": "Door", "space": "axis", "kind": "pure", "mechanism": "projector",
             "data": [[1.0, 0.0], [0.0, 0.0]]},
            {"name": "dim", "space": "axis", "kind": "density", "mechanism": "phaser",
             "data": [[scale, 0.0], [0.0, scale]]},
        ],
    }


def _save_big_lexicon(path):
    """A pure dim-4 Door and a phaser word ``big`` of trace 1e3."""
    rng = np.random.default_rng(0)
    big = DensityMatrix(1e3 * random_density(4, rng).matrix)
    entries = [
        LexiconEntry("Door", "c", "pure", "projector", random_pure(4, rng)),
        LexiconEntry("big", "c", "density", "phaser", big),
    ]
    save_lexicon(Lexicon({"c": 4}, entries), path)


#: Door and Window each carry a prior of trace 2e300: no gate needed.
HUGE_PRIORS_LEXICON = {
    "spaces": {"axis": 2},
    "entries": [
        {"name": name, "space": "axis", "kind": "density", "mechanism": "fuzz",
         "data": [[1e300, 0.0], [0.0, 1e300]]}
        for name in ("Door", "Window")
    ],
}


#: A phaser by the identity, which changes no state.
ONE = {"name": "one", "space": "axis", "kind": "density", "mechanism": "phaser",
       "data": [[1.0, 0.0], [0.0, 1.0]]}


#: Door's prior the ket [1, 0], the identity phaser ``one``, phasers
#: ``big`` and ``tall`` by 1e200·I, and ``down``, the projector onto [0, 1].
LATER_LEXICON = {
    "spaces": {"axis": 2},
    "entries": [
        {"name": "Door", "space": "axis", "kind": "pure", "mechanism": "projector",
         "data": [[1.0, 0.0], [0.0, 0.0]]},
        ONE,
        *({"name": name, "space": "axis", "kind": "density", "mechanism": "phaser",
           "data": [[1e200, 0.0], [0.0, 1e200]]} for name in ("big", "tall")),
        {"name": "down", "space": "axis", "kind": "pure", "mechanism": "projector",
         "data": [[0.0, 0.0], [1.0, 0.0]]},
    ],
}


def _save_nouns_lexicon(path, count: int):
    """Nouns n000.. on one dim-4 space, every kind and mechanism in turn."""
    rng = np.random.default_rng(4)
    entries = []
    for i in range(count):
        mechanism = ("projector", "fuzz", "phaser", "ddm")[i % 4]
        if mechanism == "projector":
            kind, operand = "pure", random_pure(4, rng)
        elif mechanism == "ddm":
            kind, operand = "ddm", random_ddm(4, rng)
        else:
            kind, operand = "density", random_density(4, rng, rank=1 + i % 4)
        entries.append(LexiconEntry(f"n{i:03d}", "c", kind, mechanism, operand))
    save_lexicon(Lexicon({"c": 4}, entries), path)


def _ket(*amplitudes) -> list:
    return [[a, 0.0] for a in amplitudes]


def _extreme_lexicon(*entries) -> dict:
    """Door's prior the ket [1, 0], the identity phaser ``one`` and the verb
    ``joins`` (the identity on two actors), then ``entries``."""
    door = {"name": "Door", "space": "axis", "kind": "pure", "mechanism": "projector",
            "data": _ket(1.0, 0.0)}
    joins = {"name": "joins", "space": ["axis", "axis"], "kind": "density",
             "mechanism": "phaser", "data": np.eye(4).tolist()}
    named = {e["name"] for e in entries}
    return {"spaces": {"axis": 2},
            "entries": [e for e in (door, ONE, joins) if e["name"] not in named] + list(entries)}


def _clean_main(capsys, argv):
    """main(argv): its exit code, stdout and stderr, checked to hold no
    traceback and to have raised no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out, err


def _assert_report(out: str, fmt: str, joint: float, states: dict):
    """The run reports the joint trace ``joint`` and, for each actor named
    in ``states``, its (trace, real matrix)."""
    if fmt == "text":
        assert f"joint trace: {joint:.6g}\n" in out
        for name, (trace, _) in states.items():
            assert f"{name} (space axis, dim 2): trace {trace:.6g}," in out
        return
    doc = json.loads(out)
    assert doc["joint_trace"] == pytest.approx(joint, rel=1e-12)
    actors = {a["name"]: a for a in doc["actors"]}
    for name, (trace, matrix) in states.items():
        assert actors[name]["trace"] == pytest.approx(trace, rel=1e-12)
        got = np.array(actors[name]["matrix"])
        assert np.abs(got[..., 0] - matrix).max() <= 1e-12 * np.abs(matrix).max()
        assert np.abs(got[..., 1]).max() <= 1e-12 * np.abs(matrix).max()


def _write(tmp_path, lexicon, text):
    lex = tmp_path / "lexicon.json"
    lex.write_text(json.dumps(lexicon))
    path = tmp_path / "text.txt"
    path.write_text(text)
    return str(path), str(lex)


@pytest.fixture
def ortho(tmp_path):
    lex = tmp_path / "ortho.json"
    lex.write_text(json.dumps(ORTHO_LEXICON))
    text = tmp_path / "kill.txt"
    text.write_text("X turns down.\n")
    return text, lex


class TestRun:
    def test_text_output(self, capsys):
        code = main([
            "run", str(DEMO_DIR / "paint_it_black.txt"),
            "--lexicon", str(DEMO_DIR / "colors.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "gates applied: 2" in out
        assert "joint trace: 0.2304" in out
        assert "Door (space concepts, dim 4)" in out

    def test_json_output(self, capsys):
        code = main([
            "run", str(DEMO_DIR / "black_metal.txt"),
            "--lexicon", str(DEMO_DIR / "fuzztones.json"),
            "--renormalize", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["joint_trace"] == pytest.approx(1.0)
        assert doc["gates"] == ["Metal is black"]
        (metal,) = doc["actors"]
        assert metal["purity"] == pytest.approx(0.5)
        assert metal["matrix"][0][0] == [pytest.approx(0.5), 0.0]

    def test_mechanism_override(self, capsys):
        code = main([
            "run", str(DEMO_DIR / "paint_it_black.txt"),
            "--lexicon", str(DEMO_DIR / "colors.json"),
            "--mechanism", "phaser", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["joint_trace"] == pytest.approx(0.2304)

    def test_missing_text_file(self, capsys):
        code = main(["run", "no_such.txt", "--lexicon", str(DEMO_DIR / "colors.json")])
        assert code == 2
        assert "no_such.txt" in capsys.readouterr().err

    def test_missing_lexicon_file(self, capsys):
        code = main([
            "run", str(DEMO_DIR / "paint_it_black.txt"), "--lexicon", "no_such.json",
        ])
        assert code == 2
        assert "no_such.json" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("Door turns red")
        code = main(["run", str(bad), "--lexicon", str(DEMO_DIR / "colors.json")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_unknown_word(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("Door turns plaid.\n")
        code = main(["run", str(text), "--lexicon", str(DEMO_DIR / "colors.json")])
        assert code == 2
        assert "plaid" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "  \n\t\n"])
    @pytest.mark.parametrize("flags", [[], ["--renormalize"]])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_text_applies_no_gate(self, tmp_path, capsys, fmt, flags, text):
        """A text without a sentence has no actor and no block: it reports
        no gate and a joint trace of 1 in both modes."""
        path = tmp_path / "empty.txt"
        path.write_text(text)
        lex = str(DEMO_DIR / "colors.json")
        code, out, _ = _clean_main(capsys, ["run", str(path), "--lexicon", lex, "--format", fmt, *flags])
        assert code == 0
        if fmt == "text":
            assert out == "gates applied: 0\njoint trace: 1\n"
        else:
            assert json.loads(out) == {"gates": [], "joint_trace": 1.0, "actors": []}

    def test_annihilation_exit_code(self, ortho, capsys):
        text, lex = ortho
        code = main(["run", str(text), "--lexicon", str(lex), "--renormalize"])
        assert code == 3
        assert "annihilated" in capsys.readouterr().err

    def test_annihilation_without_renormalize_is_fine(self, ortho, capsys):
        text, lex = ortho
        code = main(["run", str(text), "--lexicon", str(lex)])
        out = capsys.readouterr().out
        assert code == 0
        assert "purity undefined" in out


    def test_tiny_trace_renormalizes(self, tmp_path, capsys):
        """A phaser by 1e-14·I leaves trace 1e-14, not 0: renormalized, it
        is Door's pure state."""
        text, lex = _write(tmp_path, _dim_lexicon(1e-14), "Door is dim.\n")
        assert main(["run", text, "--lexicon", lex, "--renormalize"]) == 0
        out = capsys.readouterr().out
        assert "joint trace: 1\n" in out
        assert "trace 1, purity 1\n  [1+0j, 0+0j]\n  [0+0j, 0+0j]\n" in out

    @pytest.mark.parametrize("route", [-math.inf, math.inf], ids=["factor", "dense"])
    @pytest.mark.parametrize("scale, repeats, shown", [(1e-5, 3, "1e-15"), (1e-310, 1, "1e-310")])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_tiny_trace_keeps_its_purity(
        self, tmp_path, capsys, monkeypatch, fmt, scale, repeats, shown, route
    ):
        """Phasers by scale·I leave Door's ket at a trace of 1e-15, or one
        below the normal float range, still pure."""
        monkeypatch.setattr(textcirc, "EIGH_CALL", route)
        text, lex = _write(tmp_path, _dim_lexicon(scale), "Door is dim. " * repeats + "\n")
        assert main(["run", text, "--lexicon", lex, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "text":
            assert f"trace {shown}, purity 1\n" in out
        else:
            (door,) = json.loads(out)["actors"]
            assert door["trace"] == pytest.approx(float(shown), rel=1e-12)
            assert door["purity"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("pair", ["rational", "haar", "haar-dim-4"])
    def test_annihilation_by_non_basis_pair(self, tmp_path, capsys, monkeypatch, pair):
        """Orthogonal kets off the basis leave roundoff, which must read as 0.

        Calls and passes cost nothing here, so that the projector takes the
        thin route.
        """
        monkeypatch.setattr(textcirc, "CALL_COST", 0)
        monkeypatch.setattr(textcirc, "PASS_COST", 0)
        rng = np.random.default_rng(5)
        if pair == "rational":
            x, down = np.array([0.6, 0.8]), np.array([0.8, -0.6])
        elif pair == "haar":
            x = random_pure(2, rng).amplitudes
            down = np.array([-np.conj(x[1]), np.conj(x[0])])
        else:
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            x, down = np.linalg.qr(z)[0][:, :2].T
        entries = [
            LexiconEntry("X", "axis", "pure", "projector", PureState(x)),
            LexiconEntry("down", "axis", "pure", "projector", PureState(down)),
        ]
        lexicon = Lexicon({"axis": x.size}, entries)
        assert compile_text("X turns down.", lexicon).gates[0].plan.thin
        lex = tmp_path / "ortho.json"
        save_lexicon(lexicon, lex)
        text = tmp_path / "kill.txt"
        text.write_text("X turns down.\n")
        assert main(["run", str(text), "--lexicon", str(lex)]) == 0
        out = capsys.readouterr().out
        assert "joint trace: 0\n" in out
        assert "purity undefined" in out
        assert main(["run", str(text), "--lexicon", str(lex), "--renormalize"]) == 3
        assert "annihilated" in capsys.readouterr().err

    def test_fuzz_without_positive_eigenvalue(self, tmp_path, capsys):
        text, lex = _write(tmp_path, VOID_LEXICON, "Door is void.\n")
        assert main(["run", text, "--lexicon", lex]) == 0
        assert "joint trace: 0" in capsys.readouterr().out
        assert main(["run", text, "--lexicon", lex, "--renormalize"]) == 3
        assert "annihilated" in capsys.readouterr().err
        assert main(["export", text, "--lexicon", lex]) == 0
        assert json.loads(capsys.readouterr().out)["gates"][0]["kraus"] == []

    @pytest.mark.parametrize("repeats", [3, 4])
    def test_large_trace_text_evaluates(self, tmp_path, capsys, repeats):
        lex = tmp_path / "big.json"
        _save_big_lexicon(lex)
        text = tmp_path / "big.txt"
        text.write_text("Door is big. " * repeats + "\n")
        assert main(["run", str(text), "--lexicon", str(lex)]) == 0
        assert "Door (space c, dim 4)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, mechanism, thin",
        [("Door is vast.", "phaser", True), ("Door is vast.", "fuzz", True),
         ("Door is wide.", "ddm", False)],
        ids=["phaser-thin", "fuzz-thin", "ddm-kraus"],
    )
    def test_roundoff_bound_does_not_overflow(
        self, tmp_path, capsys, monkeypatch, text, mechanism, thin
    ):
        """Calls and passes cost nothing here, so that routes go by multiply-adds."""
        monkeypatch.setattr(textcirc, "CALL_COST", 0)
        monkeypatch.setattr(textcirc, "PASS_COST", 0)
        path, lex = _write(tmp_path, VAST_LEXICON, text + "\n")
        gate = compile_text(text, load_lexicon(lex), mechanism).gates[0]
        assert gate.plan.thin == thin
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", path, "--lexicon", lex, "--mechanism", mechanism,
                         "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 0 and err == "" and not caught
        assert json.loads(out)["joint_trace"] == pytest.approx(1e300, rel=1e-12)

    def test_overflowing_state_is_input_error(self, tmp_path, capsys):
        text, lex = _write(tmp_path, HUGE_LEXICON, "Door is huge. Door is huge.\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", text, "--lexicon", lex]) == 2
        lines = capsys.readouterr().err.splitlines()
        errors = [line for line in lines if line.startswith("error: ")]
        assert len(errors) == 1 and "finite" in errors[0]
        assert '"Door is huge"' in errors[0]
        assert not any(line.startswith("Traceback") for line in lines)
        assert not any("RuntimeWarning" in line for line in lines)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


    def test_unlinked_actors_evaluate_each_on_its_own(self, tmp_path, capsys):
        """Seven dim-4 actors that no verb joins (4^7 = 16384, past the cap
        on a component's dimension) evaluate, and each actor's state is
        that of its own one-actor text."""
        lex = tmp_path / "nouns.json"
        _save_nouns_lexicon(lex, 7)
        text = tmp_path / "seven.txt"
        text.write_text("".join(f"B{i} is n{i:03d}. " for i in range(7)) + "\n")
        assert main(["run", str(text), "--lexicon", str(lex), "--renormalize",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["joint_trace"] == pytest.approx(1.0, rel=1e-12)
        for i, actor in enumerate(doc["actors"]):
            alone = tmp_path / f"b{i}.txt"
            alone.write_text(f"B{i} is n{i:03d}.\n")
            assert main(["run", str(alone), "--lexicon", str(lex), "--renormalize",
                         "--format", "json"]) == 0
            (own,) = json.loads(capsys.readouterr().out)["actors"]
            assert actor["name"] == own["name"] == f"B{i}"
            assert actor["trace"] == pytest.approx(own["trace"], rel=1e-12)
            ours, theirs = np.array(actor["matrix"]), np.array(own["matrix"])
            assert np.abs(ours - theirs).max() <= 1e-12 * np.abs(theirs).max()

    @pytest.mark.parametrize(
        "lexicon, text, where",
        [(HUGE_LEXICON, "Door is huge. Window is huge.\n", '"Window is huge"'),
         (HUGE_PRIORS_LEXICON, "Once there was Door. Once there was Window.\n", "priors")],
        ids=["gates", "priors"],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_trace_overflow_across_blocks_is_input_error(
        self, tmp_path, capsys, lexicon, text, where, fmt
    ):
        """Two unjoined actors whose traces, each finite, multiply past the
        float range: the joint trace is not finite, so the text fails as
        an overflowing joint would, with no inf or Infinity printed."""
        path, lex = _write(tmp_path, lexicon, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", path, "--lexicon", lex, "--format", fmt]) == 2
        out, err = capsys.readouterr()
        lines = err.splitlines()
        errors = [line for line in lines if line.startswith("error: ")]
        assert len(errors) == 1 and "finite" in errors[0] and where in errors[0]
        assert out == ""
        assert not any(line.startswith("Traceback") for line in lines)
        assert not any("RuntimeWarning" in line for line in lines)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "text", ["Once there was Door. Once there was Window.\n",
                 "Once there was Door. Once there was Window. Door is one.\n"],
        ids=["priors", "gate"],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_priors_renormalize(self, tmp_path, capsys, fmt, text):
        """The two priors of trace 2e300 above, renormalized: every world,
        the priors' too, is read at unit trace, so the likelihood's
        overflow does not stop the run."""
        lexicon = dict(HUGE_PRIORS_LEXICON, entries=HUGE_PRIORS_LEXICON["entries"] + [ONE])
        path, lex = _write(tmp_path, lexicon, text)
        assert main(["run", path, "--lexicon", lex, "--renormalize", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "text":
            assert "joint trace: 1\n" in out and out.count("trace 1, purity 0.5\n") == 2
        else:
            doc = json.loads(out)
            assert doc["joint_trace"] == pytest.approx(1.0, rel=1e-12)
            assert [a["trace"] for a in doc["actors"]] == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_largest_floats_load(self, tmp_path, capsys):
        """A density prior of entry 1.7e308, past half the float maximum,
        loads and evaluates: its Hermitian part does not overflow."""
        lexicon = {"spaces": {"axis": 2}, "entries": [
            {"name": "Door", "space": "axis", "kind": "density", "mechanism": "fuzz",
             "data": [[1.7e308, 0.0], [0.0, 0.0]]}, ONE]}
        path, lex = _write(tmp_path, lexicon, "Door is one.\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", path, "--lexicon", lex]) == 0
        out, err = capsys.readouterr()
        assert "joint trace: 1.7e+308\n" in out and "trace 1.7e+308, purity 1\n" in out
        assert err == "" and not caught

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("renormalize", [False, True], ids=["likelihood", "renormalize"])
    @pytest.mark.parametrize("word", [
        {"name": "w", "space": "axis", "kind": "pure", "mechanism": "projector",
         "data": _ket(1e200, 1e200)},
        {"name": "w", "space": "axis", "kind": "pure", "mechanism": "projector",
         "data": _ket(1e-200, 1e-200)},
        {"name": "w", "space": "axis", "kind": "pure", "mechanism": "projector",
         "data": _ket(1.5e308, 1.5e308)},
        {"name": "w", "space": "axis", "kind": "ddm", "mechanism": "ddm",
         "data": {"factors": [{"y": 1.0, "branches": [{"x": 1.0, "phi": [1e200, 1e200]}]}]}},
        {"name": "w", "space": "axis", "kind": "pure", "mechanism": "projector",
         "data": _ket(5e-324, 5e-324)},
        {"name": "w", "space": "axis", "kind": "ddm", "mechanism": "ddm",
         "data": {"factors": [{"y": 1.0, "branches": [{"x": 1.0, "phi": [5e-324, 5e-324]}]}]}},
    ], ids=["huge-projector", "tiny-projector", "norm-past-max-projector", "huge-ddm-branch",
            "subnormal-projector", "subnormal-ddm-branch"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_extreme_kets_take_their_direction(
        self, tmp_path, capsys, monkeypatch, fmt, word, renormalize, route
    ):
        """A projector word or ddm branch uses only its ket's direction, so
        a ket whose squared norm, or even its norm, leaves the float range
        evaluates, subnormal amplitudes too: Door's |0⟩ projected onto
        [1, 1]/√2 has trace 1/2."""
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES[route])
        path, lex = _write(tmp_path, _extreme_lexicon(word), "Door is w.\n")
        argv = ["run", path, "--lexicon", lex, "--format", fmt]
        code, out, err = _clean_main(capsys, argv + ["--renormalize"] * renormalize)
        assert code == 0 and err == ""
        scale = 2.0 if renormalize else 1.0
        _assert_report(out, fmt, scale / 2, {"Door": (scale / 2, np.full((2, 2), scale / 4))})

    @pytest.mark.parametrize("entry, name", [
        ({"name": "Door", "space": "axis", "kind": "pure", "mechanism": "projector",
          "data": _ket(1e200, 1e200)}, "entry 'Door'"),
        ({"name": "Door", "space": "axis", "kind": "pure", "mechanism": "projector",
          "data": _ket(1e-200, 1e-200)}, "entry 'Door'"),
        ({"name": "one", "space": "axis", "kind": "pure", "mechanism": "fuzz",
          "data": _ket(1e200, 1e200)}, "entry 'one'"),
        ({"name": "one", "space": "axis", "kind": "pure", "mechanism": "phaser",
          "data": _ket(1e200, 1e200)}, "entry 'one'"),
        ({"name": "one", "space": "axis", "kind": "pure", "mechanism": "phaser",
          "data": _ket(1e-200, 1e-200)}, "entry 'one'"),
    ], ids=["huge-prior", "tiny-prior", "huge-fuzz", "huge-phaser", "tiny-phaser"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_ket_squared_past_the_float_range_is_input_error(
        self, tmp_path, capsys, fmt, entry, name
    ):
        """A ket prior's |ψ⟩⟨ψ|, or a pure fuzz or phaser operand's, is formed
        from |ψ|², so where that leaves the float range the text exits 2,
        naming the actor or the word."""
        path, lex = _write(tmp_path, _extreme_lexicon(entry), "Door is one.\n")
        code, out, err = _clean_main(capsys, ["run", path, "--lexicon", lex, "--format", fmt])
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert code == 2 and out == ""
        assert len(errors) == 1 and name in errors[0] and "float range" in errors[0]

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("text", ["Once there was Door.\n", "Door is one.\n"],
                             ids=["priors", "gate"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prior_past_the_float_range(self, tmp_path, capsys, monkeypatch, fmt, text, route):
        """A density prior whose trace, 2e308, and eigenvalue are past the
        float range: the likelihood is not finite at the priors, and
        renormalized, Door is the pure state onto [1, 1]/√2."""
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES[route])
        prior = {"name": "Door", "space": "axis", "kind": "density", "mechanism": "fuzz",
                 "data": [[1e308, 1e308], [1e308, 1e308]]}
        path, lex = _write(tmp_path, _extreme_lexicon(prior), text)
        code, out, err = _clean_main(capsys, ["run", path, "--lexicon", lex, "--format", fmt])
        assert code == 2 and out == ""
        assert err == "error: joint state is not finite at the priors\n"
        code, out, err = _clean_main(
            capsys, ["run", path, "--lexicon", lex, "--format", fmt, "--renormalize"]
        )
        assert code == 0 and err == ""
        _assert_report(out, fmt, 1.0, {"Door": (1.0, np.full((2, 2), 0.5))})

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("scale", [1e-200, 1e300])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_joined_priors_at_any_scale(self, tmp_path, capsys, monkeypatch, fmt, scale, route):
        """Door and Window with prior scale·I, joined by the identity:
        their product leaves the float range, yet renormalized each is I/2."""
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES[route])
        priors = [{"name": name, "space": "axis", "kind": "density", "mechanism": "fuzz",
                   "data": [[scale, 0.0], [0.0, scale]]} for name in ("Door", "Window")]
        path, lex = _write(tmp_path, _extreme_lexicon(*priors), "Door joins Window.\n")
        code, out, err = _clean_main(
            capsys, ["run", path, "--lexicon", lex, "--format", fmt, "--renormalize"]
        )
        assert code == 0 and err == ""
        half = (1.0, np.eye(2) / 2)
        _assert_report(out, fmt, 1.0, {"Door": half, "Window": half})

    def test_component_over_the_cap_is_input_error(self, tmp_path, capsys, monkeypatch):
        """One noun on a space of DIM_CAP + 1 exits 2 before any prior is built."""

        def refuse(dim):
            raise AssertionError(f"a prior of dimension {dim} was built")

        monkeypatch.setattr(DensityMatrix, "maximally_mixed", staticmethod(refuse))
        dim = linalg.DIM_CAP + 1
        word = LexiconEntry("w", "big", "pure", "projector", PureState.basis(dim, 0))
        lex = tmp_path / "big.json"
        save_lexicon(Lexicon({"big": dim}, [word]), lex)
        text = tmp_path / "big.txt"
        text.write_text("A is w.\n")
        assert main(["run", str(text), "--lexicon", str(lex)]) == 2
        out, err = capsys.readouterr()
        lines = err.splitlines()
        errors = [line for line in lines if line.startswith("error: ")]
        assert len(errors) == 1 and "exceeds cap" in errors[0]
        assert out == ""
        assert not any(line.startswith("Traceback") for line in lines)

    @pytest.mark.parametrize(
        "text, mechanism, thin",
        [("Door is vast.", "phaser", True), ("Door is vast.", "fuzz", True),
         ("Door is wide.", "ddm", False)],
        ids=["phaser-thin", "fuzz-thin", "ddm-kraus"],
    )
    def test_roundoff_bound_does_not_overflow_on_the_factor(
        self, tmp_path, capsys, monkeypatch, text, mechanism, thin
    ):
        """As above, with every gate on the factor ρ = L L†."""
        monkeypatch.setattr(textcirc, "EIGH_CALL", -math.inf)
        self.test_roundoff_bound_does_not_overflow(
            tmp_path, capsys, monkeypatch, text, mechanism, thin
        )

    @pytest.mark.parametrize(
        "text, flags, code, where, failing",
        [("Door is one. Door is big. Door is one. Door is tall. Door is one.\n", [], 2,
          'joint state is not finite after "Door is tall"', "Door is tall"),
         ("Door is one. Door is one. Door turns down. Door is one.\n", ["--renormalize"], 3,
          "annihilated the state", "Door turns down")],
        ids=["overflow", "annihilation"],
    )
    def test_later_dense_gate_is_named(
        self, tmp_path, capsys, monkeypatch, text, flags, code, where, failing
    ):
        """A likelihood that overflows, or a state annihilated under
        --renormalize, at a dense gate after the block's first: the exit
        code and the error are those of the sentence that failed."""
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES["dense"])
        dense, apply = [], textcirc._apply_gate
        monkeypatch.setattr(
            textcirc, "_apply_gate", lambda *args: dense.append(args[2].label) or apply(*args)
        )
        path, lex = _write(tmp_path, LATER_LEXICON, text)
        result, out, err = _clean_main(capsys, ["run", path, "--lexicon", lex, *flags])
        assert result == code and out == ""
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and where in errors[0]
        assert dense == [s.strip() for s in text.split(".")][: len(dense)]
        assert len(dense) >= 3 and dense[-1] == failing

    def test_overflowing_state_is_input_error_on_the_factor(
        self, tmp_path, capsys, monkeypatch
    ):
        """As above, with every gate on the factor ρ = L L†."""
        monkeypatch.setattr(textcirc, "EIGH_CALL", -math.inf)
        self.test_overflowing_state_is_input_error(tmp_path, capsys)


class TestDemo:
    def test_both_demos_pass(self, capsys):
        for name in ("paint-it-black", "black-fuzztones"):
            assert main(["demo", name]) == 0
            out = capsys.readouterr().out
            assert "demo result: PASS" in out
            assert "FAIL" not in out

    def test_narrative_shows_each_sentence(self, capsys):
        main(["demo", "paint-it-black"])
        out = capsys.readouterr().out
        assert "after priors" in out
        assert "after Door turns red" in out
        assert "after Door turns black" in out

    def test_unknown_name_is_input_error(self):
        with pytest.raises(SystemExit) as err:
            main(["demo", "mellow-yellow"])
        assert err.value.code == 2


#: Every verify check of ``run_all(trials=5, dims=(2, 3))``, in order:
#: (name, relation, bound, trials, detail).
VERIFY_CHECKS = [
    ('spectral-reconstruction', '<', 1e-09, 5,
     'grouped eigendecomposition rebuilds every Hermitian input'),
    ('matrix-sqrt', '<', 1e-09, 5,
     'principal square root squares back and stays PSD'),
    ('phaser-as-spider', '<', 1e-09, 5,
     'plugging root weights into a spider reproduces √σρ√σ'),
    ('phaser-pure-components', '<', 1e-09, 5,
     'phaser keeps pure states pure and scales each eigencomponent by xᵢ'),
    ('fuzz-decoherence-trace', '<', 1e-09, 20,
     'fuzz preserves the trace when every grouped eigenvalue is 1'),
    ('fuzz-trace-witness', '>', 1e-06, 5,
     'any eigenvalue away from 1 yields a trace-deviation witness'),
    ('phaser-unimodular-trace', '<', 1e-09, 5,
     'phaser with unimodular weights preserves the trace'),
    ('phaser-trace-witness', '>', 1e-06, 5,
     'any weight modulus away from 1 yields a trace-deviation witness'),
    ('ddm-reduces-to-fuzz', '<', 1e-09, 5,
     'keeping only the outer mixture reproduces the fuzz'),
    ('ddm-reduces-to-phaser', '<', 1e-09, 5,
     'keeping only the inner mixture reproduces the phaser'),
    ('ddm-choi-psd', '<', 1e-09, 5,
     'every double-mixture channel is completely positive'),
    ('ddm-kraus-form', '<', 1e-09, 5,
     'all Kraus factors, canonical or not, are Hermitian PSD'),
    ('ddm-rescaling', '<', 1e-09, 5,
     'y ↦ c²y with x ↦ x/c and canonicalization leave the channel alone'),
    ('ddm-state-encoding', '<', 1e-09, 5,
     'the doubled-space state is PSD and recovers the channel'),
    ('ddm-linearity', '<', 1e-09, 5,
     'the double-mixture update is linear in its state argument'),
    ('fuzz-nonadditivity', '>', 0.001, 10,
     'fuzz is not additive in its operand, so it is no CP map on ρ⊗σ'),
    ('phaser-nonadditivity', '>', 0.001, 10,
     'phaser is not additive in its operand, so it is no CP map on ρ⊗σ'),
    ('fuzz-nonassociativity', '>', 0.001, 10,
     'fuzz fails associativity as a binary connective'),
    ('phaser-nonassociativity', '>', 0.001, 10,
     'phaser fails associativity as a binary connective'),
    ('fuzz-noncommutativity', '>', 0.001, 10,
     'fuzz updates depend on their order'),
    ('phaser-noncommutativity', '>', 0.001, 10,
     'phaser updates depend on their order'),
    ('commuting-operands', '<', 1e-09, 5,
     'operands with a shared eigenbasis update in either order'),
    ('spider-fusion', '<', 1e-12, 864,
     'same-basis spiders fuse into one spider over every leg choice'),
    ('spider-basis-dependence', '>', 0.001, 1,
     'spiders over bases with overlap 0.8 do not fuse'),
    ('phase-unitarity', '<', 1e-09, 5,
     'unimodular phase kets plugged into a spider give a unitary gate'),
    ('mechanism-coherence', '<', 1e-09, 5,
     'a ddm gate built from σ acts exactly like the phaser gate on σ'),
    ('disjoint-gates-commute', '<', 1e-09, 3,
     'gates on disjoint actor pairs commute'),
    ('evaluation-determinism', '==', 0.0, 2,
     're-evaluating the same circuit is bit-identical'),
    ('local-kernel-matches-dense', '<', 1e-10, 5,
     'gates applied on their own wires match the embedded dense route (relative)'),
]


class TestVerify:
    def test_every_check_is_pinned(self):
        """No check is dropped, renamed, reordered or loosened unnoticed."""
        results = run_all(trials=5, dims=(2, 3))
        assert [(r.name, r.relation, r.bound, r.trials, r.detail) for r in results] == VERIFY_CHECKS
        assert all(r.passed for r in results)

    def test_all_pass_text(self, capsys):
        code = main(["verify", "--trials", "10", "--dims", "2..3"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 29
        assert all(l.startswith("PASS") for l in lines)
        assert "verify: 29/29 passed" in out

    def test_dims_from_one(self, capsys):
        """At d = 1 no operand witnesses a broken trace preservation, so the
        witness checks draw their dimensions from 2 up."""
        code = main(["verify", "--seed", "7", "--trials", "30", "--dims", "1..4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: 29/29 passed (seed 7, trials 30, dims 1..4)" in out

    def test_dims_of_one_only(self, capsys):
        """At d = 1 every operand is a scalar, so neither fuzz nor phaser
        can be shown not additive, associative or commutative there: those
        six witnesses draw their dimensions from 2 up too."""
        code = main(["verify", "--seed", "3", "--trials", "10", "--dims", "1..1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: 29/29 passed (seed 3, trials 10, dims 1..1)" in out

    def test_json_format(self, capsys):
        code = main(["verify", "--trials", "5", "--dims", "2..3", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["seed"] == 1729
        assert len(doc["results"]) == 29
        names = {r["name"] for r in doc["results"]}
        assert "phaser-as-spider" in names and "spider-fusion" in names
        assert "local-kernel-matches-dense" in names

    def test_deterministic_output(self, capsys):
        main(["verify", "--trials", "5", "--dims", "2..3"])
        first = capsys.readouterr().out
        main(["verify", "--trials", "5", "--dims", "2..3"])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_metrics(self, capsys):
        main(["verify", "--trials", "5", "--dims", "2..3"])
        first = capsys.readouterr().out
        main(["verify", "--trials", "5", "--dims", "2..3", "--seed", "7"])
        second = capsys.readouterr().out
        assert first != second

    def test_bad_dims_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--dims", "5..2"])
        assert err.value.code == 2
        with pytest.raises(SystemExit):
            main(["verify", "--dims", "banana"])

    @pytest.mark.parametrize("trials", ["0", "-3", "two"])
    def test_bad_trials_rejected(self, capsys, trials):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--trials", trials])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == "" and "--trials: expected a positive integer" in err_text
        assert "Traceback" not in err_text


class TestExport:
    def test_circuit_document(self, capsys):
        code = main([
            "export", str(DEMO_DIR / "paint_it_black.txt"),
            "--lexicon", str(DEMO_DIR / "colors.json"),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        (door,) = doc["actors"]
        assert door["name"] == "Door" and door["dim"] == 4
        assert [g["label"] for g in doc["gates"]] == [
            "Door turns red", "Door turns black",
        ]
        for gate in doc["gates"]:
            assert gate["mechanism"] == "projector"
            assert gate["slots"] == [0]
            (kraus,) = gate["kraus"]
            assert len(kraus) == 4 and len(kraus[0]) == 4

    def test_fuzz_gate_exports_grouped_kraus(self, capsys):
        code = main([
            "export", str(DEMO_DIR / "black_door.txt"),
            "--lexicon", str(DEMO_DIR / "fuzztones.json"),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        (gate,) = doc["gates"]
        assert gate["mechanism"] == "fuzz"
        # sigma_black has one eigen-group (eigenvalue 1, rank 2): one factor
        (kraus,) = gate["kraus"]
        assert kraus[0][0] == [pytest.approx(1.0), 0.0]
        assert kraus[1][1] == [pytest.approx(1.0), 0.0]
        assert kraus[2][2] == [0.0, 0.0]


    def test_ddm_gate_exports_lexicon_factors_in_order(self, tmp_path, capsys):
        text, lex = _write(tmp_path, LINK_LEXICON, "Ann links Bob.\n")
        assert main(["export", text, "--lexicon", lex]) == 0
        (gate,) = json.loads(capsys.readouterr().out)["gates"]
        diagonals = [[entry[i][0] for i, entry in enumerate(k)] for k in gate["kraus"]]
        assert diagonals == [[0.0, 0.0, 0.0, 1.0], [2.0, 1.0, 0.0, 0.0]]


class TestInputFiles:
    @pytest.mark.parametrize("command", ["run", "export"])
    @pytest.mark.parametrize("bad", ["text", "lexicon"])
    def test_file_that_is_not_utf8_is_input_error(self, tmp_path, capsys, command, bad):
        """A text or lexicon file with a byte that is not UTF-8 exits 2 with
        one error line that names the file, and no traceback."""
        text, lex = _write(tmp_path, _extreme_lexicon(), "Door is one.\nDoor is one.\n")
        path = text if bad == "text" else lex
        raw = Path(path).read_bytes()
        cut = raw.index(b"\n") + 1 if bad == "text" else raw.index(b"axis")  # in a name
        Path(path).write_bytes(raw[:cut] + b"\xff" + raw[cut:])
        code, out, err = _clean_main(capsys, [command, text, "--lexicon", lex])
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert path in lines[0] and "UTF-8" in lines[0]
        if bad == "text":
            assert lines[0].startswith("error: line 2: ")

    @pytest.mark.parametrize("where", ["density", "x", "y"])
    def test_integer_past_the_float_range_is_input_error(self, tmp_path, capsys, where):
        """An integer literal of 400 digits in a lexicon, as a matrix entry
        or a ddm weight, exits 2 naming its entry."""
        huge = "1" + "0" * 399
        lexicon = _extreme_lexicon(
            {"name": "Door", "space": "axis", "kind": "density", "mechanism": "fuzz",
             "data": [[1.0, 0.0], [0.0, 0.0]]},
            {"name": "w", "space": "axis", "kind": "ddm", "mechanism": "ddm",
             "data": {"factors": [{"y": 1.0, "branches": [{"x": 1.0, "phi": [1.0, 0.0]}]}]}},
        )
        doc = json.dumps(lexicon)
        target = {"density": "[[1.0, 0.0], [0.0, 0.0]]", "x": '"x": 1.0', "y": '"y": 1.0'}[where]
        entry = "Door" if where == "density" else "w"
        replaced = {"density": f"[[{huge}, 0.0], [0.0, 0.0]]", "x": f'"x": {huge}',
                    "y": f'"y": {huge}'}[where]
        text, lex = _write(tmp_path, lexicon, "Door is w.\n")
        Path(lex).write_text(doc.replace(target, replaced, 1))
        code, out, err = _clean_main(capsys, ["run", text, "--lexicon", lex])
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and f"'{entry}'" in lines[0] and "too large" in lines[0]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_fuzz_eigenvalue(self, tmp_path, capsys, fmt):
        """A fuzz by 1e308·I, whose one eigen-group has a mean past the float
        maximum if summed as it is: renormalized, Door keeps its ket; in
        likelihood mode the second gate takes the likelihood past the float
        range, and the run exits 2 naming it."""
        word = {"name": "w", "space": "axis", "kind": "density", "mechanism": "fuzz",
                "data": [[1e308, 0.0], [0.0, 1e308]]}
        path, lex = _write(tmp_path, _extreme_lexicon(word), "Door is w. Door is w.\n")
        argv = ["run", path, "--lexicon", lex, "--format", fmt]
        code, out, err = _clean_main(capsys, argv + ["--renormalize"])
        assert code == 0 and err == ""
        _assert_report(out, fmt, 1.0, {"Door": (1.0, np.diag([1.0, 0.0]))})
        code, out, err = _clean_main(capsys, argv)
        assert code == 2 and out == ""
        assert err == 'error: joint state is not finite after "Door is w"\n'

    @pytest.mark.parametrize("renormalize", [False, True], ids=["likelihood", "renormalize"])
    def test_ddm_kraus_factor_past_the_float_range(self, tmp_path, capsys, renormalize):
        """A ddm entry with y = x = 1e308: its Kraus factor √y·x·|φ⟩⟨φ| passes
        the float range, so the run exits 2 with one error line naming the
        entry, and no warning."""
        word = {"name": "w", "space": "axis", "kind": "ddm", "mechanism": "ddm",
                "data": {"factors": [{"y": 1e308, "branches": [{"x": 1e308, "phi": [1.0, 0.0]}]}]}}
        path, lex = _write(tmp_path, _extreme_lexicon(word), "Door is w.\n")
        argv = ["run", path, "--lexicon", lex] + ["--renormalize"] * renormalize
        code, out, err = _clean_main(capsys, argv)
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: entry 'w': ")
        assert "float range" in lines[0]

    @pytest.mark.parametrize("branches", [
        [{"x": 1e308, "phi": [1.0, 0.0]}],
        [{"x": 6e307, "phi": [1.0, 0.0]}, {"x": 6e307, "phi": [0.0, 1.0]}],
    ], ids=["one-branch", "two-orthogonal"])
    def test_ddm_kraus_factor_at_the_float_range(self, tmp_path, capsys, branches):
        """A ddm entry with y = 1 whose Kraus factor has entries up to 1e308,
        all finite: renormalized, Door keeps its ket; in likelihood mode the
        gate takes the likelihood past the float range, and the run exits 2
        naming it."""
        factors = [{"y": 1.0, "branches": [dict(b, phi=_ket(*b["phi"])) for b in branches]}]
        word = {"name": "w", "space": "axis", "kind": "ddm", "mechanism": "ddm",
                "data": {"factors": factors}}
        path, lex = _write(tmp_path, _extreme_lexicon(word), "Door is w.\n")
        argv = ["run", path, "--lexicon", lex]
        code, out, err = _clean_main(capsys, argv + ["--renormalize"])
        assert code == 0 and err == ""
        _assert_report(out, "text", 1.0, {"Door": (1.0, np.diag([1.0, 0.0]))})
        code, out, err = _clean_main(capsys, argv)
        assert code == 2 and out == ""
        assert err == 'error: joint state is not finite after "Door is w"\n'

    def test_entry_name_must_be_a_string(self, tmp_path, capsys):
        """An entry named by a list exits 2 naming the entry's place."""
        word = {"name": ["red"], "space": "axis", "kind": "pure", "mechanism": "projector",
                "data": _ket(1.0, 0.0)}
        lexicon = {"spaces": {"axis": 2}, "entries": [ONE, word]}
        path, lex = _write(tmp_path, lexicon, "Door is one.\n")
        code, out, err = _clean_main(capsys, ["run", path, "--lexicon", lex])
        assert code == 2 and out == ""
        assert err == "error: entries[1]: entry name must be a string\n"


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzphaser.cli", "demo", "paint-it-black"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "demo result: PASS" in proc.stdout

    def test_package_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzphaser", "verify", "--trials", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verify: 29/29 passed" in proc.stdout

    def test_run_imports_no_verify_or_demo_code(self):
        """``run`` on a demo text, parser included, imports neither the
        verify checks nor the demos."""
        script = (
            "import contextlib, io, sys\n"
            "from fuzzphaser import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "print(code, [m for m in ('fuzzphaser.properties', 'fuzzphaser.demos')"
            " if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "run", str(DEMO_DIR / "paint_it_black.txt"),
             "--lexicon", str(DEMO_DIR / "colors.json")],
            capture_output=True, text=True,
        )
        assert proc.stdout == "0 []\n", proc.stderr

    def test_byte_identical_runs(self):
        cmd = [
            sys.executable, "-m", "fuzzphaser.cli",
            "run", str(DEMO_DIR / "black_poem.txt"),
            "--lexicon", str(DEMO_DIR / "fuzztones.json"), "--format", "json",
        ]
        a = subprocess.run(cmd, capture_output=True).stdout
        b = subprocess.run(cmd, capture_output=True).stdout
        assert a == b and a


#: Values that a mutated lexicon puts in place of one number: zero, a sign
#: flip, the ends of the float range, a subnormal, and what JSON readers
#: accept beyond the standard.
MUTANT_NUMBERS = [0.0, -0.5, 2.0, 1e-300, 5e-324, 1e300, 1.7e308, -1e308, math.nan, math.inf]
#: Values that a mutated lexicon puts in place of one string, or of a space
#: label or dimension, valid and not.
MUTANT_STRINGS = ["pure", "density", "ddm", "projector", "fuzz", "phaser", "concepts", "",
                  ["concepts", "concepts"], 3, None]
MUTANT_DIMS = [0, 1, 2, 3, 5, -1, "4", 4.5, 10_000]


def _places(doc, kind):
    """Every (container, key) in a JSON document that holds a number, or a
    non-empty list."""
    found = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and kind == "number":
            found.append((doc, key))
        if isinstance(value, list) and value and kind == "list":
            found.append((doc, key))
        if isinstance(value, (dict, list)):
            found += _places(value, kind)
    return found


def _mutated_lexicon(doc, data):
    """One change to a demo lexicon document, drawn by hypothesis."""
    how = data.draw(st.sampled_from(["number", "list", "string", "key", "space", "copy"]))
    entries = doc["entries"]
    if how in ("number", "list"):
        places = _places(entries, how)
        holder, key = places[data.draw(st.integers(0, len(places) - 1))]
        if how == "number":
            holder[key] = data.draw(st.sampled_from(MUTANT_NUMBERS))
        else:
            holder[key] = holder[key][:-1]
    elif how == "space":
        doc["spaces"]["concepts"] = data.draw(st.sampled_from(MUTANT_DIMS))
    else:
        entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        if how == "string":
            key = data.draw(st.sampled_from(["name", "space", "kind", "mechanism"]))
            entry[key] = data.draw(st.sampled_from(MUTANT_STRINGS))
        elif how == "key":
            del entry[data.draw(st.sampled_from(sorted(entry)))]
        else:
            entries.append(json.loads(json.dumps(entry)))
    return doc


def _mutated_text(text, names, data):
    """One change to a demo text, drawn by hypothesis: a token dropped or
    replaced by a lexicon name or a grammar word, the last '.' dropped, or
    a sentence added."""
    tokens = text.replace(".", " . ").split()
    how = data.draw(st.sampled_from(["drop", "replace", "unterminated", "add"]))
    if how == "unterminated":
        return text.rstrip().rstrip(".")
    if how == "add":
        words = [*names, "Once", "there", "was", "is", "a", "turns", "X"]
        added = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=4))
        return text + " " + " ".join(added) + "."
    i = data.draw(st.integers(0, len(tokens) - 1))
    if how == "drop":
        del tokens[i]
    else:
        tokens[i] = data.draw(st.sampled_from([*names, "is", "turns", "an", "Once", "Z"]))
    return " ".join(tokens)


class TestBoundary:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_mutated_demo_inputs_exit_with_a_documented_code(self, data):
        """A demo lexicon and text, each changed up to twice, through
        ``run`` (text or JSON, with or without --renormalize) or ``export``,
        with or without --mechanism, RuntimeWarning raised as an error:
        every case exits 0, 2, or 3 for an annihilation under
        --renormalize, with one error line and no output where it fails,
        and never with a traceback."""
        lexicon = data.draw(st.sampled_from(sorted(DEMO_DIR.glob("*.json"))))
        text = data.draw(st.sampled_from(sorted(DEMO_DIR.glob("*.txt")))).read_text()
        doc = json.loads(lexicon.read_text())
        names = [e["name"] for e in doc["entries"]]
        for _ in range(data.draw(st.integers(0, 2))):
            doc = _mutated_lexicon(doc, data)
        for _ in range(data.draw(st.integers(0, 2))):
            text = _mutated_text(text, names, data)
        command = data.draw(st.sampled_from(["run", "export"]))
        flags = []
        if command == "run":
            flags = ["--format", data.draw(st.sampled_from(["text", "json"]))]
            flags += ["--renormalize"] * data.draw(st.booleans())
        mechanism = data.draw(st.sampled_from([None, *textcirc.MECHANISMS]))
        flags += [] if mechanism is None else ["--mechanism", mechanism]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            text_path, lex_path = Path(tmp) / "text.txt", Path(tmp) / "lexicon.json"
            text_path.write_text(text, encoding="utf-8")
            lex_path.write_text(json.dumps(doc), encoding="utf-8")
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                code = main([command, str(text_path), "--lexicon", str(lex_path), *flags])
        assert code in ({0, 2, 3} if "--renormalize" in flags else {0, 2})
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert err.getvalue() == "" and out.getvalue()
        else:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
        if code == 3:
            assert "annihilated" in err.getvalue()
