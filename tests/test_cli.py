import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fuzzphaser import linalg, textcirc
from fuzzphaser.cli import main
from fuzzphaser.density import DensityMatrix, PureState
from fuzzphaser.lexicon import load_lexicon, save_lexicon
from fuzzphaser.sampling import random_ddm, random_density, random_pure
from fuzzphaser.textcirc import Lexicon, LexiconEntry, compile_text

DEMO_DIR = Path(__file__).resolve().parent.parent / "demo"

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

        Calls cost nothing here, so that the projector takes the thin route.
        """
        monkeypatch.setattr(textcirc, "CALL_COST", 0)
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
        """Calls cost nothing here, so that routes go by multiply-adds."""
        monkeypatch.setattr(textcirc, "CALL_COST", 0)
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


class TestVerify:
    def test_all_pass_text(self, capsys):
        code = main(["verify", "--trials", "10", "--dims", "2..3"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 29
        assert all(l.startswith("PASS") for l in lines)
        assert "verify: 29/29 passed" in out

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

    def test_byte_identical_runs(self):
        cmd = [
            sys.executable, "-m", "fuzzphaser.cli",
            "run", str(DEMO_DIR / "black_poem.txt"),
            "--lexicon", str(DEMO_DIR / "fuzztones.json"), "--format", "json",
        ]
        a = subprocess.run(cmd, capture_output=True).stdout
        b = subprocess.run(cmd, capture_output=True).stdout
        assert a == b and a
