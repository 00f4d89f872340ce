"""Shipped demonstration lexicons, texts, and their qualitative claims.

One dim-4 space carries two readings of black (colour on axis 0, genre
on axis 1) plus two filler directions that give red and the door
somewhere to differ from black. Overlaps are exact rationals where
possible, so the expected traces are exact too: ⟨red|black_col⟩ = 0.8,
⟨red|door⟩ = 0.6, ⟨black_col|door⟩ = 0.96.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .density import DensityMatrix, PureState, from_pure, purity, renormalize
from .textcirc import Circuit, Lexicon, LexiconEntry, compile_text, \
    evaluate_trajectory, reduced_state

SPACE = "concepts"
DIM = 4
#: Thresholds for the demo claims: "vanishing" vs "significant" weight.
SMALL = 0.05
LARGE = 0.3


def _ket(*amps) -> PureState:
    return PureState(np.array(amps, dtype=np.complex128))


#: The two readings of black: colour on axis 0, genre on axis 1.
BLACK_COLOR = _ket(1.0, 0.0, 0.0, 0.0)
BLACK_GENRE = _ket(0.0, 1.0, 0.0, 0.0)
RED = _ket(0.8, 0.0, 0.6, 0.0)
DOOR_PLAIN = _ket(0.96, 0.0, -0.28, 0.0)
#: Nouns leaning weight 0.81 on one reading of black, none on the other.
LEAN_COLOR = _ket(0.9, 0.0, math.sqrt(0.19), 0.0)
LEAN_GENRE = _ket(0.0, 0.9, 0.0, math.sqrt(0.19))

PAINT_IT_BLACK_TEXT = "Door turns red. Door turns black.\n"
PAINT_IT_BLACK_SWAPPED = "Door turns black. Door turns red.\n"
FUZZTONES_TEXTS = {
    "door": "Door is black.\n",
    "poem": "Poem is black.\n",
    "metal": "Metal is black.\n",
}


def paint_it_black_lexicon() -> Lexicon:
    """Pure colours imposed by projector updates on the door."""
    return Lexicon(
        {SPACE: DIM},
        [
            LexiconEntry("Door", SPACE, "pure", "projector", DOOR_PLAIN),
            LexiconEntry("red", SPACE, "pure", "projector", RED),
            LexiconEntry("black", SPACE, "pure", "projector", BLACK_COLOR),
        ],
    )


def fuzztones_lexicon() -> Lexicon:
    """Ambiguous black: a fuzz over its colour and genre readings.

    The door and the poem are unambiguous (each leans on one reading),
    metal is an even mixture of both, so black disambiguates the first
    two and leaves metal mixed.
    """
    b_col, b_gen = BLACK_COLOR.amplitudes, BLACK_GENRE.amplitudes
    sigma_black = DensityMatrix(
        np.outer(b_col, b_col.conj()) + np.outer(b_gen, b_gen.conj())
    )
    rho_metal = DensityMatrix(
        0.5 * (from_pure(LEAN_COLOR).matrix + from_pure(LEAN_GENRE).matrix)
    )
    return Lexicon(
        {SPACE: DIM},
        [
            LexiconEntry("black", SPACE, "density", "fuzz", sigma_black),
            LexiconEntry("Door", SPACE, "pure", "projector", LEAN_COLOR),
            LexiconEntry("Poem", SPACE, "pure", "projector", LEAN_GENRE),
            LexiconEntry("Metal", SPACE, "density", "fuzz", rho_metal),
        ],
    )


def projected_trace(rho: DensityMatrix, ket: PureState) -> float:
    """tr(P ρ P) for the rank-1 projector onto ``ket``."""
    v = ket.amplitudes
    return float(np.real(v.conj() @ rho.matrix @ v))


def pure_overlap(rho: DensityMatrix, ket: PureState) -> float:
    """⟨k|ρ̂|k⟩ with ρ̂ = ρ/tr ρ: fidelity of a state with a pure target."""
    return projected_trace(renormalize(rho), ket)


@dataclass(frozen=True)
class DemoCheck:
    """One qualitative claim: a measured value against a threshold."""

    name: str
    value: float
    relation: str
    threshold: float

    @property
    def passed(self) -> bool:
        if self.relation == "<":
            return self.value < self.threshold
        return self.value > self.threshold


@dataclass(frozen=True, eq=False)
class DemoStep:
    label: str
    state: DensityMatrix


@dataclass(frozen=True, eq=False)
class DemoRun:
    """Narrative trace of one actor plus the claims checked at the end."""

    title: str
    actor: str
    steps: tuple[DemoStep, ...]
    checks: tuple[DemoCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _run(text: str, lexicon: Lexicon, actor: str):
    circuit = compile_text(text, lexicon)
    states = evaluate_trajectory(circuit)
    return circuit, [reduced_state(w, actor) for w in states]


def _steps(circuit: Circuit, states) -> tuple[DemoStep, ...]:
    first = DemoStep("priors", states[0])
    rest = tuple(DemoStep(g.label, s) for g, s in zip(circuit.gates, states[1:]))
    return (first,) + rest


def run_paint_it_black() -> DemoRun:
    """The door turns red, then black; order decides the final colour."""
    lexicon = paint_it_black_lexicon()
    circuit, states = _run(PAINT_IT_BLACK_TEXT, lexicon, "Door")
    _, swapped = _run(PAINT_IT_BLACK_SWAPPED, lexicon, "Door")
    final = states[-1]
    checks = (
        DemoCheck(
            "door ends on the black colour axis",
            pure_overlap(final, BLACK_COLOR), ">", 1.0 - 1e-9,
        ),
        DemoCheck("final state stays pure", purity(final), ">", 1.0 - 1e-9),
        DemoCheck(
            "swapped sentence order ends on red instead",
            pure_overlap(swapped[-1], RED), ">", 1.0 - 1e-9,
        ),
    )
    return DemoRun("paint-it-black", "Door", _steps(circuit, states), checks)


def run_black_fuzztones() -> tuple[DemoRun, ...]:
    """Black disambiguates the door and the poem but not the metal."""
    lexicon = fuzztones_lexicon()
    runs = []
    keeps = {"door": (BLACK_COLOR, BLACK_GENRE), "poem": (BLACK_GENRE, BLACK_COLOR)}
    for noun, (keep, lose) in keeps.items():
        actor = noun.capitalize()
        circuit, states = _run(FUZZTONES_TEXTS[noun], lexicon, actor)
        prior, final = states[0], states[-1]
        checks = (
            DemoCheck(
                f"{noun} starts with significant weight on one reading",
                projected_trace(prior, keep), ">", LARGE,
            ),
            DemoCheck(
                f"{noun} starts with vanishing weight on the other",
                projected_trace(prior, lose), "<", SMALL,
            ),
            DemoCheck(
                f"black leaves the {noun} on a single reading",
                pure_overlap(final, keep), ">", 0.9,
            ),
        )
        runs.append(DemoRun("black-fuzztones", actor, _steps(circuit, states), checks))

    circuit, states = _run(FUZZTONES_TEXTS["metal"], lexicon, "Metal")
    prior, final = states[0], states[-1]
    evals = np.linalg.eigvalsh(renormalize(final).matrix)
    checks = (
        DemoCheck(
            "metal starts with significant weight on the colour reading",
            projected_trace(prior, BLACK_COLOR), ">", LARGE,
        ),
        DemoCheck(
            "metal starts with significant weight on the genre reading",
            projected_trace(prior, BLACK_GENRE), ">", LARGE,
        ),
        DemoCheck(
            "metal stays ambiguous: largest eigenvalue", float(evals[-1]), ">", 0.1,
        ),
        DemoCheck(
            "metal stays ambiguous: second eigenvalue", float(evals[-2]), ">", 0.1,
        ),
    )
    runs.append(DemoRun("black-fuzztones", "Metal", _steps(circuit, states), checks))
    return tuple(runs)


def write_demo_files(directory):
    """Write the shipped texts and lexicons as plain files for the CLI."""
    from .lexicon import save_lexicon

    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    (root / "paint_it_black.txt").write_text(PAINT_IT_BLACK_TEXT, encoding="utf-8")
    save_lexicon(paint_it_black_lexicon(), root / "colors.json")
    for noun, text in FUZZTONES_TEXTS.items():
        (root / f"black_{noun}.txt").write_text(text, encoding="utf-8")
    save_lexicon(fuzztones_lexicon(), root / "fuzztones.json")
