"""Acceptance gate: one test and one PASS/FAIL line per shipped claim.

Each test re-derives its claim directly against the stated tolerance
rather than trusting the property suite; the final test then runs the
verify command end to end. Run with -s to see the per-claim lines.
"""

import json
import subprocess
import sys
import time
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from fuzzphaser import linalg
from fuzzphaser.ddm import canonicalize, choi_matrix, ddm_from_fuzz, ddm_from_phaser, \
    ddm_kraus, ddm_update
from fuzzphaser.density import DensityMatrix, Projector, from_pure, purity, renormalize
from fuzzphaser.errors import ZeroTraceError
from fuzzphaser.lexicon import load_lexicon
from fuzzphaser.sampling import (
    random_basis,
    random_ddm,
    random_density,
    random_psd,
    random_pure,
    random_unitary,
)
from fuzzphaser.spider import OrthonormalBasis, contract, make_spider
from fuzzphaser.textcirc import compile_text, evaluate, reduced_state
from fuzzphaser.update import PhaserData, fuzz, phaser, phaser_as_spider, phaser_pure

SEED = 1729
DEMO_DIR = Path(__file__).resolve().parent.parent / "demo"


def _report(num: int, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'} criterion {num}: {detail}")


def _dims_cycle(lo: int, hi: int, n: int):
    span = list(range(lo, hi + 1))
    return [span[i % len(span)] for i in range(n)]


def _operand(d: int, k: int, rng) -> DensityMatrix:
    """Vary the operand ensemble: full rank, rank deficient, degenerate."""
    if k % 3 == 1:
        return random_density(d, rng, rank=max(1, d // 2))
    if k % 3 == 2 and d >= 2:
        vals = rng.uniform(0.2, 2.0, size=max(1, d - 1))
        assign = vals[rng.integers(0, vals.size, size=d)]
        u = random_unitary(d, rng)
        return DensityMatrix(linalg.hermitize(u @ np.diag(assign) @ u.conj().T))
    return random_psd(d, rng)


def test_criterion_1_phaser_equals_spider_route():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    pairs = 100
    for k, d in enumerate(_dims_cycle(2, 5, pairs)):
        rho = random_density(d, rng)
        sigma = _operand(d, k, rng)
        root = linalg.matrix_sqrt(sigma.matrix)
        direct = root @ rho.matrix @ root
        worst = max(worst, linalg.max_abs(phaser_as_spider(rho, sigma).matrix - direct))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _report(1, ok, f"spider route vs root conjugation on {pairs} pairs, dims 2-5: "
                   f"max dev {worst:.3e} < 1e-9, {elapsed:.2f}s < 5s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_2_pure_state_component_law():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    cases = 0
    k = 0
    while cases < 100:
        d = 2 + k % 4
        psi = random_pure(d, rng)
        sigma = _operand(d, k, rng)
        k += 1
        try:
            phi = phaser_pure(psi, sigma)
        except ZeroTraceError:
            continue
        cases += 1
        mixed = phaser(from_pure(psi), sigma)
        worst = max(worst, abs(purity(mixed) - 1.0))
        evals, evecs = np.linalg.eigh(sigma.matrix)
        floor = evals.size * np.finfo(np.float64).eps * np.abs(evals).max()
        roots = np.sqrt(np.where(evals > floor, evals, 0.0))
        psi_c = evecs.conj().T @ psi.amplitudes
        phi_c = evecs.conj().T @ phi.amplitudes
        worst = max(worst, float(np.abs(phi_c - roots * psi_c).max()))
    ok = worst < 1e-9
    _report(2, ok, f"purity preserved and components scale by root weights on "
                   f"{cases} pure states: max dev {worst:.3e} < 1e-9")
    assert worst < 1e-9


def test_criterion_3_fuzz_trace_preservation_boundary():
    rng = np.random.default_rng(SEED)
    # decoherence side: all grouped eigenvalues 1 (exactly and within grouping)
    worst = 0.0
    states = 0
    for d in (2, 3, 4, 5):
        operands = [DensityMatrix(np.eye(d)),
                    DensityMatrix(np.eye(d) + 1e-13 * np.diag(np.arange(d)))]
        for sigma in operands:
            for _ in range(15):
                rho = random_density(d, rng)
                worst = max(worst, abs(fuzz(rho, sigma).trace - 1.0))
                states += 1
    # witness side: any eigenvalue away from 1 must betray itself fast
    witnesses = []
    for d in (2, 3, 4, 5):
        for _ in range(3):
            sigma = random_density(d, rng)
            found, samples = 0.0, 0
            while samples < 100 and found <= 1e-6:
                rho = random_density(d, rng)
                found = max(found, abs(fuzz(rho, sigma).trace - 1.0))
                samples += 1
            witnesses.append((found, samples))
    weakest = min(w for w, _ in witnesses)
    most = max(s for _, s in witnesses)
    ok = worst < 1e-9 and weakest > 1e-6
    _report(3, ok, f"fuzz trace preserved iff grouped eigenvalues all 1: "
                   f"dev {worst:.3e} < 1e-9 on {states} states; weakest witness "
                   f"{weakest:.3e} > 1e-6 within {most} samples")
    assert worst < 1e-9
    assert weakest > 1e-6
    assert most <= 100


def test_criterion_4_phaser_trace_preservation_boundary():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    states = 0
    for d in (2, 3, 4, 5):
        u = random_unitary(d, rng)
        family = [
            Projector(linalg.hermitize(np.outer(u[:, i], u[:, i].conj())))
            for i in range(d)
        ]
        data = PhaserData(
            [(np.exp(2j * np.pi * rng.uniform()), p) for p in family]
        )
        for _ in range(25):
            rho = random_density(d, rng)
            a = data.weight_operator()
            out = a @ rho.matrix @ a.conj().T
            worst = max(worst, abs(float(np.trace(out).real) - 1.0))
            states += 1
    witnesses = []
    for d in (2, 3, 4, 5):
        for _ in range(3):
            data = PhaserData.from_density(random_density(d, rng))
            found, samples = 0.0, 0
            a = data.weight_operator()
            while samples < 100 and found <= 1e-6:
                rho = random_density(d, rng)
                out = a @ rho.matrix @ a.conj().T
                found = max(found, abs(float(np.trace(out).real) - 1.0))
                samples += 1
            witnesses.append((found, samples))
    weakest = min(w for w, _ in witnesses)
    most = max(s for _, s in witnesses)
    ok = worst < 1e-9 and weakest > 1e-6
    _report(4, ok, f"phaser trace preserved iff weights unimodular: dev {worst:.3e} "
                   f"< 1e-9 on {states} states; weakest witness {weakest:.3e} > 1e-6 "
                   f"within {most} samples")
    assert worst < 1e-9
    assert weakest > 1e-6
    assert most <= 100


def test_criterion_5_double_mixture_unifies_both_mechanisms():
    rng = np.random.default_rng(SEED)
    worst_fuzz = worst_phaser = 0.0
    trials = 100
    for k, d in enumerate(_dims_cycle(2, 5, trials)):
        rho = random_density(d, rng)
        sigma = _operand(d, k, rng)
        worst_fuzz = max(worst_fuzz, linalg.max_abs(
            ddm_update(rho, ddm_from_fuzz(sigma)).matrix - fuzz(rho, sigma).matrix))
        worst_phaser = max(worst_phaser, linalg.max_abs(
            ddm_update(rho, ddm_from_phaser(sigma)).matrix - phaser(rho, sigma).matrix))
    ok = worst_fuzz < 1e-9 and worst_phaser < 1e-9
    _report(5, ok, f"double-mixture reductions on {trials} trials, dims 2-5: "
                   f"fuzz dev {worst_fuzz:.3e}, phaser dev {worst_phaser:.3e}, both < 1e-9")
    assert worst_fuzz < 1e-9
    assert worst_phaser < 1e-9


def test_criterion_6_channels_are_completely_positive():
    rng = np.random.default_rng(SEED)
    count = 50
    worst_choi = worst_kraus = 0.0
    for d in _dims_cycle(2, 4, count):
        dd = random_ddm(d, rng)
        worst_choi = max(worst_choi, -linalg.min_eigenvalue(choi_matrix(dd)))
        for a in ddm_kraus(canonicalize(dd)):
            worst_kraus = max(worst_kraus, linalg.max_abs(a - a.conj().T))
            worst_kraus = max(worst_kraus, -linalg.min_eigenvalue(a))
    worst_choi, worst_kraus = max(0.0, worst_choi), max(0.0, worst_kraus)
    ok = worst_choi < 1e-9 and worst_kraus < 1e-9
    _report(6, ok, f"Choi matrices of {count} channels PSD within 1e-9 "
                   f"(deficit {worst_choi:.3e}); canonical Kraus factors Hermitian "
                   f"PSD (dev {worst_kraus:.3e})")
    assert worst_choi < 1e-9
    assert worst_kraus < 1e-9


def test_criterion_7_fixed_seed_noninternality_witnesses():
    rng = np.random.default_rng(SEED)
    margins = {}
    for name, mech in (("fuzz", fuzz), ("phaser", phaser)):
        add_gap = assoc_gap = 0.0
        for d in (2, 3, 4):
            rho = random_density(d, rng)
            s1, s2 = random_psd(d, rng), random_psd(d, rng)
            both = DensityMatrix(s1.matrix + s2.matrix)
            add_gap = max(add_gap, linalg.max_abs(
                mech(rho, both).matrix - mech(rho, s1).matrix - mech(rho, s2).matrix))
            assoc_gap = max(assoc_gap, linalg.max_abs(
                mech(mech(rho, s1), s2).matrix - mech(rho, mech(s1, s2)).matrix))
        margins[f"{name} additivity"] = add_gap
        margins[f"{name} associativity"] = assoc_gap
    ok = all(m > 1e-3 for m in margins.values())
    shown = ", ".join(f"{k} {v:.3f}" for k, v in margins.items())
    _report(7, ok, f"seed {SEED} witnesses break additivity in the operand and "
                   f"associativity: {shown}, all > 1e-3")
    for name, margin in margins.items():
        assert margin > 1e-3, name


def _spider_entries(basis: OrthonormalBasis, roles):
    """Independent spider build: conj factor per in leg, plain per out leg."""
    d = basis.dim
    if not roles:
        return np.array(float(d), dtype=np.complex128)
    acc = np.zeros((d,) * len(roles), dtype=np.complex128)
    for k in range(d):
        ket = basis.vector(k)
        factors = [ket.conj() if r == "in" else ket for r in roles]
        acc += reduce(np.multiply.outer, factors)
    return acc


def test_criterion_8_spider_fusion_exhaustive():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    cases = 0
    for d in (1, 2, 3):
        for basis in (OrthonormalBasis.computational(d), random_basis(d, rng)):
            for m1 in range(0, 4):
                for n1 in range(1, 4):
                    a = make_spider(basis, m1, n1)
                    for m2 in range(1, 4):
                        for n2 in range(0, 4):
                            b = make_spider(basis, m2, n2)
                            for out_leg in range(n1):
                                for in_leg in range(m2):
                                    raw = contract(a, b, [(m1 + out_leg, in_leg)])
                                    roles = (["in"] * m1 + ["out"] * (n1 - 1)
                                             + ["in"] * (m2 - 1) + ["out"] * n2)
                                    expected = _spider_entries(basis, roles)
                                    worst = max(worst, linalg.max_abs(raw - expected))
                                    cases += 1
    ok = worst < 1e-12
    _report(8, ok, f"all {cases} same-basis fusions over m,n <= 3, dim <= 3 "
                   f"match one spider: max dev {worst:.3e} < 1e-12")
    assert worst < 1e-12


def test_criterion_9_color_update_order_golden_run():
    start = time.perf_counter()
    lexicon = load_lexicon(DEMO_DIR / "colors.json")
    text = (DEMO_DIR / "paint_it_black.txt").read_text(encoding="utf-8")
    world = evaluate(compile_text(text, lexicon))
    door = renormalize(reduced_state(world, "Door"))
    black = np.zeros(4)
    black[0] = 1.0
    fidelity = float(np.real(black @ door.matrix @ black))

    reversed_text = "Door turns black. Door turns red.\n"
    world_r = evaluate(compile_text(reversed_text, lexicon))
    door_r = renormalize(reduced_state(world_r, "Door"))
    red = np.array([0.8, 0.0, 0.6, 0.0])
    fidelity_r = float(np.real(red @ door_r.matrix @ red))
    elapsed = time.perf_counter() - start

    ok = fidelity > 1 - 1e-9 and fidelity_r > 1 - 1e-9 and elapsed < 1.0
    _report(9, ok, f"door ends on the black ray (fidelity {fidelity:.12f}), "
                   f"reversed order ends on red ({fidelity_r:.12f}), {elapsed:.2f}s < 1s")
    assert fidelity > 1 - 1e-9
    assert fidelity_r > 1 - 1e-9
    assert elapsed < 1.0


def test_criterion_10_ambiguity_golden_run():
    lexicon = load_lexicon(DEMO_DIR / "fuzztones.json")
    color = np.array([1.0, 0.0, 0.0, 0.0])
    genre = np.array([0.0, 1.0, 0.0, 0.0])

    def projected(state, ket):
        return float(np.real(ket @ state.matrix @ ket))

    priors = {}
    for actor in ("Door", "Poem", "Metal"):
        world = evaluate(compile_text(f"Once there was {actor}.", lexicon))
        priors[actor] = reduced_state(world, actor)

    near_zero = [projected(priors["Door"], genre), projected(priors["Poem"], color)]
    large = [
        projected(priors["Door"], color),
        projected(priors["Poem"], genre),
        projected(priors["Metal"], color),
        projected(priors["Metal"], genre),
    ]
    world = evaluate(compile_text("Metal is black.\n", lexicon))
    metal = renormalize(reduced_state(world, "Metal"))
    evals = np.linalg.eigvalsh(metal.matrix)

    ok = (max(near_zero) < 0.05 and min(large) > 0.3
          and evals[-1] > 0.1 and evals[-2] > 0.1)
    _report(10, ok, f"suppressed readings {max(near_zero):.3f} < 0.05, live readings "
                    f">= {min(large):.3f} > 0.3, updated metal keeps eigenvalues "
                    f"{evals[-1]:.3f}, {evals[-2]:.3f} > 0.1")
    assert max(near_zero) < 0.05
    assert min(large) > 0.3
    assert evals[-1] > 0.1 and evals[-2] > 0.1


def test_criterion_11_verify_command_end_to_end():
    cmd = [sys.executable, "-m", "fuzzphaser.cli", "verify", "--format", "json"]
    start = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    second = subprocess.run(cmd, capture_output=True, timeout=120)

    doc = json.loads(first.stdout)
    names = {r["name"] for r in doc["results"]}
    covering = {
        "phaser-as-spider", "phaser-pure-components",
        "fuzz-decoherence-trace", "fuzz-trace-witness",
        "phaser-unimodular-trace", "phaser-trace-witness",
        "ddm-reduces-to-fuzz", "ddm-reduces-to-phaser",
        "ddm-choi-psd", "ddm-kraus-form",
        "fuzz-nonadditivity", "phaser-nonadditivity",
        "fuzz-nonassociativity", "phaser-nonassociativity",
        "spider-fusion",
    }
    ok = (first.returncode == 0 and doc["passed"]
          and covering <= names
          and first.stdout == second.stdout
          and elapsed < 60.0)
    _report(11, ok, f"verify exits 0 with {len(doc['results'])} checks passing, "
                    f"byte-identical across runs, {elapsed:.1f}s < 60s")
    assert first.returncode == 0
    assert doc["passed"] is True
    assert covering <= names
    assert first.stdout == second.stdout
    assert elapsed < 60.0
