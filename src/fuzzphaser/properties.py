"""Named property checks over the whole update machinery.

Each check draws seeded random inputs, measures a worst-case deviation
or a witness margin, and returns a PropertyResult. The verify command
runs all of them; the randomized tests call them individually. Checks
come in two flavors: identities (metric must stay below the bound) and
witnesses (metric must exceed it, demonstrating a failure the theory
predicts, such as non-additivity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg
from .ddm import (
    DdmBranch,
    DdmFactor,
    DoubleDensityMatrix,
    canonicalize,
    choi_matrix,
    ddm_as_state,
    ddm_from_fuzz,
    ddm_from_phaser,
    ddm_kraus,
    ddm_update,
    kraus_from_state,
    apply_kraus,
    same_channel,
)
from .density import DensityMatrix, Projector, PureState, from_pure, purity
from .errors import ZeroTraceError
from .sampling import (
    DEFAULT_SEED,
    random_basis,
    random_ddm,
    random_density,
    random_psd,
    random_pure,
    random_unitary,
    rng_from,
)
from .spider import OrthonormalBasis, contract, make_spider, phase_apply
from .textcirc import (
    Introduce,
    IsA,
    Lexicon,
    LexiconEntry,
    Transitive,
    compile_sentences,
    evaluate,
    evaluate_trajectory,
)
from .update import (
    PhaserData,
    fuzz,
    phaser,
    phaser_as_spider,
    phaser_pure,
    trace_preservation_report,
)

IDENT_TOL = 1e-9
KERNEL_RTOL = 1e-10
WITNESS_TOL = 1e-6
MARGIN_TOL = 1e-3
FUSION_TOL = 1e-12


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one named check: a metric against its bound."""

    name: str
    passed: bool
    metric: float
    bound: float
    relation: str
    trials: int
    detail: str


def _below(name, metric, bound, trials, detail) -> PropertyResult:
    return PropertyResult(name, metric < bound, metric, bound, "<", trials, detail)


def _above(name, metric, bound, trials, detail) -> PropertyResult:
    return PropertyResult(name, metric > bound, metric, bound, ">", trials, detail)


def _cycle(dims: tuple[int, int], n: int) -> list[int]:
    lo, hi = dims
    span = list(range(lo, hi + 1))
    return [span[i % len(span)] for i in range(n)]


def _degenerate_psd(dim: int, rng) -> DensityMatrix:
    """PSD matrix with at least one repeated eigenvalue (dim >= 2)."""
    distinct = int(rng.integers(1, dim))
    values = rng.uniform(0.2, 2.0, size=distinct)
    assign = values[rng.integers(0, distinct, size=dim)]
    u = random_unitary(dim, rng)
    return DensityMatrix(linalg.hermitize(u @ np.diag(assign) @ u.conj().T))


def _operand(dim: int, k: int, rng) -> DensityMatrix:
    if dim >= 2 and k % 3 == 2:
        return _degenerate_psd(dim, rng)
    if k % 3 == 1:
        return random_density(dim, rng, rank=max(1, dim // 2))
    return random_psd(dim, rng)


def _random_projector_family(dim: int, rng) -> list[Projector]:
    u = random_unitary(dim, rng)
    n_cuts = int(rng.integers(0, dim))
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_cuts, replace=False)) if dim > 1 else []
    bounds = [0] + [int(c) for c in cuts] + [dim]
    family = []
    for a, b in zip(bounds, bounds[1:]):
        block = u[:, a:b]
        family.append(Projector(block @ block.conj().T))
    return family


def check_spectral_reconstruction(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    for k, d in enumerate(_cycle(dims, trials)):
        if k % 2 == 0:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = linalg.hermitize(g)
        else:
            m = _operand(d, 2, rng).matrix
        decomp = linalg.hermitian_eig(m)
        worst = max(worst, linalg.max_abs(decomp.reconstruct() - m))
    return _below(
        "spectral-reconstruction", worst, IDENT_TOL, trials,
        "grouped eigendecomposition rebuilds every Hermitian input",
    )


def check_matrix_sqrt(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    for k, d in enumerate(_cycle(dims, trials)):
        sigma = _operand(d, k, rng).matrix
        root = linalg.matrix_sqrt(sigma)
        worst = max(worst, linalg.max_abs(root @ root - sigma))
        worst = max(worst, max(0.0, -linalg.min_eigenvalue(root)))
    return _below(
        "matrix-sqrt", worst, IDENT_TOL, trials,
        "principal square root squares back and stays PSD",
    )


def _worst_gap(seed, trials, dims, left, right) -> float:
    """The largest max-abs gap between left(ρ, σ) and right(ρ, σ) over
    seeded pairs: ρ a random density, σ the k-th ``_operand``."""
    rng = rng_from(seed)
    worst = 0.0
    for k, d in enumerate(_cycle(dims, trials)):
        rho = random_density(d, rng)
        sigma = _operand(d, k, rng)
        worst = max(worst, linalg.max_abs(left(rho, sigma).matrix - right(rho, sigma).matrix))
    return worst


def check_phaser_as_spider(seed, trials, dims) -> PropertyResult:
    worst = _worst_gap(seed, trials, dims, phaser_as_spider, phaser)
    return _below(
        "phaser-as-spider", worst, IDENT_TOL, trials,
        "plugging root weights into a spider reproduces √σρ√σ",
    )


def check_phaser_pure_components(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    for k, d in enumerate(_cycle(dims, trials)):
        psi = random_pure(d, rng)
        sigma = _operand(d, k, rng)
        try:
            phi = phaser_pure(psi, sigma)
        except ZeroTraceError:
            continue
        mixed = phaser(from_pure(psi), sigma)
        worst = max(worst, abs(purity(mixed) - 1.0))
        worst = max(worst, linalg.max_abs(from_pure(phi).matrix - mixed.matrix))
        evals, evecs = np.linalg.eigh(sigma.matrix)
        roots = linalg.psd_roots(evals)
        psi_c = evecs.conj().T @ psi.amplitudes
        phi_c = evecs.conj().T @ phi.amplitudes
        worst = max(worst, float(np.abs(phi_c - roots * psi_c).max()))
    return _below(
        "phaser-pure-components", worst, IDENT_TOL, trials,
        "phaser keeps pure states pure and scales each eigencomponent by xᵢ",
    )


def check_fuzz_decoherence_trace(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    lo, hi = dims
    per_dim = max(10, trials // max(1, hi - lo + 1))
    worst = 0.0
    count = 0
    for d in range(lo, hi + 1):
        rep = trace_preservation_report(
            "fuzz", DensityMatrix(np.eye(d)), trials=per_dim, seed=rng
        )
        worst = max(worst, rep.max_deviation)
        count += rep.trials
    return _below(
        "fuzz-decoherence-trace", worst, IDENT_TOL, count,
        "fuzz preserves the trace when every grouped eigenvalue is 1",
    )


def check_fuzz_trace_witness(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    margin = np.inf
    n_sigma = max(5, trials // 10)
    dims = max(2, dims[0]), max(2, dims[1])  # at d = 1 no operand breaks the trace
    for d in _cycle(dims, n_sigma):
        sigma = random_density(d, rng)
        rep = trace_preservation_report("fuzz", sigma, trials=100, seed=rng)
        margin = min(margin, rep.max_deviation)
    return _above(
        "fuzz-trace-witness", float(margin), WITNESS_TOL, n_sigma,
        "any eigenvalue away from 1 yields a trace-deviation witness",
    )


def check_phaser_unimodular_trace(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    n_data = max(5, trials // 10)
    for d in _cycle(dims, n_data):
        family = _random_projector_family(d, rng)
        terms = [(np.exp(2j * np.pi * rng.uniform()), p) for p in family]
        rep = trace_preservation_report(
            "phaser_general", PhaserData(terms), trials=20, seed=rng
        )
        worst = max(worst, rep.max_deviation)
    return _below(
        "phaser-unimodular-trace", worst, IDENT_TOL, n_data,
        "phaser with unimodular weights preserves the trace",
    )


def check_phaser_trace_witness(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    margin = np.inf
    n_data = max(5, trials // 10)
    dims = max(2, dims[0]), max(2, dims[1])  # at d = 1 no operand breaks the trace
    for k, d in enumerate(_cycle(dims, n_data)):
        if k % 2 == 0:
            data = PhaserData.from_density(random_density(d, rng))
        else:
            family = _random_projector_family(d, rng)
            terms = [
                (rng.uniform(0.2, 2.0) * np.exp(2j * np.pi * rng.uniform()), p)
                for p in family
            ]
            if all(abs(abs(x) - 1.0) < 0.05 for x, _ in terms):
                continue
            data = PhaserData(terms)
        rep = trace_preservation_report("phaser_general", data, trials=100, seed=rng)
        margin = min(margin, rep.max_deviation)
    return _above(
        "phaser-trace-witness", float(margin), WITNESS_TOL, n_data,
        "any weight modulus away from 1 yields a trace-deviation witness",
    )


def _reduction(seed, trials, dims, to_ddm, mechanism, kept: str) -> PropertyResult:
    """The DDM of σ that keeps only its ``kept`` mixture updates as ``mechanism``."""
    worst = _worst_gap(seed, trials, dims, lambda r, s: ddm_update(r, to_ddm(s)), mechanism)
    name = mechanism.__name__
    return _below(
        f"ddm-reduces-to-{name}", worst, IDENT_TOL, trials,
        f"keeping only the {kept} mixture reproduces the {name}",
    )


def check_ddm_reduces_to_fuzz(seed, trials, dims) -> PropertyResult:
    return _reduction(seed, trials, dims, ddm_from_fuzz, fuzz, "outer")


def check_ddm_reduces_to_phaser(seed, trials, dims) -> PropertyResult:
    return _reduction(seed, trials, dims, ddm_from_phaser, phaser, "inner")


def check_ddm_choi_psd(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    lo, hi = dims
    worst = 0.0
    for d in _cycle((lo, max(lo, min(hi, 4))), trials):
        deficit = -linalg.min_eigenvalue(choi_matrix(random_ddm(d, rng)))
        worst = max(worst, max(0.0, deficit))
    return _below(
        "ddm-choi-psd", worst, IDENT_TOL, trials,
        "every double-mixture channel is completely positive",
    )


def check_ddm_kraus_form(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    lo, hi = dims
    worst = 0.0
    for d in _cycle((lo, max(lo, min(hi, 4))), trials):
        d0 = random_ddm(d, rng)
        for source in (d0, canonicalize(d0)):
            for a in ddm_kraus(source):
                worst = max(worst, linalg.max_abs(a - a.conj().T))
                worst = max(worst, max(0.0, -linalg.min_eigenvalue(a)))
    return _below(
        "ddm-kraus-form", worst, IDENT_TOL, trials,
        "all Kraus factors, canonical or not, are Hermitian PSD",
    )


def check_ddm_rescaling(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    n = max(5, trials // 5)
    for d in _cycle(dims, n):
        d0 = random_ddm(d, rng)
        scaled = DoubleDensityMatrix(
            [
                DdmFactor(
                    f.y * c * c,
                    [DdmBranch(b.x / c, b.phi) for b in f.branches],
                )
                for f, c in zip(
                    d0.factors, rng.uniform(0.5, 2.0, size=len(d0.factors))
                )
            ]
        )
        worst = max(worst, linalg.max_abs(choi_matrix(scaled) - choi_matrix(d0)))
        canon = canonicalize(d0)
        worst = max(worst, linalg.max_abs(choi_matrix(canon) - choi_matrix(d0)))
        if not same_channel(d0, canon):
            worst = max(worst, 1.0)
    return _below(
        "ddm-rescaling", worst, IDENT_TOL, n,
        "y ↦ c²y with x ↦ x/c and canonicalization leave the channel alone",
    )


def check_ddm_state_encoding(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    n = max(5, trials // 5)
    for d in _cycle(dims, n):
        d0 = random_ddm(d, rng)
        state = ddm_as_state(d0)
        worst = max(worst, max(0.0, -linalg.min_eigenvalue(state.matrix)))
        expected = sum(float(np.trace(a @ a).real) for a in ddm_kraus(d0))
        worst = max(worst, abs(state.trace - expected))
        ops = kraus_from_state(state)
        rho = random_density(d, rng)
        worst = max(
            worst,
            linalg.max_abs(apply_kraus(rho, ops).matrix - ddm_update(rho, d0).matrix),
        )
    return _below(
        "ddm-state-encoding", worst, IDENT_TOL, n,
        "the doubled-space state is PSD and recovers the channel",
    )


def check_ddm_linearity(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    n = max(5, trials // 5)
    for d in _cycle(dims, n):
        d0 = random_ddm(d, rng)
        r1, r2 = random_density(d, rng), random_density(d, rng)
        a, b = rng.uniform(0.1, 2.0, size=2)
        mixed = DensityMatrix(a * r1.matrix + b * r2.matrix)
        dev = linalg.max_abs(
            ddm_update(mixed, d0).matrix
            - a * ddm_update(r1, d0).matrix
            - b * ddm_update(r2, d0).matrix
        )
        worst = max(worst, dev)
    return _below(
        "ddm-linearity", worst, IDENT_TOL, n,
        "the double-mixture update is linear in its state argument",
    )


def _witness(mechanism, combine, seed, dims, attempts=10):
    rng = rng_from(seed)
    best = 0.0
    dims = max(2, dims[0]), max(2, dims[1])  # at d = 1 every operand is a scalar
    for d in _cycle(dims, attempts):
        rho = random_density(d, rng)
        s1, s2 = random_psd(d, rng), random_psd(d, rng)
        best = max(best, combine(mechanism, rho, s1, s2))
    return best


def _additivity_gap(mech, rho, s1, s2) -> float:
    both = DensityMatrix(s1.matrix + s2.matrix)
    return linalg.max_abs(
        mech(rho, both).matrix - mech(rho, s1).matrix - mech(rho, s2).matrix
    )


def _associativity_gap(mech, rho, s1, s2) -> float:
    left = mech(mech(rho, s1), s2)
    right = mech(rho, mech(s1, s2))
    return linalg.max_abs(left.matrix - right.matrix)


def _commutativity_gap(mech, rho, s1, s2) -> float:
    return linalg.max_abs(
        mech(mech(rho, s1), s2).matrix - mech(mech(rho, s2), s1).matrix
    )


def _gap_witness(mechanism, prop: str, gap, detail: str, seed, trials, dims) -> PropertyResult:
    name = mechanism.__name__
    m = _witness(mechanism, gap, seed, dims)
    return _above(f"{name}-{prop}", m, MARGIN_TOL, 10, detail.format(name))


#: The witnesses that fuzz and phaser are neither CP maps on ρ⊗σ nor
#: well-behaved connectives, one check per (gap, mechanism), in this order.
_GAP_WITNESSES = tuple(
    partial(_gap_witness, mechanism, prop, gap, detail)
    for prop, gap, detail in (
        ("nonadditivity", _additivity_gap,
         "{} is not additive in its operand, so it is no CP map on ρ⊗σ"),
        ("nonassociativity", _associativity_gap, "{} fails associativity as a binary connective"),
        ("noncommutativity", _commutativity_gap, "{} updates depend on their order"),
    )
    for mechanism in (fuzz, phaser)
)


def check_commuting_operands(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    n = max(5, trials // 5)
    for d in _cycle(dims, n):
        u = random_unitary(d, rng)
        s1 = DensityMatrix(linalg.hermitize(u @ np.diag(rng.uniform(0.1, 2.0, d)) @ u.conj().T))
        s2 = DensityMatrix(linalg.hermitize(u @ np.diag(rng.uniform(0.1, 2.0, d)) @ u.conj().T))
        rho = random_density(d, rng)
        for mech in (fuzz, phaser):
            worst = max(worst, _commutativity_gap(mech, rho, s1, s2))
    return _below(
        "commuting-operands", worst, IDENT_TOL, n,
        "operands with a shared eigenbasis update in either order",
    )


def check_spider_fusion(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    count = 0
    for d in (1, 2, 3):
        for basis in (OrthonormalBasis.computational(d), random_basis(d, rng)):
            for m1 in range(0, 4):
                for n1 in range(1, 4):
                    a = make_spider(basis, m1, n1)
                    for m2 in range(1, 4):
                        for n2 in range(0, 4):
                            b = make_spider(basis, m2, n2)
                            worst = max(worst, _fusion_gap(basis, a, b))
                            count += 1
    return _below(
        "spider-fusion", worst, FUSION_TOL, count,
        "same-basis spiders fuse into one spider over every leg choice",
    )


def _fusion_gap(basis, a, b) -> float:
    m1, n1, m2, n2 = a.legs_in, a.legs_out, b.legs_in, b.legs_out
    m, n = m1 + m2 - 1, n1 + n2 - 1
    target = None if m + n == 0 else make_spider(basis, m, n).tensor
    worst = 0.0
    for out_leg in range(n1):
        for in_leg in range(m2):
            raw = contract(a, b, [(m1 + out_leg, in_leg)])
            if target is None:
                worst = max(worst, abs(complex(raw) - basis.dim))
                continue
            perm = (
                list(range(m1))
                + [m1 + (n1 - 1) + k for k in range(m2 - 1)]
                + [m1 + k for k in range(n1 - 1)]
                + [m1 + (n1 - 1) + (m2 - 1) + k for k in range(n2)]
            )
            worst = max(worst, linalg.max_abs(raw.transpose(perm) - target))
    return worst


def check_spider_basis_dependence(seed, trials, dims) -> PropertyResult:
    basis1 = OrthonormalBasis.computational(2)
    basis2 = OrthonormalBasis(np.array([[0.8, 0.6], [-0.6, 0.8]]))
    a = make_spider(basis1, 2, 1)
    b = make_spider(basis2, 1, 2)
    raw = contract(a, b, [(2, 0)])
    margin = np.inf
    for basis in (basis1, basis2):
        target = make_spider(basis, 2, 2).tensor
        margin = min(margin, linalg.max_abs(raw - target))
    return _above(
        "spider-basis-dependence", float(margin), MARGIN_TOL, 1,
        "spiders over bases with overlap 0.8 do not fuse",
    )


def check_phase_unitarity(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    n = max(5, trials // 5)
    for d in _cycle(dims, n):
        basis = random_basis(d, rng)
        x = np.exp(2j * np.pi * rng.uniform(size=d))
        gate = phase_apply(basis, PureState(x))
        worst = max(worst, linalg.max_abs(gate @ gate.conj().T - np.eye(d)))
        direct = np.zeros((d, d), dtype=np.complex128)
        for i in range(d):
            ket = basis.vector(i)
            direct += x[i] * np.outer(ket, ket.conj())
        worst = max(worst, linalg.max_abs(gate - direct))
    return _below(
        "phase-unitarity", worst, IDENT_TOL, n,
        "unimodular phase kets plugged into a spider give a unitary gate",
    )


def _two_word_lexicon(sigma: DensityMatrix) -> Lexicon:
    return Lexicon(
        {"s": sigma.dim},
        [
            LexiconEntry("wp", "s", "density", "phaser", sigma),
            LexiconEntry("wd", "s", "ddm", "ddm", ddm_from_phaser(sigma)),
        ],
    )


def check_mechanism_coherence(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    n = max(5, trials // 10)
    for d in _cycle((dims[0], max(dims[0], min(dims[1], 3))), n):
        lexicon = _two_word_lexicon(random_psd(d, rng))
        joints = []
        for word in ("wp", "wd"):
            circuit = compile_sentences([IsA("X", word)], lexicon)
            joints.append(evaluate(circuit).joint.matrix)
        worst = max(worst, linalg.max_abs(joints[0] - joints[1]))
    return _below(
        "mechanism-coherence", worst, IDENT_TOL, n,
        "a ddm gate built from σ acts exactly like the phaser gate on σ",
    )


def check_disjoint_gates_commute(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    worst = 0.0
    n = max(3, trials // 20)
    for k in range(n):
        verb = random_psd(4, rng)
        lexicon = Lexicon(
            {"pet": 2},
            [LexiconEntry("bites", ("pet", "pet"), "density", "fuzz", verb)],
        )
        intro = [Introduce(x) for x in ("Ann", "Bob", "Cat", "Dog")]
        forward = intro + [Transitive("Ann", "bites", "Bob"), Transitive("Cat", "bites", "Dog")]
        backward = intro + [Transitive("Cat", "bites", "Dog"), Transitive("Ann", "bites", "Bob")]
        a = evaluate(compile_sentences(forward, lexicon)).joint.matrix
        b = evaluate(compile_sentences(backward, lexicon)).joint.matrix
        worst = max(worst, linalg.max_abs(a - b))
    return _below(
        "disjoint-gates-commute", worst, IDENT_TOL, n,
        "gates on disjoint actor pairs commute",
    )


def check_evaluation_determinism(seed, trials, dims) -> PropertyResult:
    rng = rng_from(seed)
    lexicon = _two_word_lexicon(random_psd(3, rng))
    sentences = [IsA("X", "wp"), IsA("X", "wd"), IsA("X", "wp")]
    runs = [
        evaluate(compile_sentences(sentences, lexicon)).joint.matrix for _ in range(2)
    ]
    identical = bool(np.array_equal(runs[0], runs[1]))
    metric = 0.0 if identical else linalg.max_abs(runs[0] - runs[1])
    return PropertyResult(
        "evaluation-determinism", identical, metric, 0.0, "==", 2,
        "re-evaluating the same circuit is bit-identical",
    )


def apply_gate_dense(joint: np.ndarray, gate, dims) -> np.ndarray:
    """A compiled gate through the dense route, the oracle of the local kernel.

    The operand is embedded as a D × D matrix on the gate's slots, then
    updated by P ρ P, ``update.fuzz``, ``update.phaser`` or Σₖ A_k ρ A_k
    over the lexicon's own A_k. Costs O(D³) per gate.
    """
    if gate.mechanism == "ddm":
        out = np.zeros_like(joint)
        for a in ddm_kraus(gate.operand):
            big = linalg.embed_on_subsystem(a, dims, gate.slots)
            out += big @ joint @ big
        return linalg.hermitize(out)
    big = linalg.embed_on_subsystem(gate.operand.matrix, dims, gate.slots)
    if gate.mechanism == "projector":
        return big @ joint @ big
    update = fuzz if gate.mechanism == "fuzz" else phaser
    return update(DensityMatrix(joint), DensityMatrix(big)).matrix


def _random_word(name, spaces, mechanism, dim, k, rng) -> LexiconEntry:
    """A word for the kernel check; fuzz and phaser operands vary in rank."""
    if mechanism == "projector":
        return LexiconEntry(name, spaces, "pure", mechanism, random_pure(dim, rng))
    if mechanism == "ddm":
        return LexiconEntry(name, spaces, "ddm", mechanism, random_ddm(dim, rng))
    return LexiconEntry(name, spaces, "density", mechanism, _operand(dim, k, rng))


def _kernel_circuits(rng, n: int):
    """The circuits of ``check_local_kernel``: n random ones, then one of
    a tiny weight."""
    for k in range(n):
        wires = 2 + k % 3
        split, pure = k % 4 == 1, k % 6 == 2
        wire_dims = [4] * wires if pure else [int(d) for d in rng.integers(2, 5, size=wires)]
        slot_sets = [] if split else [(wires - 1, wires - 2), (0, wires - 1), (1, 0)]
        for _ in range(4):
            pool = range(int(rng.integers(2)), wires, 2) if split else range(wires)
            size = int(rng.integers(1, min(2, len(pool)) + 1))
            slot_sets.append(tuple(int(w) for w in rng.choice(pool, size, replace=False)))
        spaces = {f"s{w}": d for w, d in enumerate(wire_dims)}
        entries = [
            LexiconEntry(f"A{w}", f"s{w}", "density", "fuzz", random_density(d, rng))
            if not pure
            else LexiconEntry(f"A{w}", f"s{w}", "pure", "projector", random_pure(d, rng))
            for w, d in enumerate(wire_dims)
        ]
        sentences = [Introduce(f"A{w}") for w in range(wires)]
        for g, slots in enumerate(slot_sets):
            mechanism = ("projector", "fuzz", "phaser", "ddm")[(k + g) % 4]
            dim = int(np.prod([wire_dims[w] for w in slots]))
            labels = tuple(f"s{w}" for w in slots)
            entries.append(_random_word(f"w{g}", labels, mechanism, dim, g, rng))
            if len(slots) == 1:
                sentences.append(IsA(f"A{slots[0]}", f"w{g}"))
            else:
                sentences.append(Transitive(f"A{slots[0]}", f"w{g}", f"A{slots[1]}"))
        yield compile_sentences(sentences, Lexicon(spaces, entries)), wire_dims
    # A0 = diag(1, 1e-20, 0, 0) among three kets (D = 256). Phasers and
    # projectors, none of which mixes A0's directions, keep L at two
    # columns; the last gate keeps only the 1e-20.
    tiny = DensityMatrix(np.diag([1.0, 1e-20, 0.0, 0.0]))
    entries = [LexiconEntry("A0", "s", "density", "fuzz", tiny)]
    entries += [
        LexiconEntry(f"A{w}", "s", "pure", "projector", random_pure(4, rng)) for w in (1, 2, 3)
    ]
    beside = np.kron(np.eye(4), random_density(4, rng).matrix)
    entries += [
        LexiconEntry("v0", ("s", "s"), "density", "phaser", DensityMatrix(beside)),
        LexiconEntry("v1", ("s", "s"), "pure", "projector", random_pure(16, rng)),
        LexiconEntry("v2", ("s", "s"), "density", "phaser", random_density(16, rng)),
        LexiconEntry("n", "s", "density", "phaser", random_density(4, rng)),
        LexiconEntry("tiny", "s", "pure", "projector", PureState.basis(4, 1)),
    ]
    sentences = [Transitive("A0", "v0", "A1"), Transitive("A1", "v1", "A2"),
                 Transitive("A3", "v2", "A2"), IsA("A1", "n"), IsA("A0", "tiny")]
    yield compile_sentences(sentences, Lexicon({"s": 4}, entries)), [4] * 4


def check_local_kernel(seed, trials, dims) -> PropertyResult:
    """Random circuits of 2-4 wires of dimension 2-4 (joint D <= 256).

    Most circuits carry three fixed gates, on permuted and non-adjacent
    slot pairs, that join every wire, plus random noun and verb gates,
    all four mechanisms in turn. Every fourth, from the second, has no
    fixed gates and joins only wires of the same parity, so that it
    splits into two or more interleaved blocks. Every sixth circuit,
    from the third, has four wires of dimension 4 and pure priors, so
    that it starts on the factor ρ = L L†; the others have full-rank
    priors and start on the dense joint: both steps of the evaluator are
    checked. A last circuit keeps, at its last gate, only A0's prior
    direction of weight 1e-20, so that the result's own scale is that
    direction. Every post-gate state of the evaluation, its joint
    assembled from the blocks, is compared with the dense route applied
    to the state before that gate, and with the dense route applied gate
    by gate to the priors' Kronecker product, so that a direction lost
    before any gate, or between gates, shows too.
    """
    rng = rng_from(seed)
    worst = 0.0
    n = max(4, trials // 10)
    for circuit, wire_dims in _kernel_circuits(rng, n):
        states = evaluate_trajectory(circuit)
        chain = linalg.kron_all(a.prior.matrix for a in circuit.actors)
        for gate, before, after in zip(circuit.gates, states, states[1:]):
            chain = apply_gate_dense(chain, gate, wire_dims)
            for dense in (apply_gate_dense(before.joint.matrix, gate, wire_dims), chain):
                scale = linalg.max_abs(dense)
                delta = linalg.max_abs(after.joint.matrix - dense)
                worst = max(worst, delta / scale if scale > 0.0 else delta)
    return _below(
        "local-kernel-matches-dense", worst, KERNEL_RTOL, n + 1,
        "gates applied on their own wires match the embedded dense route (relative)",
    )


ALL_CHECKS = (
    check_spectral_reconstruction,
    check_matrix_sqrt,
    check_phaser_as_spider,
    check_phaser_pure_components,
    check_fuzz_decoherence_trace,
    check_fuzz_trace_witness,
    check_phaser_unimodular_trace,
    check_phaser_trace_witness,
    check_ddm_reduces_to_fuzz,
    check_ddm_reduces_to_phaser,
    check_ddm_choi_psd,
    check_ddm_kraus_form,
    check_ddm_rescaling,
    check_ddm_state_encoding,
    check_ddm_linearity,
    *_GAP_WITNESSES,
    check_commuting_operands,
    check_spider_fusion,
    check_spider_basis_dependence,
    check_phase_unitarity,
    check_mechanism_coherence,
    check_disjoint_gates_commute,
    check_evaluation_determinism,
    check_local_kernel,
)


def run_all(
    seed: int = DEFAULT_SEED, trials: int = 100, dims: tuple[int, int] = (2, 5)
) -> list[PropertyResult]:
    """Run every named check from one base seed; results in fixed order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lo, hi = dims
    if lo < 1 or hi < lo:
        raise ValueError("dims must be an increasing range of positive ints")
    seeds = np.random.SeedSequence(int(seed)).spawn(len(ALL_CHECKS))
    return [
        check(np.random.default_rng(s), trials, dims)
        for check, s in zip(ALL_CHECKS, seeds)
    ]
