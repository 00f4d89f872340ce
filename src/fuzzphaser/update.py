"""The two non-commutative update mechanisms: fuzz and phaser.

The fuzz mixes over which eigenspace proposition of the operand was
imposed: Σᵢ xᵢ Pᵢ ρ Pᵢ. The phaser conjugates by the operand's square
root: √σ ρ √σ, equivalently a spider action in σ's eigenbasis. Neither
preserves the trace except in a trivial regime; the diagnostics here
make that precise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .density import DensityMatrix, Projector, PureState, from_pure, require_same_dim
from .errors import DimensionMismatchError, ZeroTraceError
from .sampling import DEFAULT_SEED, random_density, rng_from
from .spider import OrthonormalBasis, phase_apply

#: A mechanism is flagged trace-preserving when no sampled or probed
#: state deviates from unit trace by more than this.
TRACE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PhaserData:
    """Complex weights on an orthogonal complete projector family.

    A density matrix operand fixes only |xᵢ|; this carries the phases
    too, which is the data a general phaser actually needs.
    """

    terms: tuple[tuple[complex, Projector], ...]

    def __init__(self, terms: Sequence[tuple[complex, Projector]]):
        packed = tuple((complex(x), p) for x, p in terms)
        if not packed:
            raise ValueError("need at least one (coefficient, projector) term")
        dim = packed[0][1].dim
        if any(p.dim != dim for _, p in packed):
            raise DimensionMismatchError("projectors must share one dimension")
        linalg.check_resolution([p.matrix for _, p in packed], dim)
        object.__setattr__(self, "terms", packed)

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim

    @property
    def coefficients(self) -> tuple[complex, ...]:
        return tuple(x for x, _ in self.terms)

    def weight_operator(self) -> np.ndarray:
        """Σᵢ xᵢ Pᵢ."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for x, p in self.terms:
            out += x * p.matrix
        return out

    @staticmethod
    def from_density(sigma: DensityMatrix) -> "PhaserData":
        """Positive-root weights xᵢ = +√eigᵢ on σ's grouped eigenspaces."""
        decomp = linalg.hermitian_eig(sigma.matrix)
        return PhaserData(
            [(np.sqrt(max(v, 0.0)), Projector(p)) for v, p in decomp.terms]
        )


def fuzz(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    """Σᵢ xᵢ Pᵢ ρ Pᵢ over σ's grouped eigenspaces: a fuzzy proposition.

    Near-degenerate eigenvalues of σ share one eigenspace projector, so
    the result never depends on an arbitrary eigenvector choice.
    """
    require_same_dim(rho, sigma)
    decomp = linalg.hermitian_eig(sigma.matrix)
    out = np.zeros_like(sigma.matrix)
    for value, proj in decomp.terms:
        out = out + value * (proj @ rho.matrix @ proj)
    return DensityMatrix(linalg.hermitize(out))


def phaser(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    """√σ ρ √σ with the principal root; σ's eigenvalues are the xᵢ²."""
    require_same_dim(rho, sigma)
    root = linalg.matrix_sqrt(sigma.matrix)
    return DensityMatrix(linalg.hermitize(root @ rho.matrix @ root))


def phaser_general(rho: DensityMatrix, data: PhaserData) -> DensityMatrix:
    """(Σᵢ xᵢPᵢ) ρ (Σⱼ x̄ⱼPⱼ) with complex weights."""
    require_same_dim(rho, data)
    a = data.weight_operator()
    return DensityMatrix(linalg.hermitize(a @ rho.matrix @ a.conj().T))


def phaser_pure(psi: PureState, sigma: DensityMatrix) -> PureState:
    """Phaser on a pure state: φᵢ = ψᵢ xᵢ componentwise in σ's eigenbasis.

    Equivalently φ = √σ ψ, so purity is preserved.
    """
    require_same_dim(psi, sigma)
    phi = linalg.matrix_sqrt(sigma.matrix) @ psi.amplitudes
    if not np.any(phi):
        raise ZeroTraceError("sigma annihilated the pure state")
    return PureState(phi)


def phaser_as_spider(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    """Phaser computed through the spider route.

    Diagonalize σ, plug the root-eigenvalue ket into one leg of a spider
    over σ's eigenbasis, and conjugate ρ by the resulting phase gate.
    Agrees with ``phaser`` to numerical precision.
    """
    require_same_dim(rho, sigma)
    evals, evecs = np.linalg.eigh(sigma.matrix)
    roots = linalg.psd_roots(evals)
    if not np.any(roots):
        return DensityMatrix(np.zeros_like(sigma.matrix))
    basis = OrthonormalBasis.from_columns(evecs)
    gate = phase_apply(basis, PureState(roots))
    return DensityMatrix(linalg.hermitize(gate @ rho.matrix @ gate.conj().T))


@dataclass(frozen=True)
class TracePreservationReport:
    """Outcome of probing one mechanism for trace preservation."""

    mechanism: str
    dim: int
    trials: int
    max_deviation: float
    trace_preserving: bool


def trace_preservation_report(
    mechanism: str,
    operand,
    trials: int = 100,
    seed=DEFAULT_SEED,
) -> TracePreservationReport:
    """Probe whether an update sends normalized states to normalized states.

    Samples ``trials`` random normalized states and additionally probes
    each eigenspace of the operand directly (the eigenspace probe attains
    the worst deviation exactly, so the flag is not at the mercy of the
    sampler). Trace-preserving means max deviation < 1e-9, which happens
    only for decoherence-like fuzzes (all eigenvalues 1) and unimodular
    phasers (all |xᵢ| = 1).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng_from(seed)
    if mechanism == "fuzz":
        if not isinstance(operand, DensityMatrix):
            raise TypeError("fuzz operand must be a DensityMatrix")
        dim = operand.dim
        apply = lambda rho: fuzz(rho, operand)
        probes = [p for _, p in linalg.hermitian_eig(operand.matrix).terms]
    elif mechanism == "phaser_general":
        if not isinstance(operand, PhaserData):
            raise TypeError("phaser_general operand must be PhaserData")
        dim = operand.dim
        apply = lambda rho: phaser_general(rho, operand)
        probes = [p.matrix for _, p in operand.terms]
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    worst = 0.0
    for proj in probes:
        rank = float(np.trace(proj).real)
        if rank < 0.5:
            continue
        state = DensityMatrix(proj / rank)
        worst = max(worst, abs(apply(state).trace - 1.0))
    for _ in range(trials):
        state = random_density(dim, rng)
        worst = max(worst, abs(apply(state).trace - 1.0))
    return TracePreservationReport(
        mechanism=mechanism,
        dim=dim,
        trials=trials,
        max_deviation=worst,
        trace_preserving=worst < TRACE_TOL,
    )
