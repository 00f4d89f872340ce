"""Double density matrices: the mechanism unifying fuzz and phaser.

A double density matrix (DDM) is a two-level mixture: outer factors
weighted y_k > 0, each an inner mixture of unit kets φ_ik weighted
x_ik ≥ 0. The canonical vectors ω_ik = y_k^(1/4) x_ik^(1/2) φ_ik
assemble into Hermitian PSD Kraus factors A_k = Σᵢ |ω_ik⟩⟨ω_ik| and
updating is the CP map ρ ↦ Σₖ A_k ρ A_k. Keeping only the outer
mixture recovers the fuzz; keeping only the inner one, the phaser.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .density import DensityMatrix, PureState, require_same_dim
from .errors import DimensionMismatchError, NumericalFailureError, SizeCapError, ZeroTraceError


@dataclass(frozen=True, eq=False)
class DdmBranch:
    """One inner-mixture component: a weight x ≥ 0 on a unit ket.

    The vector is normalized on entry; magnitude lives in the weight.
    """

    x: float
    phi: PureState

    def __init__(self, x: float, phi):
        x = float(x)
        if not np.isfinite(x) or x < 0.0:
            raise ValueError("branch weight must be a finite real >= 0")
        if not isinstance(phi, PureState):
            phi = PureState(phi)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "phi", phi.normalized())

    @classmethod
    def _unchecked(cls, x: float, phi: PureState) -> "DdmBranch":
        """A branch of a finite x ≥ 0 on a unit ket normalized as the
        constructor does (``linalg.unit_columns``), unchecked."""
        branch = object.__new__(cls)
        object.__setattr__(branch, "x", x)
        object.__setattr__(branch, "phi", phi)
        return branch

    @property
    def dim(self) -> int:
        return self.phi.dim


@dataclass(frozen=True, eq=False)
class DdmFactor:
    """One outer-mixture component: a weight y > 0 on a branch list."""

    y: float
    branches: tuple[DdmBranch, ...]

    def __init__(self, y: float, branches: Iterable):
        y = float(y)
        if not np.isfinite(y) or y <= 0.0:
            raise ValueError("factor weight must be a finite real > 0")
        packed = tuple(
            b if isinstance(b, DdmBranch) else DdmBranch(*b) for b in branches
        )
        if not packed:
            raise ValueError("factor needs at least one branch")
        dim = packed[0].dim
        for b in packed:
            if b.dim != dim:
                raise DimensionMismatchError("branch vectors must share one dimension")
        if all(b.x == 0.0 for b in packed):
            raise ValueError("factor needs a branch with positive weight")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "branches", packed)

    @property
    def dim(self) -> int:
        return self.branches[0].dim


@dataclass(frozen=True, eq=False)
class DoubleDensityMatrix:
    """A two-level mixture over unit kets, acting on states as a CP map."""

    factors: tuple[DdmFactor, ...]
    dim: int

    def __init__(self, factors: Iterable):
        packed = tuple(
            f if isinstance(f, DdmFactor) else DdmFactor(*f) for f in factors
        )
        if not packed:
            raise ValueError("need at least one factor")
        dim = packed[0].dim
        for f in packed:
            if f.dim != dim:
                raise DimensionMismatchError("factors must share one dimension")
        object.__setattr__(self, "factors", packed)
        object.__setattr__(self, "dim", dim)


def _weighted_sum(units: np.ndarray, weights) -> np.ndarray:
    """Σᵢ wᵢ |uᵢ⟩⟨uᵢ| over the columns uᵢ of ``units``, in one product of a
    contiguous copy, so that the same columns and weights give the same bits
    however they are held: the one arithmetic of every A_k made here."""
    units = np.ascontiguousarray(units)
    return (units * weights).dot(units.conj().T)


def _kraus_factor(factor: DdmFactor) -> np.ndarray:
    """√y Σᵢ xᵢ |φᵢ⟩⟨φᵢ|. Its entries are at most √y Σᵢ xᵢ in modulus; where
    that could pass the float range, the sum is taken on xᵢ·2^-k, k the
    binade of the largest xᵢ, and the result scaled back by 2^k, exact but
    for subnormal terms: NumericalFailureError only where a part of an
    entry is past the float range."""
    root, weights = math.sqrt(factor.y), [b.x for b in factor.branches]
    big = np.finfo(np.float64).max
    k = 0 if root * sum(weights) < big / 2 else math.frexp(max(weights))[1]
    units = np.array([b.phi.amplitudes for b in factor.branches]).T
    acc = root * _weighted_sum(units, np.ldexp(weights, -k))
    if k == 0:
        return acc
    if max(linalg.max_abs(acc.real), linalg.max_abs(acc.imag)) > math.ldexp(big, -k):
        raise NumericalFailureError("Kraus factor passes the float range")
    return np.ldexp(acc.view(np.float64), k).view(np.complex128)


def ddm_kraus(d: DoubleDensityMatrix) -> list[np.ndarray]:
    """The Kraus factors A_k = √y_k Σᵢ x_ik |φ_ik⟩⟨φ_ik|.

    Each is Hermitian PSD by construction, which is what distinguishes
    these channels from ones with a generic Kraus set.
    """
    return [linalg.frozen(_kraus_factor(f)) for f in d.factors]


def canonical_vectors(d: DoubleDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The canonical vectors ω_ik as the columns of W, and the k of each column.

    Zero-weight branches are dropped. Each factor's columns are contiguous
    and in factor order, so A_k = W_k W_k† over the columns W_k of factor k.
    """
    columns, owner = [], []
    for k, f in enumerate(d.factors):
        kept = [b for b in f.branches if b.x > 0.0]
        units = np.array([b.phi.amplitudes for b in kept]).T
        columns.append(units * (f.y**0.25 * np.sqrt([b.x for b in kept])))
        owner += [k] * len(kept)
    return np.concatenate(columns, axis=1), np.array(owner)


def fuzz_parts(sigma: DensityMatrix):
    """``ddm_kraus`` and ``canonical_vectors`` of ``ddm_from_fuzz(σ)``, the
    same bits, from σ's one ``grouped_eigh`` and no DDM, the bases of its
    positive eigenspaces normalized in one pass (``linalg.unit_columns``):
    ((), None) where σ has no positive eigenvalue, so that the fuzz
    annihilates every state."""
    groups = [(value, block) for value, block in linalg.grouped_eigh(sigma.matrix) if value > 0.0]
    if not groups:
        return (), None
    units = linalg.unit_columns(np.concatenate([block for _, block in groups], axis=1))
    sizes = [block.shape[1] for _, block in groups]
    starts = [0, *itertools.accumulate(sizes)]
    kraus = tuple(
        linalg.frozen(math.sqrt(value) * _weighted_sum(units[:, a:b], np.ones(b - a)))
        for (value, _), a, b in zip(groups, starts, starts[1:])
    )
    scales = np.repeat([value**0.25 for value, _ in groups], sizes)
    return kraus, (units * scales, np.repeat(np.arange(len(groups)), sizes))


def phaser_parts(sigma: DensityMatrix):
    """(√σ,) by ``linalg.matrix_sqrt``'s arithmetic, and ``canonical_vectors``
    of ``ddm_from_phaser(σ)`` (None for σ = 0), the same bits, from one eigh
    of σ and no DDM."""
    try:
        evals, evecs = np.linalg.eigh(sigma.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    roots = linalg.psd_roots(evals)
    kraus = (linalg.frozen(linalg.hermitize((evecs * roots) @ evecs.conj().T)),)
    kept = np.flatnonzero(roots > 0.0)[::-1]  # descending, as ddm_from_phaser's branches
    if not kept.size:
        return kraus, None
    vectors = linalg.unit_columns(evecs[:, kept]) * np.sqrt(roots[kept])
    return kraus, (vectors, np.zeros(kept.size, dtype=int))


def ddm_update(rho: DensityMatrix, d: DoubleDensityMatrix) -> DensityMatrix:
    """Σₖ A_k ρ A_k, the CP update induced by the double mixture."""
    require_same_dim(rho, d)
    out = np.zeros((d.dim, d.dim), dtype=np.complex128)
    for f in d.factors:
        a = _kraus_factor(f)
        out += a @ rho.matrix @ a
    return DensityMatrix(linalg.hermitize(out))


def ddm_from_fuzz(sigma: DensityMatrix) -> DoubleDensityMatrix:
    """The DDM with only an outer mixture: one factor per eigen-group.

    Factor k carries y_k = eig_k and an orthonormal basis of the
    eigenspace with unit weights, so A_k = √eig_k · P_k and the update
    is the fuzz Σₖ eig_k P_k ρ P_k.
    """
    factors = []
    for value, block in linalg.grouped_eigh(sigma.matrix):
        if value <= 0.0:
            continue
        branches = [DdmBranch(1.0, PureState._unchecked(col)) for col in block.T]
        factors.append(DdmFactor(value, branches))
    if not factors:
        raise ZeroTraceError("operand has no positive eigenvalues")
    return DoubleDensityMatrix(factors)


def ddm_from_phaser(sigma: DensityMatrix) -> DoubleDensityMatrix:
    """The DDM with only an inner mixture: a single factor encoding √σ.

    Branch weights are √eigᵢ per eigenvector of σ, so A₁ = √σ and the
    update is the phaser √σ ρ √σ. Per-eigenvector branches are safe
    here, unlike for the fuzz: only the sum A₁ enters the update, and
    it is the same for every eigenbasis choice.
    """
    evals, evecs = np.linalg.eigh(sigma.matrix)
    roots = linalg.psd_roots(evals)
    branches = [
        DdmBranch(roots[i], PureState._unchecked(evecs[:, i]))
        for i in range(evals.size - 1, -1, -1)
        if roots[i] > 0.0
    ]
    if not branches:
        raise ZeroTraceError("operand has no positive eigenvalues")
    return DoubleDensityMatrix([DdmFactor(1.0, branches)])


def _check_doubled(dim: int):
    if dim * dim > linalg.DIM_CAP:
        raise SizeCapError(
            f"doubled space of dimension {dim}^2 exceeds cap {linalg.DIM_CAP}"
        )


def choi_matrix(d: DoubleDensityMatrix) -> np.ndarray:
    """Choi matrix Σᵢⱼ |i⟩⟨j| ⊗ Φ(|i⟩⟨j|) of the induced map Φ.

    Built by applying the map to every matrix unit. PSD exactly when
    the map is completely positive, which holds for every DDM.
    """
    _check_doubled(d.dim)
    n = d.dim
    kraus = [_kraus_factor(f) for f in d.factors]
    choi = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=np.complex128)
            unit[i, j] = 1.0
            image = np.zeros((n, n), dtype=np.complex128)
            for a in kraus:
                image += a @ unit @ a
            choi += np.kron(unit, image)
    return linalg.frozen(choi)


def ddm_as_state(d: DoubleDensityMatrix) -> DensityMatrix:
    """The DDM as an ordinary density matrix on the doubled space.

    Each factor contributes |Ω_k⟩⟨Ω_k| with Ω_k = Σᵢ ω_ik ⊗ ω̄_ik, the
    row-major vectorization of A_k. Its trace is Σₖ tr(A_k²).
    """
    _check_doubled(d.dim)
    out = np.zeros((d.dim**2, d.dim**2), dtype=np.complex128)
    for f in d.factors:
        vec = _kraus_factor(f).reshape(-1)
        out += np.outer(vec, vec.conj())
    return DensityMatrix(linalg.hermitize(out))


def kraus_from_state(state: DensityMatrix) -> list[np.ndarray]:
    """Recover a Kraus set from a doubled-space encoding.

    Eigenvectors scaled by root eigenvalue and un-vectorized implement
    the same channel as the DDM the state came from. The recovered
    operators need not be Hermitian individually.
    """
    n = math.isqrt(state.dim)
    if n * n != state.dim:
        raise DimensionMismatchError(f"dimension {state.dim} is not a square")
    evals, evecs = np.linalg.eigh(state.matrix)
    cutoff = linalg.ATOL * float(evals.max(initial=0.0))
    ops = []
    for k in range(evals.size - 1, -1, -1):
        if evals[k] <= cutoff:
            continue
        ops.append(np.sqrt(evals[k]) * evecs[:, k].reshape(n, n))
    return ops


def apply_kraus(rho: DensityMatrix, kraus: Sequence[np.ndarray]) -> DensityMatrix:
    """Σₘ K_m ρ K_m† for a generic (not necessarily Hermitian) Kraus set."""
    out = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    for k in kraus:
        if k.shape != (rho.dim, rho.dim):
            raise DimensionMismatchError("Kraus operator shape mismatch")
        out += k @ rho.matrix @ k.conj().T
    return DensityMatrix(linalg.hermitize(out))


def canonicalize(d: DoubleDensityMatrix) -> DoubleDensityMatrix:
    """Normal form inducing the same map: orthogonal branches per factor.

    Each A_k is eigendecomposed; branches become its eigenvectors and
    y_k becomes tr(A_k²), making every branch weight vector unit-norm.
    This fixes the rescaling freedom (y_k ↦ c²y_k, x_ik ↦ x_ik/c leaves
    the map alone) but is not unique under eigenvalue degeneracy; use
    same_channel for extensional equality.
    """
    weighted = []
    for f in d.factors:
        a = _kraus_factor(f)
        weight = float(np.trace(a @ a).real)
        evals, evecs = np.linalg.eigh(a)
        cutoff = linalg.ATOL * float(np.abs(evals).max())
        scale = np.sqrt(weight)
        branches = [
            DdmBranch(evals[k] / scale, PureState(evecs[:, k]))
            for k in range(evals.size - 1, -1, -1)
            if evals[k] > cutoff
        ]
        weighted.append((weight, DdmFactor(weight, branches)))
    weighted.sort(key=lambda pair: -pair[0])
    return DoubleDensityMatrix([f for _, f in weighted])


def same_channel(a: DoubleDensityMatrix, b: DoubleDensityMatrix) -> bool:
    """Extensional equality: the induced maps have equal Choi matrices."""
    if a.dim != b.dim:
        return False
    ca, cb = choi_matrix(a), choi_matrix(b)
    scale = max(linalg.max_abs(ca), linalg.max_abs(cb))
    return linalg.max_abs(ca - cb) <= linalg.ATOL * scale
