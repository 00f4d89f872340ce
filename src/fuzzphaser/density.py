"""Density matrices as meaning states.

States may be sub- or super-normalized: updates deliberately change the
trace, and nothing here renormalizes silently. ``renormalize`` is the
one explicit exception.

States are validated where data enters (lexicon load, priors, user code)
and where it leaves the evaluator (``textcirc.reduced_state``). States
the evaluator makes are PSD by construction and are not re-validated;
they are Hermitian up to roundoff, and their Hermitian part is taken
where they leave, too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, NotHermitianError, NotPSDError, ZeroTraceError

@dataclass(frozen=True, eq=False)
class PureState:
    """A ket with arbitrary (positive) norm; amplitudes need not be unit."""

    amplitudes: np.ndarray

    def __init__(self, amplitudes):
        amps = linalg.as_complex_vector(amplitudes)
        if amps.size == 0:
            raise ValueError("state must have positive dimension")
        if float(np.linalg.norm(amps)) == 0.0:
            raise ValueError("state must have nonzero norm")
        object.__setattr__(self, "amplitudes", linalg.frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        return PureState(self.amplitudes / self.norm())

    @staticmethod
    def basis(dim: int, index: int) -> "PureState":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return PureState(amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD matrix; trace may be any non-negative real.

    The constructor is the one check, Hermitian and PSD within ATOL times
    the largest entry. It runs on data from outside and on states leaving
    the evaluator; states the evaluator makes go through ``_unchecked``.
    """

    matrix: np.ndarray

    def __init__(self, matrix):
        m = linalg.as_complex_matrix(matrix, square=True)
        within = f"within {linalg.ATOL} of its largest entry"
        if not linalg.is_hermitian(m):
            raise NotHermitianError(f"density matrix must be Hermitian {within}")
        if linalg.min_eigenvalue(m) < -linalg.ATOL * linalg.max_abs(m):
            raise NotPSDError(f"density matrix must be PSD {within}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _unchecked(cls, matrix: np.ndarray) -> "DensityMatrix":
        """Wrap a fresh complex128 square array unchecked, freezing it in place.

        Only for Σ K ρ K† of a DensityMatrix ρ (a tensor product of
        DensityMatrix matrices included), or a positive rescale of one.
        Such a matrix is Hermitian up to roundoff; like validation, its
        Hermitian part is taken where it leaves the evaluator.
        """
        matrix.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", matrix)
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @staticmethod
    def identity(dim: int) -> "DensityMatrix":
        return DensityMatrix(np.eye(dim))

    @staticmethod
    def maximally_mixed(dim: int) -> "DensityMatrix":
        return DensityMatrix(np.eye(dim) / dim)


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent matrix (a Birkhoff-von Neumann proposition)."""

    matrix: np.ndarray

    def __init__(self, matrix):
        m = linalg.as_complex_matrix(matrix, square=True)
        if not linalg.is_hermitian(m):
            raise ValueError("projector must be Hermitian")
        if linalg.max_abs(m @ m - m) > linalg.ATOL:
            raise ValueError(
                f"projector must be idempotent within {linalg.ATOL}"
            )
        object.__setattr__(self, "matrix", linalg.frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def onto_pure(psi: PureState) -> "Projector":
        """Rank-1 projector onto the ray of ``psi`` (normalized internally)."""
        v = psi.amplitudes / psi.norm()
        return Projector(np.outer(v, v.conj()))

    @staticmethod
    def identity(dim: int) -> "Projector":
        return Projector(np.eye(dim))


def from_pure(psi: PureState) -> DensityMatrix:
    """|ψ⟩⟨ψ| (rank 1, trace ‖ψ‖²)."""
    v = psi.amplitudes
    return DensityMatrix(np.outer(v, v.conj()))


def projector_update(rho: DensityMatrix, p: Projector) -> DensityMatrix:
    """Impose the proposition ``p``: P ρ P. Trace-non-increasing."""
    if rho.dim != p.dim:
        raise DimensionMismatchError(
            f"state dim {rho.dim} != projector dim {p.dim}"
        )
    return DensityMatrix(linalg.hermitize(p.matrix @ rho.matrix @ p.matrix))


def decohere(rho: DensityMatrix, projectors: Sequence[Projector]) -> DensityMatrix:
    """Σᵢ Pᵢ ρ Pᵢ over an orthogonal complete projector family.

    Trace-preserving; with a rank-1 orthonormal family this keeps the
    diagonal and zeroes the off-diagonal entries in that basis.
    """
    for p in projectors:
        if p.dim != rho.dim:
            raise DimensionMismatchError(
                f"projector dim {p.dim} != state dim {rho.dim}"
            )
    linalg.check_resolution([p.matrix for p in projectors], rho.dim)
    out = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    for p in projectors:
        out += p.matrix @ rho.matrix @ p.matrix
    return DensityMatrix(linalg.hermitize(out))


def nonzero_trace(tr: float) -> float:
    """``tr``; raises ZeroTraceError at a trace ≤ 0. A positive trace,
    however small, is kept: its scale carries no tolerance."""
    if tr <= 0.0:
        raise ZeroTraceError(f"trace {tr:.3g} is not positive; the update annihilated the state")
    return tr


def _unit_scaled(rho: DensityMatrix) -> tuple[np.ndarray, float]:
    """ρ·2^-e and its trace m in [1/2, 1), for a trace m·2^e > 0
    (``nonzero_trace``): exact, in two factors that are each a float even
    where the trace is below the normal range."""
    mantissa, e = math.frexp(nonzero_trace(rho.trace))
    return rho.matrix * math.ldexp(1.0, -e // 2) * math.ldexp(1.0, (1 - e) // 2), mantissa


def renormalize(rho: DensityMatrix) -> DensityMatrix:
    """Scale to unit trace; raises ZeroTraceError at a trace ≤ 0. Dividing
    by the trace's mantissa (``_unit_scaled``) cannot overflow."""
    unit, mantissa = _unit_scaled(rho)
    unit /= mantissa
    return DensityMatrix._unchecked(unit)


def purity(rho: DensityMatrix) -> float:
    """trace(ρ²)/trace(ρ)²; equals 1 exactly for rank-1 states. Raises
    ZeroTraceError at a trace ≤ 0. ρ is first scaled by the power of 2 that
    brings its trace into [1/2, 1) (``_unit_scaled``), so that the squares
    neither under- nor overflow."""
    unit, mantissa = _unit_scaled(rho)
    return float(np.trace(unit @ unit).real) / mantissa**2
