"""Seeded random generators for states, operators and bases.

Used by the verification suite and the randomized tests; every consumer
takes an explicit seed (or Generator) so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .density import DensityMatrix, PureState
from .spider import OrthonormalBasis

#: Seed used by shipped witnesses and the default verify run.
DEFAULT_SEED = 1729


def rng_from(seed) -> np.random.Generator:
    """Accept a seed or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _ginibre(dim: int, rng: np.random.Generator, cols: int | None = None) -> np.ndarray:
    cols = dim if cols is None else cols
    return rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))


def random_pure(dim: int, rng) -> PureState:
    """Haar-random unit ket."""
    rng = rng_from(rng)
    v = _ginibre(dim, rng, 1)[:, 0]
    return PureState(v / np.linalg.norm(v))


def random_density(dim: int, rng, rank: int | None = None) -> DensityMatrix:
    """Random normalized density matrix (Ginibre ensemble; full rank default)."""
    rng = rng_from(rng)
    g = _ginibre(dim, rng, rank)
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_psd(dim: int, rng) -> DensityMatrix:
    """Random unnormalized PSD matrix with entries of order 1."""
    rng = rng_from(rng)
    g = _ginibre(dim, rng)
    return DensityMatrix((g @ g.conj().T) / dim)


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary via QR with phase correction."""
    rng = rng_from(rng)
    q, r = np.linalg.qr(_ginibre(dim, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_basis(dim: int, rng) -> OrthonormalBasis:
    """Haar-random orthonormal basis (kets are unitary columns)."""
    return OrthonormalBasis.from_columns(random_unitary(dim, rng))


def random_ddm(dim: int, rng, max_factors: int = 3):
    """Random double density matrix: 1..max_factors factors of 1..dim branches.

    Branch kets are Haar-random and generically non-orthogonal, so the
    induced channels exercise the full two-level mixture, not just the
    fuzz/phaser reductions.
    """
    from .ddm import DdmBranch, DdmFactor, DoubleDensityMatrix

    rng = rng_from(rng)
    factors = []
    for _ in range(int(rng.integers(1, max_factors + 1))):
        branches = [
            DdmBranch(float(rng.uniform(0.1, 1.0)), random_pure(dim, rng))
            for _ in range(int(rng.integers(1, dim + 1)))
        ]
        factors.append(DdmFactor(float(rng.uniform(0.2, 1.5)), branches))
    return DoubleDensityMatrix(factors)
