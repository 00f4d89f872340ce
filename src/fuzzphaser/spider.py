"""Spider tensors over a declared orthonormal basis.

A spider with m input and n output legs is Σᵢ |i…i⟩⟨i…i| in its basis;
caps and cups are the (0,2) and (2,0) special cases. Spiders over the
same basis fuse when composed; spiders over different bases do not,
which is exactly what makes basis-anchored updating non-commutative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from . import linalg
from .density import PureState
from .errors import DimensionMismatchError, SizeCapError

#: Cap on the total number of scalars in any dense spider tensor.
SIZE_CAP = 2**20


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """An orthonormal basis; row i of ``vectors`` is the i-th basis ket."""

    vectors: np.ndarray

    def __init__(self, vectors):
        if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
            rows = linalg.as_complex_matrix(vectors, square=True)
        else:
            kets = [
                v.amplitudes if isinstance(v, PureState) else linalg.as_complex_vector(v)
                for v in vectors
            ]
            rows = np.array(kets, dtype=np.complex128)
        if rows.shape[0] != rows.shape[1]:
            raise ValueError("need exactly dim basis vectors of length dim")
        gram = rows @ rows.conj().T
        if linalg.max_abs(gram - np.eye(rows.shape[0])) > linalg.ATOL:
            raise ValueError(
                f"basis vectors are not orthonormal within {linalg.ATOL}"
            )
        object.__setattr__(self, "vectors", linalg.frozen(rows))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def vector(self, i: int) -> np.ndarray:
        return self.vectors[i]

    @staticmethod
    def computational(dim: int) -> "OrthonormalBasis":
        return OrthonormalBasis(np.eye(dim, dtype=np.complex128))

    @staticmethod
    def from_columns(matrix) -> "OrthonormalBasis":
        """Basis whose i-th ket is column i of a unitary matrix."""
        return OrthonormalBasis(linalg.as_complex_matrix(matrix, square=True).T)


@dataclass(frozen=True, eq=False)
class SpiderTensor:
    """Dense spider tensor; axes are the m input legs then the n output legs."""

    basis: OrthonormalBasis
    legs_in: int
    legs_out: int
    tensor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tensor", linalg.frozen(self.tensor))

    @property
    def legs(self) -> int:
        return self.legs_in + self.legs_out

    def as_matrix(self) -> np.ndarray:
        """Matrix of the spider as a linear map: dim^out rows, dim^in cols."""
        d = self.basis.dim
        axes = list(range(self.legs_in, self.legs)) + list(range(self.legs_in))
        return self.tensor.transpose(axes).reshape(d**self.legs_out, d**self.legs_in)


def make_spider(basis: OrthonormalBasis, m: int, n: int) -> SpiderTensor:
    """Spider with m input and n output legs: Σᵢ |i…i⟩⟨i…i| in ``basis``."""
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m, n >= 0 with at least one leg")
    d = basis.dim
    if d ** (m + n) > SIZE_CAP:
        raise SizeCapError(
            f"spider tensor would hold {d**(m+n)} scalars, cap is {SIZE_CAP}"
        )
    tensor = np.zeros((d,) * (m + n), dtype=np.complex128)
    for i in range(d):
        ket = basis.vector(i)
        factors = [ket.conj()] * m + [ket] * n
        tensor += reduce(np.multiply.outer, factors)
    return SpiderTensor(basis=basis, legs_in=m, legs_out=n, tensor=tensor)


def cap(basis: OrthonormalBasis) -> SpiderTensor:
    """Two-system state Σᵢ |ii⟩."""
    return make_spider(basis, 0, 2)


def cup(basis: OrthonormalBasis) -> SpiderTensor:
    """Two-system effect Σᵢ ⟨ii|."""
    return make_spider(basis, 2, 0)


def _as_tensor(obj) -> np.ndarray:
    if isinstance(obj, SpiderTensor):
        return np.asarray(obj.tensor)
    arr = np.asarray(obj, dtype=np.complex128)
    if arr.ndim == 0:
        raise ValueError("cannot contract a scalar; it has no legs")
    return arr


def contract(a, b, leg_pairs: Sequence[tuple[int, int]]):
    """Einstein contraction of two tensors over the paired legs.

    Legs are axis indices: for a SpiderTensor the input legs come first,
    then the output legs; a plain matrix has legs (row, column). Returns
    a bare ndarray (0-dim for a full contraction).
    """
    ta, tb = _as_tensor(a), _as_tensor(b)
    axes_a = [p[0] for p in leg_pairs]
    axes_b = [p[1] for p in leg_pairs]
    for la, lb in leg_pairs:
        if not (0 <= la < ta.ndim and 0 <= lb < tb.ndim):
            raise DimensionMismatchError(
                f"leg pair ({la},{lb}) out of range for shapes {ta.shape}, {tb.shape}"
            )
        if ta.shape[la] != tb.shape[lb]:
            raise DimensionMismatchError(
                f"leg {la} of a has dim {ta.shape[la]} but leg {lb} of b "
                f"has dim {tb.shape[lb]}"
            )
    out_size = math.prod(
        [d for i, d in enumerate(ta.shape) if i not in axes_a]
        + [d for i, d in enumerate(tb.shape) if i not in axes_b]
    )
    if out_size > SIZE_CAP:
        raise SizeCapError(f"contraction result holds {out_size} scalars")
    return np.tensordot(ta, tb, axes=(axes_a, axes_b))


def phase_apply(basis: OrthonormalBasis, x: PureState) -> np.ndarray:
    """Σᵢ xᵢ |bᵢ⟩⟨bᵢ|: a spider with one input leg plugged by the phase ket.

    ``x.amplitudes[i]`` is the weight attached to basis vector i. With
    unimodular weights this is a unitary phase gate in ``basis``.
    """
    if x.dim != basis.dim:
        raise DimensionMismatchError(
            f"phase vector dim {x.dim} != basis dim {basis.dim}"
        )
    spider = make_spider(basis, 2, 1)
    plug = x.amplitudes @ basis.vectors  # Σᵢ xᵢ |bᵢ⟩ in ambient coordinates
    plugged = contract(spider, plug, [(1, 0)])  # axes: remaining input, output
    return np.ascontiguousarray(plugged.T)
