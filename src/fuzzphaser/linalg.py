"""Dense complex matrix helpers.

Hermitian eigendecomposition with eigenvalue grouping, principal matrix
square root, Kronecker products, partial traces, and the embedding of
operators on selected subsystems that serves only as a dense oracle:
text evaluation works on each gate's own wires, never on D × D operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    IncompleteFamilyError,
    NotHermitianError,
    NotPSDError,
    NumericalFailureError,
)

#: Tolerance of the Hermitian and PSD checks, relative to the largest entry,
#: and of the idempotence and orthogonality checks on (unit-scale) projectors.
ATOL = 1e-9

#: Relative gap below which eigenvalues are merged into one eigenspace.
GROUP_TOL = 1e-8

#: Hard cap on joint (tensor-product) dimensions.
DIM_CAP = 4096


def as_complex_matrix(matrix, square: bool = False) -> np.ndarray:
    """Coerce input to a finite complex128 2-D array (a fresh copy)."""
    m = np.array(matrix, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise NumericalFailureError("matrix entries must be finite (no NaN/Inf)")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_complex_vector(vector) -> np.ndarray:
    """Coerce input to a finite complex128 1-D array (a fresh copy)."""
    v = np.array(vector, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise NumericalFailureError("vector entries must be finite (no NaN/Inf)")
    return v


def max_abs(a) -> float:
    """Max-norm: largest entrywise absolute value (0 for empty input)."""
    a = np.asarray(a)
    return float(np.maximum.reduce(np.abs(a), axis=None)) if a.size else 0.0


def column_norms(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of the complex matrix ``a`` as the rows of their real
    and imaginary parts, each row scaled by 2^-e: e = 0 where its largest
    part m lies in [2^-480, 2^480], else m·2^-e in [1/2, 1), which is
    exact, for a subnormal m too, so that no square under- or overflows;
    with e and the scaled rows' norms. Each row's squares are summed in one
    order whatever the number of columns, so that a column gets the same
    bits alone as among others."""
    parts = np.ascontiguousarray(np.asarray(a, dtype=np.complex128).T).view(np.float64)
    m = np.maximum.reduce(np.abs(parts), axis=1)
    e = np.where((m >= 2.0**-480) & (m <= 2.0**480), 0, np.frexp(m)[1])
    parts = np.ldexp(parts, -e[:, None])
    return parts, e, np.sqrt(np.add.reduce(parts * parts, axis=1))


def unit_columns(a) -> np.ndarray:
    """Each column of the complex matrix ``a`` over its norm, new, from its
    scaled parts (``column_norms``)."""
    parts, _, norms = column_norms(a)
    return (parts * (1.0 / norms)[:, None]).view(np.complex128).T


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Return the Hermitian part M/2 + M†/2, which does not overflow where M does not."""
    return matrix / 2 + matrix.conj().T / 2


def is_hermitian(matrix: np.ndarray) -> bool:
    """Check ‖M − M†‖_max ≤ ATOL · ‖M‖_max, a bound that scales with M. Only
    where an entry of M exceeds half the float maximum, so that M − M†
    could overflow, is the check made on halves, which lose no bit that
    the bound can see there; elsewhere on M itself, where halving a
    subnormal entry would round."""
    scale = max_abs(matrix)
    if scale > np.finfo(np.float64).max / 2:
        matrix, scale = matrix / 2, scale / 2
    return max_abs(matrix - matrix.conj().T) <= ATOL * scale


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only view-safe copy of an array."""
    out = np.array(a)
    out.setflags(write=False)
    return out


def check_resolution(projectors: Sequence[np.ndarray], dim: int) -> None:
    """Raise IncompleteFamilyError unless the family resolves the identity.

    That is: Hermitian idempotents, mutually orthogonal, summing to I.
    """
    total = np.zeros((dim, dim), dtype=np.complex128)
    for i, p in enumerate(projectors):
        if max_abs(p @ p - p) > ATOL or not is_hermitian(p):
            raise IncompleteFamilyError("projector is not Hermitian idempotent")
        for q in projectors[i + 1:]:
            if max_abs(p @ q) > ATOL:
                raise IncompleteFamilyError("projectors are not mutually orthogonal")
        total += p
    if max_abs(total - np.eye(dim)) > ATOL:
        raise IncompleteFamilyError("projectors do not sum to the identity")


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalue/eigenspace-projector pairs of a Hermitian matrix.

    Terms are ordered by strictly decreasing eigenvalue; each projector
    covers the full (possibly degenerate) eigenspace, so a basis rotation
    inside a degenerate space cannot change the decomposition. Built by
    ``hermitian_eig``, which holds these by construction, so they are not
    re-checked; ``check_resolution`` is for families from outside.
    """

    terms: tuple[tuple[float, np.ndarray], ...]
    dim: int

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(value for value, _ in self.terms)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(proj for _, proj in self.terms)

    def reconstruct(self) -> np.ndarray:
        """Σᵢ xᵢ Pᵢ."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for value, proj in self.terms:
            out += value * proj
        return out


def grouped_eigh(matrix) -> list[tuple[float, np.ndarray]]:
    """Eigendecompose a Hermitian matrix, merging near-degenerate eigenvalues.

    Eigenvalues whose adjacent gap is at most ``GROUP_TOL * ‖M‖``
    (spectral norm) are merged into one group, so rescaling M does not
    change the grouping. Eigenvalues within n·eps·‖M‖ of 0 are M's
    kernel up to roundoff: they form one group of value 0, which merges
    with no other, so a small eigenvalue next to the kernel keeps its own
    value and gives none of it to the kernel. Returns (value, column block
    of orthonormal eigenvectors) pairs, values strictly decreasing; every
    other group's value is the mean of its members, finite where they are.
    """
    m = as_complex_matrix(matrix, square=True)
    if not is_hermitian(m):
        raise NotHermitianError(
            f"matrix is not Hermitian within {ATOL} of its largest entry "
            f"(deviation {max_abs(m - m.conj().T):.3g})"
        )
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    scale = max_abs(evals)
    kernel = np.abs(evals) <= evals.size * np.finfo(np.float64).eps * scale
    breaks = (np.diff(evals) > GROUP_TOL * scale) | (kernel[1:] != kernel[:-1])
    boundaries = [0, *(np.flatnonzero(breaks) + 1).tolist(), evals.size]
    groups = [
        (0.0 if kernel[a] else _mean(evals[a:b]), evecs[:, a:b])
        for a, b in zip(boundaries[:-1], boundaries[1:])
    ]
    groups.reverse()
    return groups


def _mean(values: np.ndarray) -> float:
    """The mean of ascending values. Where their sum could pass the float
    range, it is taken on values·2^-j, 2^j above their count, and scaled
    back: exact there, as the kernel then holds every subnormal eigenvalue.
    Every other group keeps its bits."""
    if values.size == 1:  # np.mean's bits, without its calls
        return float(values[0])
    if max(-values[0], values[-1]) < np.finfo(np.float64).max / (2 * values.size):
        return float(np.mean(values))
    j = values.size.bit_length()
    return math.ldexp(float(np.mean(np.ldexp(values, -j))), j)


def hermitian_eig(matrix) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix into eigenspace projectors.

    Near-degenerate eigenvalues are merged per ``grouped_eigh``, which
    keeps downstream updates well-defined under near-degeneracy: the
    projector, not any eigenvector choice, is the canonical object.
    """
    groups = grouped_eigh(matrix)
    terms = tuple(
        (value, frozen(hermitize(vecs @ vecs.conj().T))) for value, vecs in groups
    )
    return SpectralDecomposition(terms=terms, dim=int(np.asarray(matrix).shape[0]))


def psd_roots(evals: np.ndarray) -> np.ndarray:
    """√λ over the spectrum of a PSD matrix; NotPSDError below -ATOL·max|λ|.

    λ ≤ n·eps·max|λ| is roundoff and gets the root 0, so the kernel of a
    rank-deficient matrix stays exact (ε ≈ 1e-17 would give √ε ≈ 3e-9).
    """
    scale = max_abs(evals)
    if evals.size and evals.min() < -ATOL * scale:
        raise NotPSDError(f"matrix has eigenvalue {evals.min():.3g} < -{ATOL}·{scale:.3g}")
    floor = evals.size * np.finfo(np.float64).eps * scale
    return np.sqrt(np.where(evals > floor, evals, 0.0))


def matrix_sqrt(matrix) -> np.ndarray:
    """Principal square root of a PSD matrix, with roots from ``psd_roots``."""
    m = as_complex_matrix(matrix, square=True)
    if not is_hermitian(m):
        raise NotPSDError("matrix is not Hermitian, so not PSD")
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    return hermitize((evecs * psd_roots(evals)) @ evecs.conj().T)


def min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of a Hermitian matrix (input is hermitized)."""
    m = as_complex_matrix(matrix, square=True)
    evals = np.linalg.eigvalsh(hermitize(m))
    return float(evals[0]) if evals.size else 0.0


def kron_all(matrices: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence (identity for empty),
    each factor coerced once and the dimension cap checked before each product."""
    out = np.eye(1, dtype=np.complex128)
    for m in matrices:
        m = as_complex_matrix(m)
        rows, cols = out.shape[0] * m.shape[0], out.shape[1] * m.shape[1]
        if max(rows, cols) > DIM_CAP:
            raise DimensionOverflowError(
                f"kron result is {rows}x{cols}, exceeding the cap {DIM_CAP}"
            )
        out = np.kron(out, m)
    return out


def _check_slots(slots, n: int) -> list[int]:
    if isinstance(slots, (set, frozenset)):
        slot_list = sorted(slots)
    else:
        slot_list = [int(s) for s in slots]
    if len(set(slot_list)) != len(slot_list):
        raise DimensionMismatchError(f"slots must be distinct, got {slot_list}")
    for s in slot_list:
        if not 0 <= s < n:
            raise DimensionMismatchError(f"slot {s} out of range for {n} wires")
    return slot_list


def embed_on_subsystem(op, slot_dims: Sequence[int], slots) -> np.ndarray:
    """Extend ``op`` by identities so it acts on the selected tensor factors.

    ``slots`` is a sequence of wire indices; its order fixes which tensor
    factor of ``op`` acts on which wire (a plain set is applied in sorted
    order). The verify oracle for text evaluation's local gate kernel.
    """
    dims = [int(d) for d in slot_dims]
    if any(d <= 0 for d in dims):
        raise DimensionMismatchError(f"wire dimensions must be positive: {dims}")
    n = len(dims)
    slot_list = _check_slots(slots, n)
    op = as_complex_matrix(op, square=True)
    op_dim = math.prod(dims[s] for s in slot_list)
    if op.shape[0] != op_dim:
        raise DimensionMismatchError(
            f"operator dim {op.shape[0]} != product of slot dims {op_dim}"
        )
    total = math.prod(dims)
    if total > DIM_CAP:
        raise DimensionOverflowError(
            f"joint dimension {total} exceeds the cap {DIM_CAP}"
        )
    rest = [w for w in range(n) if w not in slot_list]
    order = slot_list + rest
    full = np.kron(op, np.eye(total // op_dim, dtype=np.complex128))
    tens = full.reshape([dims[w] for w in order] * 2)
    inv = np.argsort(order)
    tens = tens.transpose(list(inv) + [n + int(i) for i in inv])
    return np.ascontiguousarray(tens.reshape(total, total))


def partial_trace(matrix, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out every wire not in ``keep`` (kept wires stay in wire order).

    One einsum with a subscript per traced wire and two per kept wire,
    wires of dimension 1 dropped: every other wire has d ≥ 2, so any
    matrix that fits in memory stays within einsum's 52. The input is read
    in place, not copied; the result is new and must be finite.
    """
    dims = [int(d) for d in dims]
    m = np.asarray(matrix, dtype=np.complex128)
    total = math.prod(dims)
    if m.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} != ({total}, {total}), the product of wire dims"
        )
    keep_set = set(_check_slots(keep, len(dims)))
    wires = [w for w, d in enumerate(dims) if d > 1]
    n = len(wires)
    kept = [i for i, w in enumerate(wires) if w in keep_set]
    cols = [n + i if w in keep_set else i for i, w in enumerate(wires)]
    tens = m.reshape([dims[w] for w in wires] * 2)
    traced = np.einsum(tens, list(range(n)) + cols, kept + [n + i for i in kept])
    kept_dim = math.prod(dims[w] for w in keep_set)
    out = np.array(traced.reshape(kept_dim, kept_dim))
    if not np.all(np.isfinite(out.view(np.float64))):
        raise NumericalFailureError("matrix entries must be finite (no NaN/Inf)")
    return out
