import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzphaser import linalg
from fuzzphaser.errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    NotHermitianError,
    NotPSDError,
    NumericalFailureError,
)
from fuzzphaser.sampling import random_unitary


def _hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return linalg.hermitize(g)


class TestCoercion:
    def test_as_complex_matrix_copies_and_casts(self):
        src = np.eye(2)
        out = linalg.as_complex_matrix(src)
        assert out.dtype == np.complex128
        out_writable = np.array(out)
        out_writable[0, 0] = 5.0
        assert src[0, 0] == 1.0

    def test_as_complex_matrix_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            linalg.as_complex_matrix([1.0, 2.0])
        with pytest.raises(ValueError):
            linalg.as_complex_matrix([[1.0, 2.0]], square=True)
        with pytest.raises(ValueError):
            linalg.as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_as_complex_vector_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.as_complex_vector([1.0, np.inf])

    def test_max_abs(self):
        assert linalg.max_abs(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0
        assert linalg.max_abs(np.array([])) == 0.0

    def test_hermitize_and_check(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        h = linalg.hermitize(m)
        assert linalg.is_hermitian(h)
        assert not linalg.is_hermitian(m)

    def test_hermitian_check_at_the_ends_of_the_float_range(self):
        """An asymmetry of one subnormal ulp is caught, as is one near the
        float maximum, where M − M† is formed without overflow."""
        tiny = np.array([[0.0, 5e-324], [0.0, 0.0]])
        assert not linalg.is_hermitian(tiny)
        assert linalg.is_hermitian(tiny + tiny.T)
        big = np.array([[1e308, 1.7e308], [-1.7e308, 1e308]])
        with np.errstate(over="raise"):
            assert not linalg.is_hermitian(big)
            assert linalg.is_hermitian(np.array([[1e308, 1.7e308], [1.7e308, 1e308]]))


class TestGroupedEigh:
    def test_exact_degeneracy_merges(self):
        groups = linalg.grouped_eigh(np.diag([3.0, 1.0, 1.0]))
        assert len(groups) == 2
        assert groups[0][0] == pytest.approx(3.0)
        assert groups[1][0] == pytest.approx(1.0)
        assert groups[0][1].shape == (3, 1)
        assert groups[1][1].shape == (3, 2)

    def test_near_degeneracy_merges(self):
        # gap 5e-13 is far below GROUP_TOL * max(1, norm)
        groups = linalg.grouped_eigh(np.diag([3.0, 1.0 + 5e-13, 1.0]))
        assert len(groups) == 2
        assert groups[1][1].shape == (3, 2)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_grouping_is_scale_free(self, scale):
        groups = linalg.grouped_eigh(scale * np.diag([3.0, 2.995, 1.0 + 5e-13, 1.0]))
        assert [block.shape[1] for _, block in groups] == [1, 1, 2]

    def test_distinct_values_stay_separate(self):
        groups = linalg.grouped_eigh(np.diag([3.0, 1.5, 1.0]))
        assert [round(v, 6) for v, _ in groups] == [3.0, 1.5, 1.0]

    def test_values_strictly_decreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vals = [v for v, _ in linalg.grouped_eigh(_hermitian(5, rng))]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("value", [5e-324, 1e-310, 1e308, np.finfo(float).max])
    @pytest.mark.parametrize("n", [2, 3])
    def test_group_mean_at_the_ends_of_the_float_range(self, value, n):
        """A degenerate group's value is the mean of its eigenvalues up to the
        mean's own rounding, both where their sum passes the float range and
        where they are subnormal (so exactly, there)."""
        groups = linalg.grouped_eigh(value * np.eye(n))
        mean = float(sum(map(Fraction, np.linalg.eigvalsh(value * np.eye(n)))) / n)
        assert [block.shape[1] for _, block in groups] == [n]
        assert abs(groups[0][0] - mean) <= 4e-16 * mean

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.grouped_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("small", [1e-10, 1e-12])
    def test_small_eigenvalue_stays_apart_from_the_kernel(self, seed, small):
        """σ = 0.7 P1 + 0.3 P2 + small P3 on C⁵, with a 2-dim kernel.

        Each group must be one of the spectral projectors drawn and carry
        its value up to roundoff, the kernel's 0 and the small one's its
        own: the gap between them is far below GROUP_TOL, but the kernel
        is not a near-degenerate eigenvalue.
        """
        q = random_unitary(5, np.random.default_rng(seed))
        blocks = [q[:, :1], q[:, 1:2], q[:, 2:3], q[:, 3:]]
        projectors = [b @ b.conj().T for b in blocks]
        values = [0.7, 0.3, small, 0.0]
        sigma = sum(x * p for x, p in zip(values, projectors))
        groups = linalg.grouped_eigh(linalg.hermitize(sigma))
        assert [vecs.shape[1] for _, vecs in groups] == [1, 1, 1, 2]
        roundoff = 5 * np.finfo(float).eps
        for (value, vecs), x, p in zip(groups, values, projectors):
            assert abs(value - x) <= roundoff
            # an eigenvector is off by roundoff over the gap to its neighbours
            assert linalg.max_abs(vecs @ vecs.conj().T - p) <= roundoff / small


class TestSpectralDecomposition:
    def test_reconstruct_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = _hermitian(4, rng)
            decomp = linalg.hermitian_eig(m)
            assert linalg.max_abs(decomp.reconstruct() - m) < 1e-9

    def test_projectors_resolve_identity(self):
        decomp = linalg.hermitian_eig(np.diag([2.0, 2.0, 5.0]))
        total = sum(decomp.projectors)
        assert linalg.max_abs(total - np.eye(3)) < 1e-12
        assert decomp.eigenvalues == pytest.approx((5.0, 2.0))

    def test_degenerate_projector_is_basis_free(self):
        # rotate inside the degenerate eigenspace; projector cannot move
        rng = np.random.default_rng(3)
        u = random_unitary(2, rng)
        rot = np.block([
            [u, np.zeros((2, 1))],
            [np.zeros((1, 2)), np.ones((1, 1))],
        ])
        m = np.diag([1.0, 1.0, 4.0])
        rotated = rot @ m @ rot.conj().T
        p1 = linalg.hermitian_eig(m).projectors[1]
        p2 = linalg.hermitian_eig(linalg.hermitize(rotated)).projectors[1]
        assert linalg.max_abs(p1 - p2) < 1e-9


class TestMatrixSqrt:
    def test_oracle(self):
        root = linalg.matrix_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = np.sqrt(3.0)
        expected = np.array([[(s + 1) / 2, (s - 1) / 2], [(s - 1) / 2, (s + 1) / 2]])
        assert linalg.max_abs(root - expected) < 1e-12

    def test_squares_back(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            sigma = g @ g.conj().T
            root = linalg.matrix_sqrt(sigma)
            assert linalg.max_abs(root @ root - sigma) < 1e-9
            assert linalg.min_eigenvalue(root) > -1e-12

    def test_roundoff_negative_is_clipped(self):
        m = np.diag([1.0, -1e-12])
        root = linalg.matrix_sqrt(m)
        assert root[1, 1] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            linalg.matrix_sqrt(np.diag([1.0, -0.5]))
        with pytest.raises(NotPSDError):
            linalg.matrix_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestKron:
    def test_kron_matches_numpy(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.eye(3)
        assert np.array_equal(linalg.kron_all([a, b]), np.kron(a, b))

    def test_kron_all_empty_is_scalar_identity(self):
        assert np.array_equal(linalg.kron_all([]), np.eye(1))

    def test_cap_enforced(self):
        big = np.eye(100)
        with pytest.raises(DimensionOverflowError):
            linalg.kron_all([big, big])


class TestEmbed:
    def test_single_slot(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = linalg.embed_on_subsystem(x, [2, 2], [1])
        assert linalg.max_abs(out - np.kron(np.eye(2), x)) == 0.0

    def test_slot_order_permutes_factors(self):
        z = np.diag([1.0, -1.0])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        op = np.kron(z, x)
        out = linalg.embed_on_subsystem(op, [2, 2], [1, 0])
        assert linalg.max_abs(out - np.kron(x, z)) < 1e-12

    def test_non_contiguous_slots(self):
        rng = np.random.default_rng(9)
        a = _hermitian(2, rng)
        b = _hermitian(2, rng)
        op = np.kron(a, b)
        out = linalg.embed_on_subsystem(op, [2, 3, 2], [0, 2])
        expected = np.kron(np.kron(a, np.eye(3)), b)
        assert linalg.max_abs(out - expected) < 1e-12

    def test_set_slots_apply_sorted(self):
        z = np.diag([1.0, -1.0])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        op = np.kron(z, x)
        out = linalg.embed_on_subsystem(op, [2, 2], {1, 0})
        assert linalg.max_abs(out - op) < 1e-12

    def test_rejects_bad_slots(self):
        with pytest.raises(DimensionMismatchError):
            linalg.embed_on_subsystem(np.eye(2), [2, 2], [0, 0])
        with pytest.raises(DimensionMismatchError):
            linalg.embed_on_subsystem(np.eye(2), [2, 2], [5])
        with pytest.raises(DimensionMismatchError):
            linalg.embed_on_subsystem(np.eye(3), [2, 2], [0])


class TestPartialTrace:
    def test_kron_factors_recovered(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([[1.0, 0.5], [0.5, 4.0]])
        joint = np.kron(a, b)
        keep0 = linalg.partial_trace(joint, [2, 2], [0])
        keep1 = linalg.partial_trace(joint, [2, 2], [1])
        assert linalg.max_abs(keep0 - 5.0 * a) < 1e-12
        assert linalg.max_abs(keep1 - 5.0 * b) < 1e-12

    def test_three_wires(self):
        rng = np.random.default_rng(13)
        parts = [_hermitian(d, rng) for d in (2, 3, 2)]
        joint = np.kron(np.kron(parts[0], parts[1]), parts[2])
        traces = [np.trace(p) for p in parts]
        out = linalg.partial_trace(joint, [2, 3, 2], [1])
        expected = traces[0] * traces[2] * parts[1]
        assert linalg.max_abs(out - expected) < 1e-9

    def test_keep_all_is_identity_map(self):
        rng = np.random.default_rng(17)
        m = _hermitian(6, rng)
        out = linalg.partial_trace(m, [2, 3], [0, 1])
        assert linalg.max_abs(out - m) == 0.0

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(5), [2, 2], [0])

    def test_non_finite_traced_block_raises(self):
        m = np.eye(4, dtype=np.complex128)
        m[1, 1] = np.nan  # wire 1 is traced: lands in the kept (0, 0) entry
        with pytest.raises(NumericalFailureError):
            linalg.partial_trace(m, [2, 2], [0])

    @settings(max_examples=200)
    @given(
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=6),
        keep_bits=st.integers(0, 2**6 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_trace_loop(self, dims, keep_bits, seed):
        """One np.trace per traced wire, the last one first."""
        rng = np.random.default_rng(seed)
        total = math.prod(dims)
        m = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
        keep = [w for w in range(len(dims)) if keep_bits >> w & 1]
        tens, current = m.reshape(dims * 2), list(range(len(dims)))
        for w in sorted(set(current) - set(keep), reverse=True):
            pos = current.index(w)
            tens = np.trace(tens, axis1=pos, axis2=len(current) + pos)
            current.remove(w)
        kept_dim = math.prod(dims[w] for w in keep)
        expected = tens.reshape(kept_dim, kept_dim)
        out = linalg.partial_trace(m, dims, keep)
        assert out.shape == expected.shape
        assert linalg.max_abs(out - expected) <= 1e-14 * linalg.max_abs(expected)
