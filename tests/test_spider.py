import numpy as np
import pytest

from fuzzphaser import linalg
from fuzzphaser.density import PureState
from fuzzphaser.errors import DimensionMismatchError, SizeCapError
from fuzzphaser.sampling import random_basis
from fuzzphaser.spider import (
    OrthonormalBasis,
    cap,
    contract,
    cup,
    make_spider,
    phase_apply,
)


class TestOrthonormalBasis:
    def test_computational(self):
        basis = OrthonormalBasis.computational(3)
        assert basis.dim == 3
        assert np.array_equal(basis.vector(1), np.array([0.0, 1.0, 0.0]))

    def test_from_columns_transposes(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        basis = OrthonormalBasis.from_columns(u)
        assert np.array_equal(basis.vector(0), np.array([0.0, 1.0]))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            OrthonormalBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_accepts_pure_state_rows(self):
        basis = OrthonormalBasis([PureState([1.0, 0.0]), PureState([0.0, 1.0])])
        assert basis.dim == 2


class TestMakeSpider:
    def test_computational_entries(self):
        s = make_spider(OrthonormalBasis.computational(2), 1, 2)
        assert s.tensor.shape == (2, 2, 2)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected = 1.0 if i == j == k else 0.0
                    assert s.tensor[i, j, k] == expected

    def test_as_matrix_shape(self):
        s = make_spider(OrthonormalBasis.computational(2), 1, 2)
        m = s.as_matrix()
        assert m.shape == (4, 2)
        assert m[0, 0] == 1.0 and m[3, 1] == 1.0
        assert np.count_nonzero(m) == 2

    def test_one_in_one_out_is_identity(self):
        rng = np.random.default_rng(41)
        basis = random_basis(3, rng)
        s = make_spider(basis, 1, 1)
        assert linalg.max_abs(s.as_matrix() - np.eye(3)) < 1e-12

    def test_cap_and_cup(self):
        basis = OrthonormalBasis.computational(2)
        assert np.array_equal(cap(basis).tensor, np.eye(2))
        assert cap(basis).legs_out == 2 and cap(basis).legs_in == 0
        flat = cup(basis).as_matrix()
        assert flat.shape == (1, 4)
        assert np.array_equal(flat[0], np.array([1.0, 0.0, 0.0, 1.0]))

    def test_needs_a_leg(self):
        with pytest.raises(ValueError):
            make_spider(OrthonormalBasis.computational(2), 0, 0)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            make_spider(OrthonormalBasis.computational(2), 0, 21)


class TestContract:
    def test_matrix_product_via_legs(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        out = contract(a, b, [(1, 0)])
        assert np.allclose(out, a @ b)

    def test_full_contraction_gives_scalar(self):
        basis = OrthonormalBasis.computational(3)
        out = contract(cup(basis), cap(basis), [(0, 0), (1, 1)])
        assert out.shape == ()
        assert complex(out) == pytest.approx(3.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            contract(np.eye(2), np.eye(3), [(1, 0)])
        with pytest.raises(DimensionMismatchError):
            contract(np.eye(2), np.eye(2), [(7, 0)])

    def test_scalar_input_rejected(self):
        with pytest.raises(ValueError):
            contract(np.float64(2.0), np.eye(2), [(0, 0)])


class TestFusion:
    def test_two_spiders_fuse(self):
        rng = np.random.default_rng(47)
        for basis in (OrthonormalBasis.computational(2), random_basis(2, rng)):
            a = make_spider(basis, 1, 1)
            b = make_spider(basis, 1, 2)
            fused = contract(a, b, [(1, 0)])
            target = make_spider(basis, 1, 2).tensor
            assert linalg.max_abs(fused - target) < 1e-12

    def test_cap_cup_snake_is_identity(self):
        # bend a wire with a cap and a cup; the composite is the plain wire
        rng = np.random.default_rng(53)
        basis = random_basis(3, rng)
        snake = contract(cap(basis).tensor, cup(basis).tensor, [(1, 0)])
        assert linalg.max_abs(snake - np.eye(3)) < 1e-12

    def test_different_bases_do_not_fuse(self):
        basis1 = OrthonormalBasis.computational(2)
        basis2 = OrthonormalBasis(np.array([[0.8, 0.6], [-0.6, 0.8]]))
        a = make_spider(basis1, 2, 1)
        b = make_spider(basis2, 1, 2)
        raw = contract(a, b, [(2, 0)])
        for basis in (basis1, basis2):
            gap = linalg.max_abs(raw - make_spider(basis, 2, 2).tensor)
            assert gap > 1e-3


class TestPhaseApply:
    def test_computational_is_diagonal(self):
        out = phase_apply(OrthonormalBasis.computational(3), PureState([2.0, 3.0, 5.0]))
        assert np.allclose(out, np.diag([2.0, 3.0, 5.0]))

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(59)
        basis = random_basis(4, rng)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = phase_apply(basis, PureState(x))
        direct = np.zeros((4, 4), dtype=np.complex128)
        for i in range(4):
            ket = basis.vector(i)
            direct += x[i] * np.outer(ket, ket.conj())
        assert linalg.max_abs(out - direct) < 1e-12

    def test_unimodular_weights_give_unitary(self):
        rng = np.random.default_rng(61)
        basis = random_basis(3, rng)
        x = np.exp(2j * np.pi * rng.uniform(size=3))
        gate = phase_apply(basis, PureState(x))
        assert linalg.max_abs(gate @ gate.conj().T - np.eye(3)) < 1e-12

    def test_dim_check(self):
        with pytest.raises(DimensionMismatchError):
            phase_apply(OrthonormalBasis.computational(2), PureState([1.0, 2.0, 3.0]))
