import numpy as np
import pytest

from fuzzphaser.density import (
    DensityMatrix,
    Projector,
    PureState,
    decohere,
    from_pure,
    projector_update,
    purity,
    renormalize,
)
from fuzzphaser.errors import (
    DimensionMismatchError,
    IncompleteFamilyError,
    NotPSDError,
    ZeroTraceError,
)
from fuzzphaser.sampling import random_density, random_pure


class TestPureState:
    def test_norm_and_normalized(self):
        psi = PureState([3.0, 4.0])
        assert psi.norm() == pytest.approx(5.0)
        assert psi.normalized().norm() == pytest.approx(1.0)
        assert psi.dim == 2

    def test_basis_ket(self):
        e1 = PureState.basis(3, 1)
        assert np.array_equal(e1.amplitudes, np.array([0.0, 1.0, 0.0]))

    def test_rejects_zero_and_empty(self):
        with pytest.raises(ValueError):
            PureState([0.0, 0.0])
        with pytest.raises(ValueError):
            PureState([])

    def test_amplitudes_are_read_only(self):
        psi = PureState([1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 2.0


class TestDensityMatrix:
    def test_accepts_subnormalized(self):
        rho = DensityMatrix([[0.25, 0.0], [0.0, 0.25]])
        assert rho.trace == pytest.approx(0.5)

    def test_accepts_supernormalized(self):
        rho = DensityMatrix(3.0 * np.eye(2))
        assert rho.trace == pytest.approx(6.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.0, -0.1]))

    def test_tolerates_roundoff_negativity(self):
        rho = DensityMatrix(np.diag([1.0, -1e-12]))
        assert rho.dim == 2

    def test_tolerance_scales_with_the_matrix(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            rho = DensityMatrix(1e9 * from_pure(random_pure(4, rng)).matrix)
            assert rho.trace == pytest.approx(1e9)
        with pytest.raises(NotPSDError):
            DensityMatrix(1e-10 * np.diag([1.0, -1.0]))

    def test_constructors(self):
        assert DensityMatrix.identity(3).trace == pytest.approx(3.0)
        mixed = DensityMatrix.maximally_mixed(4)
        assert mixed.trace == pytest.approx(1.0)
        assert purity(mixed) == pytest.approx(0.25)


class TestProjector:
    def test_onto_pure_normalizes(self):
        p = Projector.onto_pure(PureState([2.0, 0.0]))
        assert np.allclose(p.matrix, np.diag([1.0, 0.0]))

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            Projector(np.diag([0.5, 0.5]))

    def test_identity(self):
        assert np.array_equal(Projector.identity(2).matrix, np.eye(2))


class TestProjectorUpdate:
    def test_oracle(self):
        plus = PureState([1.0, 1.0]).normalized()
        out = projector_update(from_pure(plus), Projector.onto_pure(PureState([1.0, 0.0])))
        assert np.allclose(out.matrix, np.diag([0.5, 0.0]))

    def test_trace_never_increases(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            rho = random_density(3, rng)
            p = Projector.onto_pure(random_pure(3, rng))
            assert projector_update(rho, p).trace <= rho.trace + 1e-12

    def test_idempotent_on_states(self):
        rng = np.random.default_rng(23)
        rho = random_density(3, rng)
        p = Projector.onto_pure(random_pure(3, rng))
        once = projector_update(rho, p)
        twice = projector_update(once, p)
        assert np.allclose(once.matrix, twice.matrix, atol=1e-12)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            projector_update(DensityMatrix.identity(2), Projector.identity(3))


class TestDecohere:
    def test_kills_off_diagonals(self):
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        family = [
            Projector.onto_pure(PureState.basis(2, 0)),
            Projector.onto_pure(PureState.basis(2, 1)),
        ]
        out = decohere(rho, family)
        assert np.allclose(out.matrix, np.diag([0.5, 0.5]))

    def test_preserves_trace(self):
        rng = np.random.default_rng(29)
        rho = random_density(4, rng)
        family = [Projector(np.diag([1.0, 1.0, 0, 0])), Projector(np.diag([0, 0, 1.0, 1.0]))]
        assert decohere(rho, family).trace == pytest.approx(rho.trace)

    def test_rejects_incomplete_family(self):
        rho = DensityMatrix.identity(2)
        with pytest.raises(IncompleteFamilyError):
            decohere(rho, [])
        with pytest.raises(IncompleteFamilyError):
            decohere(rho, [Projector(np.diag([1.0, 0.0]))])


class TestRenormalize:
    def test_scales_to_unit_trace(self):
        out = renormalize(DensityMatrix(np.diag([0.2, 0.2])))
        assert out.trace == pytest.approx(1.0)

    def test_annihilated_state_raises(self):
        with pytest.raises(ZeroTraceError):
            renormalize(DensityMatrix(np.zeros((2, 2))))


class TestPurity:
    def test_pure_is_one(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            psi = random_pure(4, rng)
            assert purity(from_pure(psi)) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(37)
        rho = random_density(3, rng)
        scaled = DensityMatrix(7.0 * rho.matrix)
        assert purity(scaled) == pytest.approx(purity(rho))

    def test_zero_trace_raises(self):
        with pytest.raises(ZeroTraceError):
            purity(DensityMatrix(np.zeros((2, 2))))
