import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzphaser import linalg
from fuzzphaser.ddm import (
    DdmBranch,
    DdmFactor,
    DoubleDensityMatrix,
    apply_kraus,
    canonical_vectors,
    canonicalize,
    choi_matrix,
    ddm_as_state,
    ddm_from_fuzz,
    ddm_from_phaser,
    ddm_kraus,
    ddm_update,
    fuzz_parts,
    kraus_from_state,
    phaser_parts,
    same_channel,
)
from fuzzphaser.density import DensityMatrix, PureState
from fuzzphaser.errors import (
    DimensionMismatchError,
    SizeCapError,
    ZeroTraceError,
)
from fuzzphaser.sampling import random_ddm, random_density, random_psd
from fuzzphaser.update import fuzz, phaser

E0 = PureState.basis(2, 0)
E1 = PureState.basis(2, 1)
RHO_PLUS = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))


def _toy_ddm() -> DoubleDensityMatrix:
    return DoubleDensityMatrix(
        [
            DdmFactor(4.0, [DdmBranch(1.0, E0)]),
            DdmFactor(1.0, [DdmBranch(0.5, E0), DdmBranch(0.5, E1)]),
        ]
    )


class TestConstruction:
    def test_branch_normalizes_ket(self):
        b = DdmBranch(0.5, PureState([3.0, 4.0]))
        assert b.phi.norm() == pytest.approx(1.0)
        assert b.x == 0.5

    def test_branch_accepts_raw_vector(self):
        b = DdmBranch(1.0, [1.0, 0.0])
        assert b.dim == 2

    def test_branch_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            DdmBranch(-0.1, E0)

    def test_factor_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            DdmFactor(0.0, [DdmBranch(1.0, E0)])
        with pytest.raises(ValueError):
            DdmFactor(-1.0, [DdmBranch(1.0, E0)])

    def test_factor_rejects_empty_or_all_zero(self):
        with pytest.raises(ValueError):
            DdmFactor(1.0, [])
        with pytest.raises(ValueError):
            DdmFactor(1.0, [DdmBranch(0.0, E0)])

    def test_factor_accepts_tuples(self):
        f = DdmFactor(1.0, [(0.5, [1.0, 0.0])])
        assert f.branches[0].x == 0.5

    def test_dimension_consistency(self):
        with pytest.raises(DimensionMismatchError):
            DdmFactor(1.0, [DdmBranch(1.0, E0), DdmBranch(1.0, PureState([1.0, 0, 0]))])
        with pytest.raises(ValueError):
            DoubleDensityMatrix([])


class TestKrausAndUpdate:
    def test_kraus_oracle(self):
        a1, a2 = ddm_kraus(_toy_ddm())
        assert np.allclose(a1, np.diag([2.0, 0.0]))
        assert np.allclose(a2, 0.5 * np.eye(2))

    def test_update_oracle(self):
        out = ddm_update(RHO_PLUS, _toy_ddm())
        assert np.allclose(out.matrix, np.array([[2.125, 0.125], [0.125, 0.125]]))

    def test_kraus_factors_hermitian_psd(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            d = random_ddm(3, rng)
            for a in ddm_kraus(d):
                assert linalg.is_hermitian(a)
                assert linalg.min_eigenvalue(a) > -1e-12

    def test_update_dim_check(self):
        with pytest.raises(DimensionMismatchError):
            ddm_update(DensityMatrix.identity(3), _toy_ddm())


class TestReductions:
    def test_fuzz_reduction(self):
        rng = np.random.default_rng(107)
        for d in (2, 3, 4):
            for _ in range(10):
                sigma = random_psd(d, rng)
                rho = random_density(d, rng)
                gap = linalg.max_abs(
                    ddm_update(rho, ddm_from_fuzz(sigma)).matrix
                    - fuzz(rho, sigma).matrix
                )
                assert gap < 1e-9

    def test_phaser_reduction(self):
        rng = np.random.default_rng(109)
        for d in (2, 3, 4):
            for _ in range(10):
                sigma = random_psd(d, rng)
                rho = random_density(d, rng)
                gap = linalg.max_abs(
                    ddm_update(rho, ddm_from_phaser(sigma)).matrix
                    - phaser(rho, sigma).matrix
                )
                assert gap < 1e-9

    def test_phaser_reduction_on_rank_deficient_operand(self):
        rng = np.random.default_rng(113)
        sigma = random_density(4, rng, rank=1)
        rho = random_density(4, rng)
        gap = linalg.max_abs(
            ddm_update(rho, ddm_from_phaser(sigma)).matrix - phaser(rho, sigma).matrix
        )
        assert gap < 1e-9

    def test_fuzz_reduction_shapes(self):
        # one factor per positive eigen-group, unit branch weights
        d = ddm_from_fuzz(DensityMatrix(np.diag([2.0, 2.0, 1.0])))
        assert len(d.factors) == 2
        assert d.factors[0].y == pytest.approx(2.0)
        assert len(d.factors[0].branches) == 2
        assert all(b.x == 1.0 for f in d.factors for b in f.branches)

    def test_phaser_reduction_shape(self):
        d = ddm_from_phaser(DensityMatrix(np.diag([4.0, 1.0])))
        assert len(d.factors) == 1
        assert d.factors[0].y == 1.0
        assert sorted(b.x for b in d.factors[0].branches) == [1.0, 2.0]

    def test_zero_operand_rejected(self):
        zero = DensityMatrix(np.zeros((2, 2)))
        with pytest.raises(ZeroTraceError):
            ddm_from_fuzz(zero)
        with pytest.raises(ZeroTraceError):
            ddm_from_phaser(zero)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestOneDecomposition:
    @settings(max_examples=100)
    @given(
        dim=st.integers(1, 6),
        rank=st.integers(0, 6),
        levels=st.lists(st.sampled_from([0.5, 1.0, 2.0, 1e-3]), min_size=6, max_size=6),
        exponent=st.floats(-300.0, 300.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parts_are_the_ddm_routes_bit_for_bit(self, dim, rank, levels, exponent, seed):
        """``fuzz_parts`` and ``phaser_parts`` give the Kraus operators and
        canonical vectors of ``ddm_from_fuzz`` and ``ddm_from_phaser`` (√σ by
        ``linalg.matrix_sqrt``), the same bits, for σ of any rank, degenerate
        eigenvalues and scale, σ = 0 included."""
        rng = np.random.default_rng(seed)
        rank = min(rank, dim)
        basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        weights = np.array(levels[:rank]) * 10.0**exponent
        sigma = DensityMatrix((basis[:, :rank] * weights) @ basis[:, :rank].conj().T)
        kraus, vectors = fuzz_parts(sigma)
        try:
            fuzzed = ddm_from_fuzz(sigma)
        except ZeroTraceError:
            assert kraus == () and vectors is None
        else:
            assert all(map(_same_bits, kraus, ddm_kraus(fuzzed))) and len(kraus) == len(fuzzed.factors)
            assert all(map(_same_bits, vectors, canonical_vectors(fuzzed)))
        (root,), vectors = phaser_parts(sigma)
        assert _same_bits(root, linalg.matrix_sqrt(sigma.matrix))
        try:
            phased = ddm_from_phaser(sigma)
        except ZeroTraceError:
            assert vectors is None
        else:
            assert all(map(_same_bits, vectors, canonical_vectors(phased)))


class TestChoi:
    def test_identity_channel_oracle(self):
        ident = DoubleDensityMatrix(
            [DdmFactor(1.0, [DdmBranch(1.0, E0), DdmBranch(1.0, E1)])]
        )
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
        assert linalg.max_abs(choi_matrix(ident) - expected) < 1e-12

    def test_always_psd(self):
        rng = np.random.default_rng(127)
        for d in (2, 3, 4):
            for _ in range(10):
                choi = choi_matrix(random_ddm(d, rng))
                assert linalg.min_eigenvalue(choi) > -1e-9

    def test_size_cap(self):
        big = DoubleDensityMatrix(
            [DdmFactor(1.0, [DdmBranch(1.0, PureState.basis(65, 0))])]
        )
        with pytest.raises(SizeCapError):
            choi_matrix(big)


class TestStateEncoding:
    def test_trace_is_sum_of_squared_kraus(self):
        d = _toy_ddm()
        state = ddm_as_state(d)
        expected = sum(float(np.trace(a @ a).real) for a in ddm_kraus(d))
        assert state.trace == pytest.approx(expected)

    def test_round_trip_recovers_channel(self):
        rng = np.random.default_rng(131)
        for _ in range(10):
            d = random_ddm(3, rng)
            ops = kraus_from_state(ddm_as_state(d))
            rho = random_density(3, rng)
            gap = linalg.max_abs(
                apply_kraus(rho, ops).matrix - ddm_update(rho, d).matrix
            )
            assert gap < 1e-9

    def test_kraus_from_state_rejects_non_square_dim(self):
        with pytest.raises(DimensionMismatchError):
            kraus_from_state(DensityMatrix.identity(3))


class TestCanonicalize:
    def test_same_channel(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            d = random_ddm(3, rng)
            assert same_channel(d, canonicalize(d))

    def test_canonical_invariants(self):
        rng = np.random.default_rng(139)
        d = canonicalize(random_ddm(4, rng))
        weights = [f.y for f in d.factors]
        assert weights == sorted(weights, reverse=True)
        for f in d.factors:
            # branch weight vector has unit norm and orthogonal kets
            assert sum(b.x**2 for b in f.branches) == pytest.approx(1.0)
            kets = np.array([b.phi.amplitudes for b in f.branches])
            gram = kets @ kets.conj().T
            assert linalg.max_abs(gram - np.eye(len(f.branches))) < 1e-9

    def test_rescaling_freedom_is_quotiented(self):
        d1 = DoubleDensityMatrix([DdmFactor(1.0, [DdmBranch(2.0, E0)])])
        d2 = DoubleDensityMatrix([DdmFactor(4.0, [DdmBranch(1.0, E0)])])
        assert same_channel(d1, d2)
        c1, c2 = canonicalize(d1), canonicalize(d2)
        assert c1.factors[0].y == pytest.approx(c2.factors[0].y)
        assert c1.factors[0].branches[0].x == pytest.approx(c2.factors[0].branches[0].x)

    def test_same_channel_distinguishes(self):
        d1 = DoubleDensityMatrix([DdmFactor(1.0, [DdmBranch(1.0, E0)])])
        d2 = DoubleDensityMatrix([DdmFactor(1.0, [DdmBranch(1.0, E1)])])
        assert not same_channel(d1, d2)
        assert not same_channel(d1, _toy_ddm())

    def test_tolerances_scale_with_the_ddm(self):
        """Every y scaled by 1e-24, so each A_k by 1e-12: the encoded state
        still yields the channel, canonicalize keeps every factor, and two
        such channels stay apart, as they do at their own scale."""
        rng = np.random.default_rng(151)

        def tiny(d):
            return DoubleDensityMatrix([DdmFactor(1e-24 * f.y, f.branches) for f in d.factors])

        d, other = tiny(random_ddm(3, rng)), tiny(random_ddm(3, rng))
        rho = random_density(3, rng)
        expected = ddm_update(rho, d).matrix
        ops = kraus_from_state(ddm_as_state(d))
        gap = linalg.max_abs(apply_kraus(rho, ops).matrix - expected)
        assert gap <= 1e-9 * linalg.max_abs(expected)
        canon = canonicalize(d)
        assert len(canon.factors) == len(d.factors) and same_channel(d, canon)
        assert not same_channel(d, other)


class TestLinearity:
    def test_update_linear_in_state(self):
        rng = np.random.default_rng(149)
        d = random_ddm(3, rng)
        r1, r2 = random_density(3, rng), random_density(3, rng)
        mixed = DensityMatrix(0.3 * r1.matrix + 0.7 * r2.matrix)
        lhs = ddm_update(mixed, d).matrix
        rhs = 0.3 * ddm_update(r1, d).matrix + 0.7 * ddm_update(r2, d).matrix
        assert linalg.max_abs(lhs - rhs) < 1e-12
