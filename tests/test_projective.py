import numpy as np
import pytest

from grassgeo import linalg as la
from grassgeo import projective as pj
from grassgeo.errors import InvalidInput, NotInLp, NotInvertible


def corner_invertible(p, rng):
    b = p.range_basis
    return b @ la.random_invertible(p.rank, rng) @ b.conj().T


class TestProjectionType:
    def test_rank_from_trace(self):
        p = pj.Projection(np.diag([1.0, 1.0, 0.0]).astype(complex))
        assert p.rank == 2 and p.dim == 3

    def test_rejects_non_idempotent(self):
        with pytest.raises(InvalidInput):
            pj.Projection(0.5 * np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInput):
            pj.Projection(np.array([[1.0, 1e-3], [0.0, 0.0]]))

    def test_rejects_non_integer_trace(self):
        # idempotent within eq_tol entrywise, but the eigenvalue offsets
        # accumulate in the trace beyond eq_tol
        q = (1.0 + 0.9e-9) * np.eye(8, dtype=complex)
        with pytest.raises(InvalidInput):
            pj.Projection(q)

    def test_basis_spans_range(self, rng):
        p = pj.random_projection(6, 2, 3)
        b = p.range_basis
        assert b.shape == (6, 2)
        assert np.abs(b @ b.conj().T - p.mat).max() < 1e-10
        kb = p.null_basis
        assert np.abs(p.mat @ kb).max() < 1e-10


class TestMembership:
    def test_p_belongs(self):
        p = pj.random_projection(4, 2, 0)
        assert pj.in_lp(p.mat, p)

    def test_zero_does_not(self):
        p = pj.random_projection(4, 2, 0)
        assert not pj.in_lp(np.zeros((4, 4)), p)

    def test_invertible_times_p(self, rng):
        # oracle: membership is exactly rank preservation for supported columns
        p = pj.random_projection(5, 3, 1)
        g = la.random_invertible(5, rng)
        a = g @ p.mat
        assert pj.in_lp(a, p)
        assert np.linalg.matrix_rank(a) == p.rank

    def test_rank_deficient_rejected(self, rng):
        p = pj.random_projection(5, 3, 1)
        b = p.range_basis
        # kill one direction of ran(p)
        killer = np.eye(5, dtype=complex) - b[:, :1] @ b[:, :1].conj().T
        assert not pj.in_lp(killer @ p.mat, p)

    def test_dimension_mismatch(self):
        p = pj.random_projection(4, 2, 0)
        with pytest.raises(InvalidInput):
            pj.in_lp(np.eye(3), p)


class TestClassify:
    def test_p_is_its_own_representative(self):
        p = pj.random_projection(4, 2, 5)
        m = pj.classify(p.mat, p)
        assert np.abs(m.rep.mat - p.mat).max() < 1e-12
        assert np.abs(m.range.mat - p.mat).max() < 1e-12

    def test_scaling_is_quotiented_out(self):
        p = pj.random_projection(4, 2, 5)
        m = pj.classify(3.0 * p.mat, p)
        assert np.abs(m.rep.mat - p.mat).max() < 1e-10

    def test_random_class_against_svd_oracle(self, rng):
        p = pj.random_projection(6, 3, 7)
        g = la.random_invertible(6, rng)
        m = pj.classify(g @ p.mat, p)
        assert np.abs(m.rep.mat.conj().T @ m.rep.mat - p.mat).max() < 1e-10
        oracle = la.svd_range_projection(g @ p.mat)
        assert la.op_norm(m.range.mat - oracle) < 1e-8

    def test_partial_isometries_unchanged(self, rng):
        p = pj.random_projection(6, 3, 7)
        g = la.random_invertible(6, rng)
        v = pj.classify(g @ p.mat, p).rep.mat
        again = pj.classify(v, p)
        assert np.abs(again.rep.mat - v).max() == 0.0

    def test_not_in_lp(self):
        p = pj.random_projection(4, 2, 5)
        with pytest.raises(NotInLp):
            pj.classify(np.zeros((4, 4)), p)

    def test_rank_zero_context(self):
        p = pj.Projection(np.zeros((3, 3), dtype=complex))
        m = pj.classify(np.zeros((3, 3)), p)
        assert m.range.rank == 0


class TestClassEquality:
    def test_scaling(self):
        p = pj.random_projection(4, 2, 5)
        assert pj.class_equal(pj.classify(p.mat, p), pj.classify(5.0 * p.mat, p))

    def test_orthogonal_ranges_differ(self):
        p = pj.Projection(np.diag([1.0, 0.0]).astype(complex))
        q = pj.Projection(np.diag([0.0, 1.0]).astype(complex))
        m = pj.classify(p.mat, p)
        n = pj.point_from_projection(q, p)
        assert not pj.class_equal(m, n)

    def test_right_corner_factor_ignored(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            rank = int(rng.integers(1, n))
            p = pj.random_projection(n, rank, int(rng.integers(2**32)))
            g = la.random_invertible(n, rng)
            h = corner_invertible(p, rng)
            assert pj.class_equal(pj.classify(g @ p.mat @ h, p), pj.classify(g @ p.mat, p))

    def test_rank_always_preserved(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            rank = int(rng.integers(1, n))
            p = pj.random_projection(n, rank, int(rng.integers(2**32)))
            g = la.random_invertible(n, rng)
            assert pj.classify(g @ p.mat, p).range.rank == rank


class TestUnitaryExtension:
    def test_unitary_input_keeps_class(self, rng):
        p = pj.random_projection(5, 2, 9)
        u = la.random_unitary(5, rng)
        v = pj.unitary_extension(u, p)
        assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-9
        assert pj.class_equal(pj.classify(v @ p.mat, p), pj.classify(u @ p.mat, p))

    def test_diagonal_stretch(self):
        p = pj.Projection(np.diag([1.0, 0.0, 0.0]).astype(complex))
        v = pj.unitary_extension(np.diag([2.0, 1.0, 1.0]), p)
        assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-9
        assert pj.class_equal(pj.classify(v @ p.mat, p), pj.classify(p.mat, p))

    def test_random_invertible(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            rank = int(rng.integers(0, n + 1))
            p = pj.random_projection(n, rank, int(rng.integers(2**32)))
            g = la.random_invertible(n, rng)
            v = pj.unitary_extension(g, p)
            assert la.op_norm(v.conj().T @ v - np.eye(n)) < 1e-9
            if rank > 0:
                lhs = pj.classify(v @ p.mat, p)
                rhs = pj.classify(g @ p.mat, p)
                assert pj.class_equal(lhs, rhs)

    def test_singular_rejected(self):
        p = pj.random_projection(3, 1, 2)
        with pytest.raises(NotInvertible):
            pj.unitary_extension(np.diag([1.0, 1.0, 0.0]), p)


class TestRandomGenerators:
    def test_full_rank_is_identity(self):
        p = pj.random_projection(4, 4, 1)
        assert np.abs(p.mat - np.eye(4)).max() == 0.0

    def test_rank_zero_is_zero(self):
        p = pj.random_projection(4, 0, 1)
        assert np.abs(p.mat).max() == 0.0

    def test_seeded_instance_invariants(self):
        p = pj.random_projection(6, 3, 42)
        assert np.abs(p.mat @ p.mat - p.mat).max() < 1e-10
        assert np.abs(p.mat - p.mat.conj().T).max() < 1e-10
        assert p.rank == 3

    def test_deterministic(self):
        a = pj.random_projection(5, 2, 123)
        b = pj.random_projection(5, 2, 123)
        assert np.array_equal(a.mat, b.mat)

    def test_rank_out_of_range(self):
        with pytest.raises(InvalidInput):
            pj.random_projection(3, 4, 0)
        with pytest.raises(InvalidInput):
            pj.random_projection(3, -1, 0)

    def test_point_near_stays_within_radius(self):
        p = pj.random_projection(6, 2, 11)
        for seed in range(20):
            m = pj.random_point_near(p, 0.8, seed)
            assert la.op_norm(m.range.mat - p.mat) <= 0.8 + 1e-12
            assert m.range.rank == 2

    def test_point_near_radius_validation(self):
        p = pj.random_projection(4, 2, 11)
        with pytest.raises(InvalidInput):
            pj.random_point_near(p, 1.5, 0)


class TestPointFromProjection:
    def test_reproduces_range(self, rng):
        p = pj.random_projection(5, 2, 3)
        q = pj.random_projection(5, 2, 4)
        m = pj.point_from_projection(q, p)
        assert np.abs(m.range.mat - q.mat).max() < 1e-12
        assert np.abs(m.rep.mat.conj().T @ m.rep.mat - p.mat).max() < 1e-10

    def test_rank_mismatch(self):
        p = pj.random_projection(5, 2, 3)
        q = pj.random_projection(5, 3, 4)
        with pytest.raises(InvalidInput):
            pj.point_from_projection(q, p)


class TestRandomProjectionDimension:
    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_dimension(self, n):
        with pytest.raises(InvalidInput, match="dimension must be at least 1"):
            pj.random_projection(n, 0, 1)
