import numpy as np
import pytest

from grassgeo import grassmann as gr
from grassgeo import linalg as la
from grassgeo import projective as pj
from grassgeo.errors import (
    InvalidCurve,
    InvalidInput,
    InvalidTangent,
    NotInvertible,
    OutOfRange,
)

from conftest import rotation_pair


def rotation_tangent(p, theta):
    return gr.TangentVector(np.array([[0.0, -theta], [theta, 0.0]], dtype=complex), p)


class TestChordal:
    def test_zero_at_equal_points(self):
        base, _ = rotation_pair(0.3)
        assert gr.d_chordal(base, base) == 0.0

    def test_rotation_by_pi_sixth(self):
        base, moved = rotation_pair(np.pi / 6)
        assert gr.d_chordal(base, moved) == pytest.approx(0.5, abs=1e-12)

    def test_block_norm_oracle(self, rng):
        # the distance between [u a] and [a] equals the larger off-diagonal
        # block norm of u with respect to the range of a
        for _ in range(25):
            n = int(rng.integers(2, 9))
            rank = int(rng.integers(1, n))
            p = pj.random_projection(n, rank, int(rng.integers(2**32)))
            a = pj.classify(la.random_invertible(n, rng) @ p.mat, p)
            u = la.random_unitary(n, rng)
            moved = pj.classify(u @ a.rep.mat, p)
            q = a.range.mat
            qc = np.eye(n) - q
            oracle = max(la.op_norm(q @ u @ qc), la.op_norm(qc @ u @ q))
            assert gr.d_chordal(moved, a) == pytest.approx(oracle, abs=1e-10)
            assert gr.d_chordal(moved, a) <= 1.0 + 1e-12

    def test_context_mismatch(self):
        p1 = pj.random_projection(4, 2, 0)
        p2 = pj.random_projection(4, 2, 1)
        m = pj.classify(p1.mat, p1)
        n = pj.classify(p2.mat, p2)
        with pytest.raises(InvalidInput):
            gr.d_chordal(m, n)

    def test_unitary_invariance(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            m = pj.classify(la.random_invertible(n, rng) @ p.mat, p)
            k = pj.classify(la.random_invertible(n, rng) @ p.mat, p)
            u = la.random_unitary(n, rng)
            um = pj.classify(u @ m.rep.mat, p)
            uk = pj.classify(u @ k.rep.mat, p)
            assert gr.d_chordal(um, uk) == pytest.approx(gr.d_chordal(m, k), abs=1e-9)


class TestSpherical:
    def test_zero(self):
        base, _ = rotation_pair(0.2)
        assert gr.d_spherical(base, base) == 0.0

    def test_arcsin_of_half(self):
        base, moved = rotation_pair(np.pi / 6)
        assert gr.d_spherical(base, moved) == pytest.approx(np.pi / 6, abs=1e-12)

    def test_out_of_range_at_distance_one(self):
        base, moved = rotation_pair(np.pi / 2)
        with pytest.raises(OutOfRange):
            gr.d_spherical(base, moved)

    def test_against_curve_length_oracle(self):
        # spherical distance 1.11977... for a pair at chordal distance 0.9,
        # checked against the discretized geodesic length
        p = pj.random_projection(5, 2, 8)
        z = gr.random_tangent(p, np.random.default_rng(3), np.arcsin(0.9))
        q = gr.geodesic(p, z, 1.0)
        m = pj.classify(p.mat, p)
        n = pj.point_from_projection(q, p)
        dr = gr.d_spherical(m, n)
        assert dr == pytest.approx(np.arcsin(0.9), abs=1e-10)
        assert dr == pytest.approx(1.11977, abs=1e-5)
        length = gr.curve_length(gr.geodesic_curve(p, z, 2000))
        assert abs(length - dr) < 1e-4

    def test_sin_identity(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            m = pj.classify(la.random_invertible(n, rng) @ p.mat, p)
            z = gr.random_tangent(m.range, rng, rng.uniform(0.01, np.pi / 2 - 0.1))
            k = pj.point_from_projection(gr.geodesic(m.range, z, 1.0), p)
            assert gr.d_chordal(m, k) == pytest.approx(np.sin(gr.d_spherical(m, k)), abs=1e-10)


class TestGeodesic:
    def test_zero_velocity(self):
        p = pj.random_projection(4, 2, 1)
        z = gr.TangentVector(np.zeros((4, 4), dtype=complex), p)
        assert np.abs(gr.geodesic(p, z, 0.7).mat - p.mat).max() < 1e-12

    def test_planar_rotation(self):
        p = pj.Projection(np.diag([1.0, 0.0]).astype(complex))
        theta = 0.4
        q = gr.geodesic(p, rotation_tangent(p, theta), 1.0)
        assert la.op_norm(p.mat - q.mat) == pytest.approx(np.sin(theta), abs=1e-12)

    def test_speed_equals_tangent_norm(self, rng):
        p = pj.random_projection(6, 3, 4)
        z = gr.random_tangent(p, rng, 0.7)
        q = gr.geodesic(p, z, 1.0)
        m = pj.classify(p.mat, p)
        n = pj.point_from_projection(q, p)
        assert gr.d_spherical(m, n) == pytest.approx(0.7, abs=1e-8)

    def test_partial_time_distance(self, rng):
        p = pj.random_projection(5, 2, 6)
        z = gr.random_tangent(p, rng, 0.9)
        for t in (0.25, 0.5, 0.8):
            q = gr.geodesic(p, z, t)
            assert la.op_norm(p.mat - q.mat) == pytest.approx(np.sin(t * 0.9), abs=1e-10)

    def test_tangent_validation(self):
        p = pj.Projection(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(InvalidTangent):
            gr.TangentVector(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), p)
        with pytest.raises(InvalidTangent):
            gr.TangentVector(np.array([[1j, 0.0], [0.0, 0.0]], dtype=complex), p)

    def test_context_mismatch(self):
        p = pj.Projection(np.diag([1.0, 0.0]).astype(complex))
        other = pj.Projection(np.diag([0.0, 1.0]).astype(complex))
        z = rotation_tangent(p, 0.3)
        with pytest.raises(InvalidTangent):
            gr.geodesic(other, z, 1.0)

    @pytest.mark.parametrize("other", [pj.random_projection(6, 2, 1), pj.random_projection(5, 2, 0)],
                             ids=["other-base", "other-dimension"])
    def test_curve_functions_check_tangent_base(self, rng, other):
        # a tangent at another projection, of the same or another dimension,
        # is rejected by every function that moves p along it
        p = pj.random_projection(6, 2, 0)
        z = gr.random_tangent(p, rng, 0.9)
        w = gr.random_tangent(p, rng, 0.3)
        stray = gr.random_tangent(other, rng, 0.3)
        calls = [
            lambda: gr.geodesic(p, stray, 1.0),
            lambda: gr.geodesic_curve(p, stray),
            lambda: gr.perturbed_curve(p, stray, w),
            lambda: gr.perturbed_curve(p, z, stray),
            lambda: gr.tangent_path_lengths(p, stray, [w], 50),
            lambda: gr.tangent_path_lengths(p, z, [w, stray], 50),
        ]
        for call in calls:
            with pytest.raises(InvalidTangent):
                call()


class TestGeodesicLog:
    def test_equal_points(self):
        p = pj.random_projection(4, 2, 1)
        z = gr.geodesic_log(p, p)
        assert z.norm < 1e-12

    def test_planar_rotation_generator(self):
        p = pj.Projection(np.diag([1.0, 0.0]).astype(complex))
        theta = np.pi / 6
        q = gr.geodesic(p, rotation_tangent(p, theta), 1.0)
        z = gr.geodesic_log(p, q)
        expected = np.array([[0.0, -theta], [theta, 0.0]])
        assert np.abs(z.mat - expected).max() < 1e-10

    def test_roundtrip_recovers_tangent(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            w = gr.random_tangent(p, rng, rng.uniform(0.01, np.pi / 2 - 0.05))
            q = gr.geodesic(p, w, 1.0)
            z = gr.geodesic_log(p, q)
            assert np.abs(z.mat - w.mat).max() < 1e-8
            assert np.abs(gr.geodesic(p, z, 1.0).mat - q.mat).max() < 1e-8
            assert z.norm == pytest.approx(np.arcsin(la.op_norm(p.mat - q.mat)), abs=1e-6)

    def test_out_of_range(self):
        p = pj.Projection(np.diag([1.0, 0.0]).astype(complex))
        q = pj.Projection(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(OutOfRange):
            gr.geodesic_log(p, q)

    def test_near_boundary_accuracy_and_rejection(self, rng):
        # just inside the chordal-distance-1 threshold the log stays sharp;
        # within eq_tol of the threshold it is rejected, not nudged
        p = pj.random_projection(6, 3, 1)
        z = gr.random_tangent(p, rng, np.pi / 2 - 1e-4)
        q = gr.geodesic(p, z, 1.0)
        assert np.abs(gr.geodesic_log(p, q).mat - z.mat).max() < 1e-10
        z_bad = gr.random_tangent(p, rng, np.pi / 2 - 1e-6)
        q_bad = gr.geodesic(p, z_bad, 1.0)
        with pytest.raises(OutOfRange):
            gr.geodesic_log(p, q_bad)

    def test_large_dimension_sanity(self, rng):
        p = pj.random_projection(64, 30, 5)
        z = gr.random_tangent(p, rng, 1.2)
        q = gr.geodesic(p, z, 1.0)
        assert np.abs(gr.geodesic_log(p, q).mat - z.mat).max() < 1e-12

    def test_rank_mismatch(self):
        p = pj.Projection(np.diag([1.0, 0.0, 0.0]).astype(complex))
        q = pj.Projection(np.diag([1.0, 1.0, 0.0]).astype(complex))
        with pytest.raises(InvalidInput):
            gr.geodesic_log(p, q)


class TestCurveLength:
    def test_constant_curve(self):
        p = pj.random_projection(4, 2, 1)
        curve = gr.Curve(lambda t: pj.Projection(p.mat), resolution=50)
        assert gr.curve_length(curve) == 0.0

    def test_geodesic_length(self, rng):
        p = pj.random_projection(5, 2, 2)
        z = gr.random_tangent(p, rng, 0.7)
        assert gr.curve_length(gr.geodesic_curve(p, z, 2000)) == pytest.approx(0.7, abs=1e-4)

    def test_perturbed_never_shorter(self, rng):
        p = pj.random_projection(5, 2, 2)
        z = gr.random_tangent(p, rng, 0.7)
        geo = gr.curve_length(gr.geodesic_curve(p, z, 2000))
        for _ in range(5):
            w = gr.random_tangent(p, rng, rng.uniform(0.05, 0.5))
            pert = gr.curve_length(gr.perturbed_curve(p, z, w, 2000))
            assert pert >= geo - 1e-6

    def test_monotone_in_resolution(self, rng):
        p = pj.random_projection(5, 2, 2)
        z = gr.random_tangent(p, rng, 0.9)
        w = gr.random_tangent(p, rng, 0.4)
        lengths = [gr.curve_length(gr.perturbed_curve(p, z, w, res))
                   for res in (10, 50, 200, 1000)]
        assert all(b >= a - 1e-12 for a, b in zip(lengths, lengths[1:]))

    def test_invalid_samples_rejected(self):
        p = pj.random_projection(4, 2, 1)
        curve = gr.Curve(lambda t: np.full((4, 4), 0.5 + 0j), resolution=10)
        with pytest.raises(InvalidCurve):
            gr.curve_length(curve)

    def test_resolution_floor(self):
        p = pj.random_projection(4, 2, 1)
        with pytest.raises(InvalidInput):
            gr.Curve(lambda t: pj.Projection(p.mat), resolution=1)

    @pytest.mark.parametrize("resolution", [2.5, 50.0, "50", None],
                             ids=["fraction", "float", "string", "none"])
    def test_resolution_not_an_integer(self, rng, resolution):
        p = pj.random_projection(4, 2, 1)
        z = gr.random_tangent(p, rng, 0.5)
        with pytest.raises(InvalidInput):
            gr.Curve(lambda t: pj.Projection(p.mat), resolution=resolution)
        with pytest.raises(InvalidInput):
            gr.tangent_path_lengths(p, z, [], resolution)

    @pytest.mark.parametrize("resolution", [np.int64(50), np.int32(50), np.array(50)],
                             ids=["int64", "int32", "0d-array"])
    def test_resolution_numpy_integer(self, rng, resolution):
        p = pj.random_projection(4, 2, 1)
        z = gr.random_tangent(p, rng, 0.5)
        curve = gr.geodesic_curve(p, z, resolution)
        assert gr.curve_length(curve) == pytest.approx(49 * np.sin(0.5 / 49), rel=1e-12)
        geo, _ = gr.tangent_path_lengths(p, z, [], resolution)
        assert geo == pytest.approx(49 * np.sin(0.5 / 49), rel=1e-12)

    @pytest.mark.parametrize("n, k, norm, resolution", [
        pytest.param(n, k, norm, res, id=f"{n}-{k}" + ("" if norm == 1.1 else f"-short{norm:g}"))
        for n, k in [(6, 4), (6, 0), (6, 6), (16, 12), (32, 20)]
        for norm, res in [(1.1, 500), (1e-4, 2000), (1e-3, 2000)]])
    def test_batched_engine_matches_curve_length(self, rng, n, k, norm, resolution):
        p = pj.random_projection(n, k, 5)
        z = gr.random_tangent(p, rng, norm)
        ws = [gr.random_tangent(p, rng, 0.3) for _ in range(3)]
        geo, pert = gr.tangent_path_lengths(p, z, ws, resolution)
        assert geo == pytest.approx(
            gr.curve_length(gr.geodesic_curve(p, z, resolution)), abs=1e-8)
        for w, value in zip(ws, pert):
            assert value == pytest.approx(
                gr.curve_length(gr.perturbed_curve(p, z, w, resolution)), abs=1e-8)

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 9) for k in range(1, n)]
                             + [(n, k) for n in (16, 32, 64)
                                for k in sorted({1, 2, n // 4, n // 2, n - 1})])
    def test_geodesic_polyline_is_exact(self, rng, n, k):
        # the N samples of a geodesic of speed |z| are equally spaced at
        # spherical distance |z| / (N-1), so its polyline is exactly
        # (N-1) sin(|z| / (N-1)), for short geodesics too
        p = pj.random_projection(n, k, 7)
        for norm in (1e-8, 1e-4, 1e-3, 0.7, np.pi / 2 - 1e-6, 2.5):
            z = gr.random_tangent(p, rng, norm)
            for samples in (50, 2000):
                geo, pert = gr.tangent_path_lengths(p, z, [], samples)
                exact = (samples - 1) * np.sin(norm / (samples - 1))
                assert abs(geo - exact) <= 1e-12 * exact, (norm, samples)
                assert pert.shape == (0,)


    def test_chordal_steps_are_consecutive_chordal_distances(self, rng):
        p = pj.random_projection(6, 2, 5)
        z = gr.random_tangent(p, rng, 1.1)
        qs = [gr.geodesic(p, z, t) for t in (0.0, 0.3, 0.9)]
        steps = gr.chordal_steps(np.stack([q.mat for q in qs]))
        assert steps.shape == (2,)
        for step, a, b in zip(steps, qs, qs[1:]):
            assert step == pytest.approx(la.op_norm(a.mat - b.mat), abs=1e-12)


class TestProjectivity:
    def test_identity(self):
        q = pj.random_projection(4, 2, 3)
        assert np.abs(gr.projectivity(np.eye(4), q).mat - q.mat).max() < 1e-12

    def test_unitary_conjugation(self, rng):
        q = pj.random_projection(5, 2, 3)
        u = la.random_unitary(5, rng)
        out = gr.projectivity(u, q)
        assert np.abs(out.mat - u @ q.mat @ u.conj().T).max() < 1e-10

    def test_matches_svd_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            q = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            g = la.random_invertible(n, rng, 0.25, 4.0)
            direct = gr.projectivity(g, q)
            assert la.op_norm(direct.mat - la.svd_range_projection(g @ q.mat)) < 1e-8

    def test_group_action(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            q = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            g = la.random_invertible(n, rng)
            h = la.random_invertible(n, rng)
            lhs = gr.projectivity(g, gr.projectivity(h, q))
            rhs = gr.projectivity(g @ h, q)
            assert la.op_norm(lhs.mat - rhs.mat) < 1e-6

    def test_scalars_act_trivially(self, rng):
        # in a matrix algebra the center is scalar: scalar multiples of the
        # identity fix every point, and a generic non-scalar element moves one
        q = pj.random_projection(4, 2, 9)
        assert la.op_norm(gr.projectivity(2.5j * np.eye(4), q).mat - q.mat) < 1e-10
        g = la.random_invertible(4, rng)
        moved = [la.op_norm(gr.projectivity(g, pj.random_projection(4, 2, s)).mat
                            - pj.random_projection(4, 2, s).mat) for s in range(5)]
        assert max(moved) > 1e-3

    def test_singular_rejected(self):
        q = pj.random_projection(3, 1, 0)
        with pytest.raises(NotInvertible):
            gr.projectivity(np.diag([1.0, 1.0, 0.0]), q)


class TestTriangle:
    def test_sine_triangle_bound(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            r = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            t1 = rng.uniform(0.05, np.pi / 4 - 0.05)
            t2 = rng.uniform(0.05, np.pi / 4 - 0.05)
            s = gr.geodesic(r, gr.random_tangent(r, rng, t1), 1.0)
            w = gr.geodesic(s, gr.random_tangent(s, rng, t2), 1.0)
            assert la.op_norm(r.mat - w.mat) <= np.sin(t1 + t2) + 1e-10
