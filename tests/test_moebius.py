import numpy as np
import pytest

from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import linalg as la
from grassgeo import moebius as mo
from grassgeo import projective as pj
from grassgeo.errors import (
    InvalidInput,
    NotFinitePoint,
    NotInvertible,
    OutOfRange,
    OutsideDomain,
)


def diag_projection(*bits):
    return pj.Projection(np.diag([float(b) for b in bits]).astype(complex))


def small_moebius(p, rng, scale=0.4):
    n = p.dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return mo.MoebiusMap(la.expm(scale * g / np.linalg.norm(g, 2)), p)


class TestChart:
    def test_zero_maps_to_base(self):
        p = diag_projection(1, 0)
        x = mo.HpVector(np.zeros((2, 2), dtype=complex), p)
        m = mo.chart(x)
        assert np.abs(m.range.mat - p.mat).max() < 1e-12

    def test_unit_coordinate_in_plane(self):
        p = diag_projection(1, 0)
        x = mo.HpVector(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex), p)
        m = mo.chart(x)
        expected = 0.5 * np.ones((2, 2))
        assert np.abs(m.range.mat - expected).max() < 1e-12

    def test_roundtrip(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            x = mo.random_hp_vector(p, rng, rng.uniform(0.05, 3.0))
            back = mo.chart_inv(mo.chart(x))
            assert np.abs(back.mat - x.mat).max() < 1e-9

    def test_hp_vector_validation(self):
        p = diag_projection(1, 0)
        with pytest.raises(InvalidInput):
            mo.HpVector(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), p)


class TestChartInv:
    def test_base_point(self):
        p = diag_projection(1, 0)
        assert mo.chart_inv(pj.classify(p.mat, p)).norm == 0.0

    def test_orthogonal_point_not_finite(self):
        p = diag_projection(1, 0)
        q = diag_projection(0, 1)
        m = pj.point_from_projection(q, p)
        with pytest.raises(NotFinitePoint):
            mo.chart_inv(m)

    def test_point_roundtrip(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            theta = rng.uniform(0.01, np.pi / 2 - 0.05)
            q = gr.geodesic(p, gr.random_tangent(p, rng, theta), 1.0)
            m = pj.point_from_projection(q, p)
            again = mo.chart(mo.chart_inv(m))
            assert pj.class_equal(again, m)


class TestChartMetric:
    def test_self_distance(self):
        p = diag_projection(1, 0, 0)
        m = pj.classify(p.mat, p)
        assert mo.d_chart(m, m) == 0.0

    def test_norm_of_coordinate(self, rng):
        p = pj.random_projection(5, 2, 6)
        x = mo.random_hp_vector(p, rng, 0.3)
        base = pj.classify(p.mat, p)
        assert mo.d_chart(mo.chart(x), base) == pytest.approx(0.3, abs=1e-9)

    def test_tan_of_spherical(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            base = pj.classify(p.mat, p)
            theta = rng.uniform(0.01, 1.4)
            m = pj.point_from_projection(
                gr.geodesic(p, gr.random_tangent(p, rng, theta), 1.0), p)
            assert mo.d_chart(m, base) == pytest.approx(
                np.tan(gr.d_spherical(m, base)), abs=1e-9)


class TestMoebius:
    def test_identity_has_full_domain(self, rng):
        p = pj.random_projection(4, 2, 3)
        ident = mo.MoebiusMap(np.eye(4), p)
        for _ in range(10):
            b = mo.random_hp_vector(p, rng, rng.uniform(0.1, 5.0))
            assert mo.moebius_domain(ident, b)
            assert np.abs(mo.moebius_apply(ident, b).mat - b.mat).max() < 1e-12

    def test_swap_excludes_zero(self):
        p = diag_projection(1, 0)
        swap = mo.MoebiusMap(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), p)
        zero = mo.HpVector(np.zeros((2, 2), dtype=complex), p)
        assert not mo.moebius_domain(swap, zero)
        with pytest.raises(OutsideDomain):
            mo.moebius_apply(swap, zero)

    def test_swap_inverts_coordinate(self):
        p = diag_projection(1, 0)
        swap = mo.MoebiusMap(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), p)
        beta = 0.7 - 0.2j
        b = mo.HpVector(np.array([[0.0, 0.0], [beta, 0.0]], dtype=complex), p)
        out = mo.moebius_apply(swap, b)
        assert out.mat[1, 0] == pytest.approx(1.0 / beta, abs=1e-12)

    def test_domain_matches_projectivity_finiteness(self, rng):
        hits = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            g = mo.MoebiusMap(la.random_invertible(n, rng), p)
            b = mo.random_hp_vector(p, rng, rng.uniform(0.1, 2.0))
            image = gr.projectivity(g.g, mo.chart(b).range)
            finite = la.op_norm(p.mat - image.mat) < 1.0 - 1e-9
            assert mo.moebius_domain(g, b) == finite
            hits += finite
        assert 0 < hits  # the domain is regularly non-empty

    def test_composition(self, rng):
        done = 0
        while done < 20:
            n = int(rng.integers(2, 8))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            g, h = small_moebius(p, rng), small_moebius(p, rng)
            gh = mo.MoebiusMap(g.g @ h.g, p)
            b = mo.random_hp_vector(p, rng, rng.uniform(0.01, 0.4))
            if not (mo.moebius_domain(h, b) and mo.moebius_domain(gh, b)):
                continue
            hb = mo.moebius_apply(h, b)
            if not mo.moebius_domain(g, hb):
                continue
            lhs = mo.moebius_apply(g, hb)
            rhs = mo.moebius_apply(gh, b)
            assert la.op_norm(lhs.mat - rhs.mat) < 1e-8
            done += 1

    def test_agrees_with_projectivity_route(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            g = small_moebius(p, rng)
            b = mo.random_hp_vector(p, rng, rng.uniform(0.01, 0.4))
            if not mo.moebius_domain(g, b):
                continue
            direct = mo.moebius_apply(g, b)
            image = gr.projectivity(g.g, mo.chart(b).range)
            oracle = mo.chart_inv(pj.point_from_projection(image, p))
            assert np.abs(direct.mat - oracle.mat).max() < 1e-8

    def test_requires_invertible(self):
        p = diag_projection(1, 0)
        with pytest.raises(NotInvertible):
            mo.MoebiusMap(np.diag([1.0, 0.0]), p)


def block_formula(g, p, b):
    """The Moebius map from the blocks x, y, z, w of ``g``:
    ``(z + w b)(x + y b)^{-1}``, the inverse taken in pAp, or None when
    ``x + y b`` is singular there."""
    pm, pc = p.mat, p.comp
    t_inv = pj._corner_inv(pj.corner_compress(pm @ g @ pm + pm @ g @ pc @ b, p), la.DEFAULT_TOL)
    if t_inv is None:
        return None
    bb = p.range_basis
    return (pc @ g @ pm + pc @ g @ pc @ b) @ bb @ t_inv @ bb.conj().T


def boundary_map(p, s_min, rng):
    """An invertible ``g`` and a coordinate ``b`` for which the corner
    ``x + y b`` has smallest singular value ``s_min`` and the rest in [0.5, 2]."""
    n, k = p.dim, p.rank
    bb, pm, pc = p.range_basis, p.mat, p.comp
    b = mo.random_hp_vector(p, rng, rng.uniform(0.1, 2.0))
    s = np.concatenate([[s_min], rng.uniform(0.5, 2.0, size=k - 1)])
    t = (la.random_unitary(k, rng) * s) @ la.random_unitary(k, rng).conj().T
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = pm @ m @ pc
    return bb @ t @ bb.conj().T - y @ b.mat + y + pc @ m.conj().T, b


MOEBIUS_CASES = ([(n, k) for n in range(2, 9) for k in range(n + 1)]
                 + [(n, k) for n in (16, 64) for k in (0, 1, 2, n // 2, n - 1, n)])


@pytest.mark.parametrize("n, k", MOEBIUS_CASES)
def test_moebius_matches_block_formula(n, k):
    # generic maps at growing coordinate norms, then maps whose corner
    # x + y b is well conditioned (inside the domain) or singular to 1e-12
    # (outside): apply and domain agree with the block formula
    p = pj.random_projection(n, k, 100 * n + k)
    rng = np.random.default_rng(n + 1000 * k)
    draws = [(la.random_invertible(n, rng), mo.random_hp_vector(p, rng, r))
             for r in (0.1, 1.0, 10.0)]
    if 0 < k < n:
        draws += [boundary_map(p, s_min, rng) for s_min in (1e-2, 1e-12)]
    outside = 0
    for g, b in draws:
        mm = mo.MoebiusMap(g, p)
        expected = block_formula(g, p, b.mat)
        assert mo.moebius_domain(mm, b) == (expected is not None)
        if expected is None:
            outside += 1
            with pytest.raises(OutsideDomain):
                mo.moebius_apply(mm, b)
            continue
        out = mo.moebius_apply(mm, b).mat
        assert (np.abs(out - expected) <= 1e-11 * np.maximum(1.0, np.abs(expected))).all()
    assert outside == (1 if 0 < k < n else 0)


class TestChartTransition:
    def test_same_base_zero(self):
        q = pj.random_projection(4, 2, 5)
        x = mo.HpVector(np.zeros((4, 4), dtype=complex), q)
        out = mo.chart_transition(q, q, x)
        assert out.norm < 1e-12

    def test_same_base_identity_on_ball(self, rng):
        q = pj.random_projection(5, 2, 5)
        x = mo.random_hp_vector(q, rng, 0.4)
        out = mo.chart_transition(q, q, x)
        assert np.abs(out.mat - x.mat).max() < 1e-10

    def test_matches_chart_composition(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            rank = int(rng.integers(1, n))
            q = pj.random_projection(n, rank, int(rng.integers(2**32)))
            r = gr.geodesic(q, gr.random_tangent(q, rng, rng.uniform(0.05, 0.6)), 1.0)
            x = mo.random_hp_vector(r, rng, rng.uniform(0.01, 0.3))
            moved = mo.chart_transition(q, r, x)
            target = pj.classify(r.mat + x.mat, r).range
            oracle = mo.chart_inv(pj.point_from_projection(target, q))
            assert np.abs(moved.mat - oracle.mat).max() < 1e-8

    def test_cocycle(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            rank = int(rng.integers(1, n))
            q = pj.random_projection(n, rank, int(rng.integers(2**32)))
            r = gr.geodesic(q, gr.random_tangent(q, rng, rng.uniform(0.05, 0.5)), 1.0)
            s = gr.geodesic(q, gr.random_tangent(q, rng, rng.uniform(0.05, 0.5)), 1.0)
            x = mo.random_hp_vector(r, rng, rng.uniform(0.01, 0.25))
            via = mo.chart_transition(q, s, mo.chart_transition(s, r, x))
            direct = mo.chart_transition(q, r, x)
            assert np.abs(via.mat - direct.mat).max() < 1e-7

    def test_distant_bases_rejected(self):
        q = diag_projection(1, 0)
        r = diag_projection(0, 1)
        x = mo.HpVector(np.zeros((2, 2), dtype=complex), r)
        with pytest.raises(OutsideDomain):
            mo.chart_transition(q, r, x)

    def test_wrong_context_rejected(self):
        q = pj.random_projection(4, 2, 1)
        r = pj.random_projection(4, 2, 2)
        x = mo.HpVector(np.zeros((4, 4), dtype=complex), q)
        with pytest.raises(InvalidInput):
            mo.chart_transition(q, r, x)


class TestFiniteness:
    def test_characterizations_agree(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            p = pj.random_projection(n, int(rng.integers(1, n)), int(rng.integers(2**32)))
            finite = bool(rng.uniform() < 0.5)
            theta = rng.uniform(0.01, np.pi / 2 - 2e-3) if finite else np.pi / 2
            q = gr.geodesic(p, gr.random_tangent(p, rng, theta), 1.0)
            m = pj.point_from_projection(q, p)
            by_corner = pj.corner_min_sv(m.rep.mat, p) > 1e-9
            by_chordal = la.op_norm(p.mat - q.mat) < 1.0 - 1e-9
            try:
                gr.d_spherical(m, pj.classify(p.mat, p))
                by_spherical = True
            except OutOfRange:
                by_spherical = False
            assert by_corner == by_chordal == by_spherical == finite


class TestRankZero:
    """At rank 0 the corner is 0 x 0 and every chart coordinate is zero; at
    rank n the complement is zero, and so is every coordinate again."""

    DIMS = (2, 3, 4, 5, 6, 7, 8, 16, 32, 64)

    @pytest.mark.parametrize("n", DIMS)
    def test_chart_transition_at_rank_zero_and_n(self, n):
        for k in (0, n):
            q = pj.random_projection(n, k, n)
            zero = mo.HpVector(np.zeros((n, n), dtype=complex), q)
            out = mo.chart_transition(q, q, zero)
            assert out.context is q
            assert out.mat.shape == (n, n) and not out.mat.any()

    @pytest.mark.parametrize("n", DIMS)
    def test_corner_results_at_rank_zero(self, n, rng):
        p = pj.random_projection(n, 0, n)
        a = la.random_invertible(n, rng)
        assert not pj.corner_inverse(a, p).any()
        assert not mo.chart_inv(pj.classify(p.mat, p)).mat.any()
        b = mo.HpVector(np.zeros((n, n), dtype=complex), p)
        g = mo.MoebiusMap(a, p)
        assert mo.moebius_domain(g, b)
        out = mo.moebius_apply(g, b)
        assert out.mat.shape == (n, n) and not out.mat.any()


class TestNearChartEdge:
    """Finite points whose chart coordinate is large: the compression that
    is inverted has smallest singular value about s, between 1e-9 and 1e-7.
    Such coordinates are valid results, not bad input."""

    @staticmethod
    def edge_case(n, e):
        s = 10.0 ** e
        p = pj.random_projection(n, n // 2, n)
        z = gr.random_tangent(p, np.random.default_rng(n), np.pi / 2 - s)
        return p, z, s, 1.0 / np.tan(s)

    @pytest.mark.parametrize("n", [2, 6, 16])
    @pytest.mark.parametrize("e", [-8.5, -8.0, -7.5, -7.0])
    def test_chart_inv_and_in_disk(self, n, e):
        p, z, _, expected = self.edge_case(n, e)
        point = pj.point_from_projection(gr.geodesic(p, z, 1.0), p)
        assert mo.chart_inv(point).norm == pytest.approx(expected, rel=1e-5)
        assert dk.in_disk(point) is False

    @pytest.mark.parametrize("n", [2, 6, 16])
    @pytest.mark.parametrize("e", [-8.5, -8.0, -7.5, -7.0])
    def test_moebius_apply(self, n, e):
        p, z, _, expected = self.edge_case(n, e)
        zero = mo.HpVector(np.zeros((n, n), dtype=complex), p)
        moved = mo.moebius_apply(mo.MoebiusMap(la.expm(z.mat), p), zero)
        assert moved.norm == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("n", [2, 6, 16])
    @pytest.mark.parametrize("e", [-8.5, -8.0, -7.5, -7.0])
    def test_chart_transition(self, n, e):
        # the point [p + x] at angle pi/4 from p, seen from a base q at
        # angle pi/2 - s from it along the same geodesic
        p, _, s, expected = self.edge_case(n, e)
        w = gr.random_tangent(p, np.random.default_rng(n), np.pi / 4)
        x = mo.chart_inv(pj.point_from_projection(gr.geodesic(p, w, 1.0), p))
        q = gr.geodesic(p, w, 1.0 - (np.pi / 2 - s) / (np.pi / 4))
        assert mo.chart_transition(q, p, x).norm == pytest.approx(expected, rel=1e-5)
