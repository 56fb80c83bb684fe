"""Point-pair metrics on the small side against the n x n formulas.

``d_chordal``, ``d_chart`` and ``rho`` (hence ``d_spherical``,
``d_pseudo_chordal`` and ``d_non_euclidean``) take the largest singular
value of an n x k or (n-k) x k block.  The references below form
the n x n matrices of the definitions and take their largest singular
value: ``||P - Q||``, the difference of the n x n chart coordinates
``(1-p) a p (p a p)^{-1}``, and the corner pairing through the form,
``||(1-p) u* eps v p||``.
"""

import numpy as np
import pytest

from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import linalg as la
from grassgeo import moebius as mo
from grassgeo import projective as pj
from grassgeo.errors import InvalidInput

EPS = np.finfo(float).eps
CASES = ([(n, k) for n in range(2, 9) for k in range(n + 1)]
         + [(n, k) for n in (16, 32, 64) for k in sorted({0, 1, n // 4, n // 2, n - 1, n})])
IDS = [f"{n}-{k}" for n, k in CASES]
# corner norms of the disk points; past 2 artanh(1 - eq_tol) ~ 21.4 the
# points are built without cone_to_disk's membership decision
SIGMAS = (0.3, 2.0, 8.0, 15.0, 28.0)


def nxn_norm(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


def ref_chordal(m, n):
    return nxn_norm(m.range.mat - n.range.mat)


def ref_chart_coordinate(m):
    p, a = m.context, m.rep.mat
    c_inv = pj._corner_inv(pj.corner_compress(a, p), la.DEFAULT_TOL)
    b = p.range_basis
    return p.comp @ a @ b @ c_inv @ b.conj().T


def ref_rho(m, n):
    p = m.context
    return nxn_norm(p.comp @ m.lam.sqrt.conj().T @ p.eps @ n.lam.sqrt @ p.mat)


def bound(n):
    """Allowed gap between the two routes for matrices of norm about 1."""
    return 8 * (n + 2) * EPS


def disk_point(p, rng, sigma):
    lam = dk.PositiveEpsUnitary.from_xparam(mo.random_hp_vector(p, rng, sigma))
    return pj._trusted(dk.DiskPoint, point=pj.classify(lam.sqrt @ p.mat, p), lam=lam)


@pytest.mark.parametrize("n, k", CASES, ids=IDS)
def test_chordal_and_spherical(n, k):
    rng = np.random.default_rng(1000 * n + k)
    p = pj.random_projection(n, k, 7 * n + k)
    points = [pj.classify(la.random_invertible(n, rng) @ p.mat, p) for _ in range(4)]
    for m in points:
        assert gr.d_chordal(m, m) == 0.0
        for q in points:
            ref = ref_chordal(m, q)
            assert abs(gr.d_chordal(m, q) - ref) <= bound(n)
            if ref < 0.999:
                assert abs(np.sin(gr.d_spherical(m, q)) - ref) <= bound(n)


@pytest.mark.parametrize("n, k", [c for c in CASES if 0 < c[1] < c[0]],
                         ids=[i for c, i in zip(CASES, IDS) if 0 < c[1] < c[0]])
@pytest.mark.parametrize("dist", [1e-8, 1 - 1e-6])
def test_chordal_extremes(n, k, dist):
    # a pair at spherical distance arcsin(dist), along a random geodesic
    rng = np.random.default_rng(2000 * n + k)
    p = pj.random_projection(n, k, 7 * n + k)
    m = pj.classify(la.random_invertible(n, rng) @ p.mat, p)
    z = gr.random_tangent(m.range, rng, np.arcsin(dist))
    q = pj.point_from_projection(gr.geodesic(m.range, z, 1.0), p)
    for a, b in ((m, q), (q, m)):
        ref = ref_chordal(a, b)
        assert abs(ref - dist) <= 1e-12
        assert abs(gr.d_chordal(a, b) - ref) <= bound(n)
        assert abs(np.sin(gr.d_spherical(a, b)) - ref) <= bound(n)


@pytest.mark.parametrize("n, k", CASES, ids=IDS)
def test_chart(n, k):
    # finite points around [p], and one at chordal distance 1e-8 from the first
    rng = np.random.default_rng(3000 * n + k)
    p = pj.random_projection(n, k, 7 * n + k)
    points = [pj.random_point_near(p, 0.9, int(rng.integers(2**32))) for _ in range(3)]
    z = gr.random_tangent(points[0].range, rng, 1e-8)
    points.append(pj.point_from_projection(gr.geodesic(points[0].range, z, 1.0), p))
    for m in points:
        assert mo.d_chart(m, m) == 0.0
        for q in points:
            ref = nxn_norm(ref_chart_coordinate(m) - ref_chart_coordinate(q))
            assert abs(mo.d_chart(m, q) - ref) <= bound(n) * max(1.0, ref)


@pytest.mark.parametrize("n, k", CASES, ids=IDS)
def test_disk_metrics(n, k):
    # every ordered pair of corner norms, so both argument orders; the
    # rounding of both routes scales with ||mu^{1/2}|| ||nu^{1/2}||, up to
    # e^28 here, and arsinh and rho / hypot(1, rho) shrink it by 1 / rho
    rng = np.random.default_rng(4000 * n + k)
    p = pj.random_projection(n, k, 7 * n + k)
    points = [disk_point(p, rng, sigma) for sigma in SIGMAS]
    for m in points:
        for q in points:
            ref = ref_rho(m, q)
            scale = la.op_norm(m.lam.sqrt) * la.op_norm(q.lam.sqrt)
            tol = (64 + 4 * n) * EPS * scale
            assert abs(dk.rho(m, q) - ref) <= tol
            assert abs(dk.d_pseudo_chordal(m, q) - ref / np.hypot(1.0, ref)) <= tol / max(1.0, ref)
            assert abs(dk.d_non_euclidean(m, q) - np.arcsinh(ref)) <= tol / max(1.0, ref)


def test_chart_requires_one_context():
    # the chart coordinates of points over different contexts live in
    # different charts; their difference is no distance
    p, r = pj.random_projection(4, 2, 1), pj.random_projection(4, 2, 2)
    m = pj.random_point_near(p, 0.5, 3)
    q = pj.random_point_near(r, 0.5, 4)
    with pytest.raises(InvalidInput):
        mo.d_chart(m, q)
    with pytest.raises(InvalidInput):
        mo.d_chart(m, pj.random_point_near(pj.random_projection(5, 2, 2), 0.5, 4))


@pytest.mark.parametrize("n, k", [(4, 2), (6, 3), (8, 5), (16, 4), (32, 16)])
def test_chart_over_nearby_contexts(n, k):
    # a context equal to p within rounding is accepted as the same context,
    # though eigh may return range and null bases turned against p's within
    # the degenerate eigenspaces; both blocks must be taken in one chart
    rng = np.random.default_rng(5000 * n + k)
    p = pj.random_projection(n, k, 7 * n + k)
    e = la.herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    r = pj.Projection(p.mat + 1e-13 * e)
    m = pj.random_point_near(p, 0.9, 11)
    q = pj.classify(pj.random_point_near(p, 0.9, 12).rep.mat, r)
    for a, b in ((m, q), (q, m)):
        ref = nxn_norm(ref_chart_coordinate(a) - ref_chart_coordinate(b))
        assert abs(mo.d_chart(a, b) - ref) <= 1e-10
