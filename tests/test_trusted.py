"""Objects built without their constructor's checks still meet its invariants.

Range projections of orthonormal columns, canonical points, tangents, chart
coordinates, cone elements built from their generator and the disk points
built from those are valid by construction, so the package builds them
unchecked.  Each site's output must pass the constructor it skips, within
``eq_tol``, at every supported dimension and rank and corner norms up to 2.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import linalg as la
from grassgeo import moebius as mo
from grassgeo import projective as pj
from grassgeo.linalg import DEFAULT_TOL

EQ = DEFAULT_TOL.eq_tol
DIMS = (2, 3, 4, 5, 6, 7, 8, 16, 32, 64)


@st.composite
def dim_rank_seed(draw):
    n = draw(st.sampled_from(DIMS))
    return n, draw(st.integers(0, n)), draw(st.integers(0, 2**32 - 1))


def extremes(test):
    """Pin the smallest and largest dimension at ranks 0, n/2 and n."""
    for n in (2, 64):
        for k in (0, n // 2, n):
            test = example(case=(n, k, 1))(test)
    return test


def fuzz(test):
    return settings(max_examples=30, deadline=None)(given(case=dim_rank_seed())(extremes(test)))


def assert_projection(q: pj.Projection, rank: int):
    mat, n = q.mat, q.mat.shape[0]
    assert q.rank == rank
    assert np.abs(mat - mat.conj().T).max(initial=0.0) <= EQ
    assert np.abs(mat @ mat - mat).max(initial=0.0) <= EQ
    tr = np.trace(mat)
    assert abs(tr.imag) <= EQ and abs(tr.real - rank) <= EQ
    b = q.range_basis
    assert b.shape == (n, rank)
    assert np.abs(b.conj().T @ b - np.eye(rank)).max(initial=0.0) <= EQ
    assert np.abs(b @ b.conj().T - mat).max(initial=0.0) <= EQ
    assert pj.Projection(mat).rank == rank


def assert_point(m: pj.ProjectivePoint, p: pj.Projection):
    rep = m.rep.mat
    assert m.context is p
    assert_projection(m.range, p.rank)
    assert np.abs(rep @ p.mat - rep).max(initial=0.0) <= EQ
    assert np.abs(rep.conj().T @ rep - p.mat).max(initial=0.0) <= EQ
    assert np.abs(rep @ rep.conj().T - m.range.mat).max(initial=0.0) <= EQ
    pj.ProjectivePoint(pj.PartialIsometry(rep, p), pj.Projection(m.range.mat))


@fuzz
def test_random_projection(case):
    n, k, seed = case
    assert_projection(pj.random_projection(n, k, seed), k)


@fuzz
def test_classify(case):
    n, k, seed = case
    p = pj.random_projection(n, k, seed)
    rng = np.random.default_rng(seed)
    assert_point(pj.classify(la.random_invertible(n, rng) @ p.mat, p), p)
    # a partial isometry takes the shortcut and is its own representative
    assert_point(pj.classify(la.random_unitary(n, rng) @ p.mat, p), p)


@fuzz
def test_point_from_projection(case):
    n, k, seed = case
    p = pj.random_projection(n, k, seed)
    q = pj.random_projection(n, k, seed + 1)
    assert_point(pj.point_from_projection(q, p), p)


@fuzz
def test_geodesic_and_path_sampler(case):
    n, k, seed = case
    p = pj.random_projection(n, k, seed)
    rng = np.random.default_rng(seed)
    z = gr.random_tangent(p, rng, rng.uniform(0.05, np.pi / 2 - 0.05))
    w = gr.random_tangent(p, rng, 0.3)
    t = rng.uniform()
    assert_projection(gr.geodesic(p, z, t), k)
    assert_projection(gr.geodesic_curve(p, z, 10).sample(t), k)
    assert_projection(gr.perturbed_curve(p, z, w, 10).sample(t), k)


@fuzz
def test_cone_to_disk(case):
    n, k, seed = case
    p = pj.random_projection(n, k, seed)
    m = dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.5, seed))
    assert_point(m.point, p)
    dk.DiskPoint(m.point, m.lam)


def assert_cone_element(lam: dk.PositiveEpsUnitary, p: pj.Projection):
    """``lam`` passes the checked constructor, which recovers the same
    corner, and its cached spectrum and square roots match its matrix."""
    assert lam.context is p
    checked = dk.PositiveEpsUnitary(lam.mat, p)
    assert np.abs(checked.xparam.mat - lam.xparam.mat).max() <= EQ
    mo.HpVector(lam.xparam.mat, p)
    assert np.abs(la.spectral(lam._v, lam._w) - lam.mat).max() <= EQ
    assert np.abs(lam.sqrt @ lam.sqrt - lam.mat).max() <= EQ
    assert np.abs(lam.inv_sqrt @ lam.sqrt - np.eye(p.dim)).max() <= EQ


def assert_disk_point(m: dk.DiskPoint, p: pj.Projection):
    assert_point(m.point, p)
    assert_cone_element(m.lam, p)
    dk.DiskPoint(m.point, m.lam)


@fuzz
def test_from_xparam_and_power(case):
    n, k, seed = case
    p = pj.random_projection(n, k, seed)
    rng = np.random.default_rng(seed)
    lam = dk.PositiveEpsUnitary.from_xparam(mo.random_hp_vector(p, rng, rng.uniform(0.0, 2.0)))
    assert_cone_element(lam, p)
    for t in (-1.0, 0.3, 0.5, 1.0):
        assert_cone_element(lam.power(t), p)
    assert_cone_element(dk.random_pos_eps_unitary(p, 2.0, seed), p)


@fuzz
def test_random_eps_unitary(case):
    n, k, seed = case
    p = pj.random_projection(n, k, seed)
    u = dk.random_eps_unitary(p, np.random.default_rng(seed), 2.0)
    assert u.context is p
    dk.EpsUnitary(u.mat, p)


@fuzz
def test_disk_points(case):
    n, k, seed = case
    p = pj.random_projection(n, k, seed)
    rng = np.random.default_rng(seed)
    base = dk.base_disk_point(p)
    assert_disk_point(base, p)
    assert np.array_equal(base.lam.mat, np.eye(n))
    # chart radius tanh(sigma / 2) for corner norms sigma up to 2
    point = mo.chart(mo.random_hp_vector(p, rng, np.tanh(rng.uniform(0.0, 1.0))))
    assert_cone_element(dk.disk_to_cone(point), p)
    m = dk.to_disk_point(point)
    assert m.point is point
    assert_disk_point(m, p)


@fuzz
def test_tangents_and_coordinates(case):
    n, k, seed = case
    p = pj.random_projection(n, k, seed)
    rng = np.random.default_rng(seed)
    norm = rng.uniform(0.0, 1.5)
    z = gr.random_tangent(p, rng, norm)
    x = mo.random_hp_vector(p, rng, norm)
    for vec in (z, x):
        assert vec.context is p
        assert abs(vec.norm - (norm if 0 < k < n else 0.0)) <= EQ
    gr.TangentVector(z.mat, p)
    mo.HpVector(x.mat, p)
    zlog = gr.geodesic_log(p, gr.geodesic(p, z, 1.0))
    assert zlog.context is p
    gr.TangentVector(zlog.mat, p)
