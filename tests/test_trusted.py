"""Objects built without their constructor's checks still meet its invariants.

Range projections of orthonormal columns, canonical points and the disk
points of cone elements are valid by construction, so the package builds
them unchecked.  Each site's output must pass the checks it skips, within
``eq_tol``, at every supported dimension and rank.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import linalg as la
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
