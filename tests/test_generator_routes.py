"""Geodesics and disk preimages from their generators, against the n x n
routes they replaced.

``geodesic`` moves the range basis by the cos/sinc blocks of the tangent;
``linalg.expm`` of the whole tangent is the reference.  ``disk_to_cone``
takes the cone corner from the chart coordinate through artanh; the block
square-root assembly it replaced is kept below as the reference.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import linalg as la
from grassgeo import moebius as mo
from grassgeo import projective as pj

DIMS = (2, 3, 4, 5, 6, 7, 8, 16, 32, 64)


@st.composite
def rank_and_seed(draw):
    n = draw(st.sampled_from(DIMS))
    return n, draw(st.integers(0, n)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=rank_and_seed(), t=st.floats(-2.0, 2.0),
       theta=st.floats(0.0, np.pi / 2 - 1e-6))
@example(case=(6, 0, 1), t=0.7, theta=1.0)
@example(case=(6, 6, 1), t=0.7, theta=1.0)
@example(case=(16, 12, 2), t=-2.0, theta=np.pi / 2 - 1e-6)
@example(case=(32, 20, 3), t=2.0, theta=np.pi / 2 - 1e-6)
@example(case=(64, 40, 4), t=1.3, theta=1.2)
@example(case=(64, 64, 5), t=1.0, theta=1.0)
def test_geodesic_matches_expm_reference(case, t, theta):
    n, k, seed = case
    p = pj.random_projection(n, k, seed)
    z = gr.random_tangent(p, np.random.default_rng(seed), theta)
    q = gr.geodesic(p, z, t)
    u = la.expm(t * z.mat)
    bound = 1e-13 * n
    assert np.abs(q.mat - u @ p.mat @ u.conj().T).max() <= bound
    assert np.abs(q.range_basis - u @ p.range_basis).max(initial=0.0) <= bound


def block_sqrt_preimage(point):
    """The cone preimage squared from its block square root: with chart
    coordinate ``c`` and ``d = c (p - c* c)^{-1/2}``, the root has corners
    ``(p + d* d)^{1/2}`` and ``(1 - p + d d*)^{1/2}`` and off-diagonal part
    ``d + d*``."""
    p = point.context
    c = mo.chart_inv(point).mat
    b, bc = p.range_basis, p.null_basis
    w, v = np.linalg.eigh(la.herm(b.conj().T @ (c.conj().T @ c) @ b))
    d = c @ b @ (v / np.sqrt(1.0 - w)) @ v.conj().T @ b.conj().T
    corner_p = la.herm(np.eye(p.rank) + b.conj().T @ (d.conj().T @ d) @ b)
    corner_c = la.herm(np.eye(p.dim - p.rank) + bc.conj().T @ (d @ d.conj().T) @ bc)
    root = (b @ la.psd_sqrt(corner_p) @ b.conj().T + d + d.conj().T
            + bc @ la.psd_sqrt(corner_c) @ bc.conj().T)
    return la.herm(root @ root)


@settings(max_examples=150, deadline=None)
@given(case=rank_and_seed(), corner_norm=st.floats(0.0, 5.0))
@example(case=(6, 0, 1), corner_norm=1.0)
@example(case=(6, 6, 1), corner_norm=1.0)
@example(case=(5, 2, 2), corner_norm=0.0)
@example(case=(16, 12, 3), corner_norm=5.0)
@example(case=(64, 32, 4), corner_norm=5.0)
def test_disk_to_cone_matches_block_sqrt_reference(case, corner_norm):
    # a cone corner of norm sigma has a disk point of chart norm tanh(sigma / 2)
    n, k, seed = case
    p = pj.random_projection(n, k, seed)
    x = mo.random_hp_vector(p, np.random.default_rng(seed), np.tanh(corner_norm / 2))
    point = mo.chart(x)
    ref = block_sqrt_preimage(point)
    assert np.abs(dk.disk_to_cone(point).mat - ref).max() <= 1e-12 * np.abs(ref).max()
