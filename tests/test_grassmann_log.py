"""The Grassmann log from principal angles against the paper's closed form.

The paper writes the tangent joining ``p`` to ``q`` as half the principal
logarithm of the product of symmetries ``(2q - 1)(2p - 1)``.
``geodesic_log`` computes it from the principal angles of the range bases
instead; ``log_unitary`` (the eigendecomposition of a Cayley transform of
the product) serves here only as the independent oracle.  Pairs are built
by moving a random projection along a random tangent whose largest
principal angle is log-uniform in [1e-8, pi/2 - 1e-4], in dimensions 2-8,
16, 32 and 64 and at every rank.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grassgeo import grassmann as gr
from grassgeo import linalg as la
from grassgeo import projective as pj
from grassgeo.errors import OutOfRange
from grassgeo.linalg import DEFAULT_TOL

DIMS = (2, 3, 4, 5, 6, 7, 8, 16, 32, 64)


@st.composite
def rank_and_seed(draw):
    n = draw(st.sampled_from(DIMS))
    return n, draw(st.integers(0, n)), draw(st.integers(0, 2**32 - 1))


def moved_pair(n: int, k: int, seed: int, theta: float):
    """A rank-k projection ``p`` and its image ``q`` under a tangent of
    operator norm ``theta``, which is then the largest principal angle."""
    rng = np.random.default_rng(seed)
    p = pj.random_projection(n, k, seed)
    return p, gr.geodesic(p, gr.random_tangent(p, rng, theta), 1.0)


@settings(max_examples=120, deadline=None)
@given(case=rank_and_seed(), log_theta=st.floats(np.log(1e-8), np.log(np.pi / 2 - 1e-4)))
@example(case=(6, 0, 1), log_theta=0.0)
@example(case=(6, 6, 1), log_theta=0.0)
@example(case=(64, 0, 2), log_theta=0.0)
@example(case=(64, 64, 2), log_theta=0.0)
@example(case=(64, 32, 3), log_theta=float(np.log(np.pi / 2 - 1e-4)))
@example(case=(5, 2, 4), log_theta=float(np.log(1e-8)))
def test_matches_half_log_of_symmetry_product(case, log_theta):
    p, q = moved_pair(*case, np.exp(log_theta))
    z = gr.geodesic_log(p, q)
    oracle = 0.5 * la.log_unitary(q.eps @ p.eps)
    assert np.abs(z.mat - oracle).max() < 1e-10


@settings(max_examples=120, deadline=None)
@given(case=rank_and_seed(), log_gap=st.floats(np.log(1e-9), np.log(1e-2)))
@example(case=(4, 2, 5), log_gap=float(np.log(3e-5)))
@example(case=(4, 2, 5), log_gap=float(np.log(6e-5)))
def test_out_of_range_exactly_at_chordal_threshold(case, log_gap):
    # largest angle pi/2 - gap: the chordal distance cos(gap) reaches
    # 1 - eq_tol at gap ~ 4.5e-5, inside the drawn range of gaps
    p, q = moved_pair(*case, np.pi / 2 - np.exp(log_gap))
    beyond = la.op_norm(p.mat - q.mat) >= 1.0 - DEFAULT_TOL.eq_tol
    try:
        gr.geodesic_log(p, q)
    except OutOfRange:
        assert beyond
    else:
        assert not beyond


# the largest angle pi/2 - delta at which sin reaches 1 - eq_tol
THRESHOLD_DELTA = float(np.arccos(1.0 - DEFAULT_TOL.eq_tol))


@settings(max_examples=150, deadline=None)
@given(case=rank_and_seed(), log_delta=st.floats(np.log(1e-12), np.log(1e-2)))
@example(case=(6, 0, 1), log_delta=float(np.log(1e-12)))
@example(case=(6, 6, 1), log_delta=float(np.log(1e-12)))
@example(case=(64, 0, 2), log_delta=float(np.log(1e-12)))
@example(case=(64, 64, 2), log_delta=float(np.log(1e-12)))
@example(case=(16, 8, 3), log_delta=float(np.log(1e-12)))
@example(case=(16, 8, 3), log_delta=float(np.log(1e-2)))
def test_cosine_decision_matches_chordal_distance(case, log_delta):
    # the domain is decided on the cosines of the principal angles; away
    # from the threshold it must agree with the chordal distance test
    delta = np.exp(log_delta)
    assume(abs(delta / THRESHOLD_DELTA - 1.0) > 0.05)
    n, k, _ = case
    p, q = moved_pair(*case, np.pi / 2 - delta)
    beyond = la.op_norm(p.mat - q.mat) >= 1.0 - DEFAULT_TOL.eq_tol
    if k in (0, n):
        assert not beyond  # q = p, which must be accepted
    try:
        gr.geodesic_log(p, q)
    except OutOfRange:
        assert beyond
    else:
        assert not beyond


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("full", [False, True])
def test_ranks_zero_and_n_give_the_zero_tangent(n, full):
    rng = np.random.default_rng(n)
    if full:
        # identities up to rounding, with unrelated eigenbases
        p, q = (pj.Projection(u @ u.conj().T)
                for u in (la.random_unitary(n, rng), la.random_unitary(n, rng)))
    else:
        p, q = (pj.Projection(np.zeros((n, n), dtype=complex)) for _ in range(2))
    z = gr.geodesic_log(p, q)
    assert z.mat.shape == (n, n)
    assert np.abs(z.mat).max() < 1e-14
