"""The closed-form step kernel of ``tangent_path_lengths`` (small side
k <= 2) against its batched ``eigh``/``eigvalsh`` kernel on the same
reduced blocks.

Both kernels return the chordal steps of one path; the LAPACK kernel is the
reference.  Steps are sines, so they are compared absolutely, and the path
lengths relatively.
"""

import numpy as np
import pytest

from grassgeo import grassmann as gr
from grassgeo import projective as pj

SIZES = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (6, 2), (6, 5), (7, 5),
         (16, 2), (16, 15), (64, 1), (64, 62)]


def assert_kernels_agree(r_z, r_w, samples):
    ts = np.linspace(0.0, 1.0, samples)
    closed = gr._closed_form_steps(r_z, r_w, ts)
    ref = gr._lapack_steps(r_z, r_w, ts)
    assert closed.shape == ref.shape == (samples - 1,)
    assert np.all(np.isfinite(closed))
    assert np.abs(closed - ref).max() <= 1e-13
    assert abs(closed.sum() - ref.sum()) <= 1e-13 * ref.sum()


def tangent_from_block(p, a):
    """The tangent at ``p`` whose small-side block is ``a``, in coordinates
    of the big side."""
    small, big, _ = gr._side_blocks(p)
    lift = big @ a @ small.conj().T
    return gr.TangentVector(lift - lift.conj().T, p)


@pytest.mark.parametrize("n, rank", SIZES, ids=[f"{n}-{r}" for n, r in SIZES])
@pytest.mark.parametrize("samples", [2, 50, 2000])
def test_closed_form_matches_lapack(n, rank, samples):
    rng = np.random.default_rng(1000 * n + rank)
    p = pj.random_projection(n, rank, n + rank)
    zero = gr.TangentVector(np.zeros((n, n), dtype=complex), p)
    for norm in (1e-4, 0.7, 2.5):
        z = gr.random_tangent(p, rng, norm)
        # w = 0 and w = 2z leave the span [a_z, a_w] rank-deficient
        ws = [zero, gr.TangentVector(2 * z.mat, p), gr.random_tangent(p, rng, 0.3)]
        for pair in (z, ws), (zero, ws[-1:]), (zero, [zero]):
            for r_z, r_w in gr._reduced_blocks(p, *pair):
                assert r_z.shape[0] == min(n - min(rank, n - rank), 2 * r_z.shape[1])
                assert_kernels_agree(r_z, r_w, samples)


@pytest.mark.parametrize("samples", [2, 50, 2000])
@pytest.mark.parametrize("rows", [2, 4])
def test_isometric_block(samples, rows):
    # a* a = theta^2 t^2 I: the Jacobi rotation sees h01 = 0 and h00 = h11
    for theta in (1e-4, 0.9, 2.5):
        r_z = theta * np.eye(rows, 2, dtype=complex)
        assert_kernels_agree(r_z, np.zeros_like(r_z), samples)
        assert_kernels_agree(r_z, 0.3j * r_z, samples)
    # the same block reached from a tangent on the kernel side
    p = pj.random_projection(6, 4, 3)
    z = tangent_from_block(p, 0.9 * np.eye(4, 2))
    for r_z, r_w in gr._reduced_blocks(p, z, [z]):
        h = r_z.conj().T @ r_z
        assert abs(h[0, 1]) < 1e-14 and abs(h[0, 0] - h[1, 1]) < 1e-14
        assert_kernels_agree(r_z, r_w, samples)


@pytest.mark.parametrize("n, rank", [(3, 1), (4, 2), (6, 4), (8, 7)])
def test_empty_perturbations(n, rank):
    rng = np.random.default_rng(n)
    p = pj.random_projection(n, rank, 2)
    z = gr.random_tangent(p, rng, 1.3)
    geo, pert = gr.tangent_path_lengths(p, z, [], 300)
    assert isinstance(geo, float) and pert.shape == (0,)
    [(r_z, r_w)] = gr._reduced_blocks(p, z, [])
    assert geo == gr._closed_form_steps(r_z, r_w, np.linspace(0.0, 1.0, 300)).sum()


@pytest.mark.parametrize("n, rank", [(5, 1), (6, 2), (7, 5), (64, 63)])
def test_small_side_makes_no_eigensolver_call(monkeypatch, n, rank):
    rng = np.random.default_rng(rank)
    p = pj.random_projection(n, rank, 4)
    z = gr.random_tangent(p, rng, 1.0)
    ws = [gr.random_tangent(p, rng, 0.3) for _ in range(3)]
    _ = p.range_basis, p.null_basis

    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK eigensolver called on a small side of at most 2")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    geo, pert = gr.tangent_path_lengths(p, z, ws, 2000)
    assert geo == pytest.approx(1.0 * 1999 * np.sin(1.0 / 1999), rel=1e-12)
    assert pert.shape == (3,)
