"""The step kernel of ``tangent_path_lengths`` against a reference kernel
on the same reduced blocks.  One Chebyshev-interpolated kernel, with one
batched ``eigvalsh`` for the largest eigenvalue, serves every small side k;
the sizes run from k = 1 to 62, on the range and on the kernel side.

The reference takes one batched ``eigh`` per sample and one ``eigvalsh``
per step.  Both kernels return the chordal steps of one path.  Steps are
sines, so they are compared absolutely, and the path lengths relatively.
"""

import numpy as np
import pytest

from grassgeo import grassmann as gr
from grassgeo import projective as pj
from grassgeo.linalg import adj, herm

SIZES = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (6, 2), (6, 5), (7, 5),
         (16, 2), (16, 15), (64, 1), (64, 62)]


def lapack_steps(r_z, r_w, ts, steps=None):
    """Chordal steps along ``r(t) = t r_z + t (1-t) r_w`` for any k, from
    one ``eigh`` per sample and one ``eigvalsh`` per step; with ``steps``,
    only the steps of those indices, from the samples they join."""
    steps = np.arange(ts.size - 1) if steps is None else np.asarray(steps)
    samples, at = np.unique(np.concatenate([steps, steps + 1]), return_inverse=True)
    ts = ts[samples]
    r = ts[:, None, None] * r_z + (ts * (1.0 - ts))[:, None, None] * r_w
    w, v = np.linalg.eigh(herm(adj(r) @ r))
    s = np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    basis = np.concatenate([v * np.cos(s), (r @ v) * np.sinc(s / np.pi)], axis=-2)
    prev, nxt = basis[at[:steps.size]], basis[at[steps.size:]]
    res = nxt - prev @ (adj(prev) @ nxt)
    return np.sqrt(np.clip(np.linalg.eigvalsh(adj(res) @ res)[:, -1], 0.0, None))


def reduced_blocks(p, z, ws):
    """Per path, geodesic first, the blocks ``(r_z, r_w)`` that the step
    kernels take, from the package's own corner cut."""
    return gr._reduced_blocks(*gr._corners(p, z.mat, [w.mat for w in ws]))


def assert_steps_agree(r_z, r_w, samples, ref):
    steps = gr._interpolated_steps(r_z, r_w, np.linspace(0.0, 1.0, samples), *gr._GRASSMANN)
    assert steps.shape == ref.shape == (samples - 1,)
    assert np.all(np.isfinite(steps))
    assert np.abs(steps - ref).max() <= 1e-13
    assert abs(steps.sum() - ref.sum()) <= 1e-13 * ref.sum()


def assert_kernels_agree(r_z, r_w, samples):
    assert_steps_agree(r_z, r_w, samples, lapack_steps(r_z, r_w, np.linspace(0.0, 1.0, samples)))


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
            for r_z, r_w in reduced_blocks(p, *pair):
                assert r_z.shape[0] == min(n - min(rank, n - rank), 2 * r_z.shape[1])
                assert_kernels_agree(r_z, r_w, samples)


@pytest.mark.parametrize("samples", [2, 50, 2000])
@pytest.mark.parametrize("rows", [2, 4])
def test_isometric_block(samples, rows):
    # a* a = theta^2 t^2 I: every principal angle of a step is the same
    for theta in (1e-4, 0.9, 2.5):
        r_z = theta * np.eye(rows, 2, dtype=complex)
        assert_kernels_agree(r_z, np.zeros_like(r_z), samples)
        assert_kernels_agree(r_z, 0.3j * r_z, samples)
    # the same block reached from a tangent on the kernel side, against the
    # exact polyline: along r(t) = s(t) r_z, with s = t for the geodesic and
    # s = 2t - t^2 for w = z, every step is sin(0.9 |s_{j+1} - s_j|)
    p = pj.random_projection(6, 4, 3)
    z = tangent_from_block(p, 0.9 * np.eye(4, 2))
    ts = np.linspace(0.0, 1.0, samples)
    for (r_z, r_w), s in zip(reduced_blocks(p, z, [z]), (ts, 2 * ts - ts * ts)):
        h = r_z.conj().T @ r_z
        assert abs(h[0, 1]) < 1e-14 and abs(h[0, 0] - h[1, 1]) < 1e-14
        assert_steps_agree(r_z, r_w, samples, np.sin(0.9 * np.diff(s)))


@pytest.mark.parametrize("n, rank", [(3, 1), (4, 2), (6, 4), (8, 7)])
def test_empty_perturbations(n, rank):
    rng = np.random.default_rng(n)
    p = pj.random_projection(n, rank, 2)
    z = gr.random_tangent(p, rng, 1.3)
    geo, pert = gr.tangent_path_lengths(p, z, [], 300)
    assert isinstance(geo, float) and pert.shape == (0,)
    [(r_z, r_w)] = reduced_blocks(p, z, [])
    assert geo == gr._interpolated_steps(r_z, r_w, np.linspace(0.0, 1.0, 300), *gr._GRASSMANN).sum()


@pytest.mark.parametrize("n, rank", [(4, 1), (6, 2), (8, 3), (64, 16)])
def test_stationary_paths_are_zero(n, rank):
    p = pj.random_projection(n, rank, 2)
    zero = gr.TangentVector(np.zeros((n, n), dtype=complex), p)
    geo, pert = gr.tangent_path_lengths(p, zero, [zero], 2000)
    assert geo == 0.0 and pert.tolist() == [0.0]


ENGINE_SIZES = [(6, 3), (7, 4), (8, 4), (16, 4), (16, 12), (32, 8), (64, 16), (64, 32)]


def block_steps(r_z, samples):
    """The indices of the first and the last step of each block of samples
    of the kernel (``grassmann._step_spans``), and of every 50th step."""
    k = r_z.shape[1]
    ends = [(block.start, block.stop - 1)
            for _, block in gr._step_spans(samples, r_z.size + k * k)]
    return np.unique(np.concatenate([np.ravel(ends), np.arange(0, samples - 1, 50)]))


def interpolated_errors(r_z, r_w, samples, subset=False):
    """Largest step error and length error of the interpolated kernel
    against the reference, the latter less its 1e-14 absolute allowance
    and relative to the reference length; with ``subset``, over the steps
    of :func:`block_steps` only."""
    ts = np.linspace(0.0, 1.0, samples)
    steps = gr._interpolated_steps(r_z, r_w, ts, *gr._GRASSMANN)
    assert steps.shape == (samples - 1,)
    assert np.all(np.isfinite(steps))
    checked = block_steps(r_z, samples) if subset else np.arange(samples - 1)
    steps, ref = steps[checked], lapack_steps(r_z, r_w, ts, checked)
    length_err = max(abs(steps.sum() - ref.sum()) - 1e-14, 0.0) / max(ref.sum(), 1e-300)
    return np.abs(steps - ref).max(), length_err


@pytest.mark.parametrize("samples", [2, 3, 50, 2000])
@pytest.mark.parametrize("n, rank", ENGINE_SIZES, ids=[f"{n}-{r}" for n, r in ENGINE_SIZES])
def test_interpolated_matches_lapack(n, rank, samples):
    # above n = 32 at 2000 samples the reference takes the block ends and
    # every 50th step only; a block with a wrong step still shows
    subset = n > 32 and samples == 2000
    rng = np.random.default_rng(100 * n + rank)
    p = pj.random_projection(n, rank, n + rank)
    zero = gr.TangentVector(np.zeros((n, n), dtype=complex), p)
    worst_step = worst_length = 0.0
    for norm in (1e-4, 0.7, 2.5, 6.0):
        z = gr.random_tangent(p, rng, norm)
        # w = -z gives r(t) = t^2 r_z, stationary at t = 0
        ws = [zero, gr.TangentVector(2 * z.mat, p), gr.TangentVector(-z.mat, p),
              gr.random_tangent(p, rng, norm)]
        for r_z, r_w in list(reduced_blocks(p, z, ws))[1:]:
            assert r_z.shape[1] == min(rank, n - rank) >= 3
            step_err, length_err = interpolated_errors(r_z, r_w, samples, subset)
            worst_step, worst_length = max(worst_step, step_err), max(worst_length, length_err)
    assert worst_step <= 1e-13
    assert worst_length <= 1e-12


# (n, rank, norm of z, samples, whether eigh runs at the samples); the
# small sides k <= 2 are taken on both sides of the route rule
ROUTES = [(8, 4, 30.0, 50, True), (16, 12, 12.0, 40, True), (6, 3, 30.0, 200, True),
          (6, 3, 100.0, 2000, True), (16, 8, 30.0, 2000, False), (32, 16, 30.0, 500, False),
          (5, 1, 1.0, 2000, False), (5, 1, 2.0, 2000, True), (6, 2, 1.0, 2000, False),
          (6, 2, 8.0, 200, True), (7, 5, 4.0, 200, False), (7, 5, 30.0, 2000, True),
          (64, 63, 1.0, 2000, False), (64, 63, 1.0, 500, True)]


@pytest.mark.parametrize("n, rank, norm, samples, direct", ROUTES)
def test_interpolated_routes(monkeypatch, n, rank, norm, samples, direct):
    # long paths: the basis is computed at the samples where that costs
    # less than interpolating it from a high degree
    rng = np.random.default_rng(n)
    p = pj.random_projection(n, rank, 5)
    z = gr.random_tangent(p, rng, norm)
    [(r_z, r_w)] = list(reduced_blocks(p, z, [gr.random_tangent(p, rng, norm / 2)]))[1:]
    step_err, length_err = interpolated_errors(r_z, r_w, samples)
    assert step_err <= 1e-13 and length_err <= 1e-12
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    gr._interpolated_steps(r_z, r_w, np.linspace(0.0, 1.0, samples), *gr._GRASSMANN)
    if direct:
        # one eigh per block of samples, each block after the first with the
        # last sample of the one before: together they cover every sample
        block = gr._sample_blocks(samples, r_z.size + r_z.shape[1] ** 2)[0].stop
        assert sum(sizes) - (len(sizes) - 1) == samples
        assert max(sizes) <= block + 1
    else:
        assert sizes == [gr._interpolation_degree(r_z, r_w) + 1]


@pytest.mark.parametrize("n, rank", [(6, 3), (16, 4), (32, 24)])
def test_interpolated_eigh_count(monkeypatch, n, rank):
    rng = np.random.default_rng(rank)
    p = pj.random_projection(n, rank, 6)
    z = gr.random_tangent(p, rng, 1.5)
    ws = [gr.random_tangent(p, rng, norm) for norm in (0.0, 1e-3, 1.0, 8.0)]
    _ = p.range_basis, p.null_basis
    degrees = [gr._interpolation_degree(r_z, r_w) for r_z, r_w in reduced_blocks(p, z, ws)]
    assert min(degrees) + 1 < 2000
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    gr.tangent_path_lengths(p, z, ws, 2000)
    # one call per path, on at most deg + 1 matrices
    assert len(sizes) == len(degrees)
    assert all(size <= min(deg + 1, 2000) for size, deg in zip(sizes, degrees))
