"""The curve engines evaluated one block of samples at a time.

Every engine runs its per-sample work in blocks of
``grassmann._BLOCK_ENTRIES`` complex entries per stacked operand.  Forcing
blocks of 1, 2, 3 and 7 samples (by setting that budget to a multiple of an
engine's entries per sample) must give the same bits as one block over the
whole grid, at resolutions on both sides of a block boundary.  The working
memory of the engines stays bounded by a few blocks whatever the
resolution, and their errors still name the samples that cause them.
"""

import tracemalloc

import numpy as np
import pytest

from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import projective as pj
from grassgeo.errors import InvalidCurve, InvalidInput, NotPositive
from grassgeo.linalg import herm

BLOCKS = (1, 2, 3, 7)
WHOLE = 1 << 40


def resolutions(block):
    return sorted({r for r in (2, 3, block - 1, block, block + 1, 2 * block + 1) if r >= 2})


def assert_same_in_blocks(monkeypatch, run, entries, sizes=resolutions):
    """``run(resolution)`` gives the same bits in blocks of each of
    ``BLOCKS`` samples as in one block."""
    for block in BLOCKS:
        for resolution in sizes(block):
            monkeypatch.setattr(gr, "_BLOCK_ENTRIES", WHOLE)
            whole = run(resolution)
            monkeypatch.setattr(gr, "_BLOCK_ENTRIES", block * entries)
            assert np.array_equal(run(resolution), whole), (block, resolution)


def grid(resolution):
    return np.linspace(0.0, 1.0, resolution)


# (n, rank): small sides of 1 to 4, on the range and on the kernel side;
# k = 1 and 2 on both sides
SHAPES = [(3, 1), (6, 3), (7, 5), (16, 4), (5, 2), (4, 3)]


def grassmann_path(n, rank):
    rng = np.random.default_rng(10 * n + rank)
    p = pj.random_projection(n, rank, n + rank)
    return p, gr.random_tangent(p, rng, 0.9), gr.random_tangent(p, rng, 0.4)


def cone_path(n, rank):
    p = pj.random_projection(n, rank, n + rank)
    mu = dk.random_pos_eps_unitary(p, 1.0, n)
    nu = dk.random_pos_eps_unitary(p, 0.5, n + 1)
    h = herm(np.random.default_rng(n).standard_normal((n, n)))
    return mu, nu, h * (0.3 / np.linalg.norm(h, 2))


def kernel_blocks(n, rank, geometry):
    """The reduced blocks ``(r_z, r_w)`` of a perturbed path of the geometry."""
    if geometry is gr._GRASSMANN:
        p, z, w = grassmann_path(n, rank)
        corners = gr._corners(p, z.mat, [w.mat])
    else:
        mu, nu, h = cone_path(n, rank)
        corners = dk._cone_corners(mu, nu, [h])
    return list(gr._reduced_blocks(*corners))[1]


def steps_of(r_z, r_w, geometry):
    return lambda resolution: gr._interpolated_steps(r_z, r_w, grid(resolution), *geometry)


def is_direct(r_z, r_w, resolution):
    deg = gr._interpolation_degree(r_z, r_w)
    return (deg + 1) * (2 / resolution + 1 / (20 * r_z.shape[1])) >= 1


@pytest.mark.parametrize("geometry", [gr._GRASSMANN, dk._CONE], ids=["grassmann", "cone"])
@pytest.mark.parametrize("n, rank", SHAPES)
def test_direct_steps(monkeypatch, n, rank, geometry):
    r_z, r_w = kernel_blocks(n, rank, geometry)
    assert all(is_direct(r_z, r_w, r) for b in BLOCKS for r in resolutions(b))
    assert_same_in_blocks(monkeypatch, steps_of(r_z, r_w, geometry), r_z.size + r_z.shape[1] ** 2)


@pytest.mark.parametrize("geometry", [gr._GRASSMANN, dk._CONE], ids=["grassmann", "cone"])
@pytest.mark.parametrize("n, rank", SHAPES)
def test_interpolated_steps(monkeypatch, n, rank, geometry):
    # the interpolated route needs many more samples than nodes
    r_z, r_w = kernel_blocks(n, rank, geometry)
    assert not is_direct(r_z, r_w, 400)
    assert_same_in_blocks(monkeypatch, steps_of(r_z, r_w, geometry), r_z.size + r_z.shape[1] ** 2,
                          lambda block: (400, 401, 400 + block))


def test_long_interpolated_steps_within_rounding(monkeypatch):
    # At 2000 samples OpenBLAS's dgemm rounds the last columns of a product
    # whose width is not a multiple of 8 (36 and 42 real columns here)
    # differently for different numbers of rows; the padded coefficients
    # keep the steps of every block the same bits.
    for n, rank in [(6, 3), (7, 3), (7, 4)]:
        r_z, r_w = kernel_blocks(n, rank, gr._GRASSMANN)
        assert_same_in_blocks(monkeypatch, steps_of(r_z, r_w, gr._GRASSMANN),
                              r_z.size + r_z.shape[1] ** 2, lambda block: (2000,))


@pytest.mark.parametrize("n, rank", SHAPES)
def test_path_sampler_and_curve_length(monkeypatch, n, rank):
    p, z, w = grassmann_path(n, rank)
    curve = gr.perturbed_curve(p, z, w)
    assert_same_in_blocks(monkeypatch, lambda r: curve.sample(grid(r)), n * n)
    assert_same_in_blocks(monkeypatch, lambda r: gr.geodesic_curve(p, z).sample(grid(r)), n * n)
    assert_same_in_blocks(monkeypatch, lambda r: gr.curve_length(gr.Curve(curve.sample, r)),
                          n * n)


@pytest.mark.parametrize("n, rank", SHAPES)
def test_chordal_steps(monkeypatch, n, rank):
    p, z, w = grassmann_path(n, rank)
    sample = gr.perturbed_curve(p, z, w).sample
    assert_same_in_blocks(monkeypatch, lambda r: gr.chordal_steps(sample(grid(r))), n * n)


@pytest.mark.parametrize("n, rank", SHAPES + [(5, 0), (5, 5)])
def test_cone_samplers_and_polyline(monkeypatch, n, rank):
    mu, nu, h = cone_path(n, rank)
    entries = n * n
    assert_same_in_blocks(monkeypatch, lambda r: dk.eps_geodesic_samples(mu, nu, grid(r)), entries)
    assert_same_in_blocks(monkeypatch, lambda r: dk._eps_geodesic_points(mu, nu, grid(r)), entries)
    assert_same_in_blocks(monkeypatch, lambda r: dk.cone_perturbed_path(mu, nu, h, grid(r)),
                          entries)
    assert_same_in_blocks(
        monkeypatch,
        lambda r: dk.cone_polyline_steps(dk.cone_perturbed_path(mu, nu, h, grid(r))), entries)


# --- working memory -------------------------------------------------------

# 64 complex operands of one block: 16 MiB at the default budget
BOUND = 64 * 16 * gr._BLOCK_ENTRIES


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_path():
    rng = np.random.default_rng(64)
    p = pj.random_projection(64, 16, 3)
    z, w = gr.random_tangent(p, rng, 1.2), gr.random_tangent(p, rng, 0.3)
    _ = p.range_basis, p.null_basis
    return p, z, w


@pytest.mark.parametrize("samples", [2000, 20000])
def test_tangent_path_lengths_memory(large_path, samples):
    p, z, w = large_path
    assert traced_peak(lambda: gr.tangent_path_lengths(p, z, [w], samples)) <= BOUND


def test_curve_length_memory(large_path):
    p, z, _ = large_path
    curve = gr.geodesic_curve(p, z, 2000)
    assert traced_peak(lambda: gr.curve_length(curve)) <= BOUND


# --- edges and errors -----------------------------------------------------


@pytest.mark.parametrize("count", [0, 1, 2])
def test_short_stacks_keep_their_shapes(count):
    mu, nu, _ = cone_path(4, 2)
    p, z, w = grassmann_path(4, 2)
    lams = dk.eps_geodesic_samples(mu, nu, grid(2)[:count])
    qs = gr.perturbed_curve(p, z, w).sample(grid(2)[:count])
    assert lams.shape == qs.shape == (count, 4, 4)
    assert dk.cone_polyline_steps(lams).shape == gr.chordal_steps(qs).shape == (max(count - 1, 0),)
    assert dk.eps_geodesic_samples(mu, nu, []).shape == (0, 4, 4)


def polyline(monkeypatch, resolution=10):
    """A cone polyline stack, with blocks of 3 samples forced."""
    mu, nu, h = cone_path(4, 2)
    lams = dk.cone_perturbed_path(mu, nu, h, grid(resolution))
    monkeypatch.setattr(gr, "_BLOCK_ENTRIES", 3 * 16)
    return lams


def test_not_positive_in_the_last_block(monkeypatch):
    lams = polyline(monkeypatch)
    lams[-1] = -lams[-1]
    with pytest.raises(NotPositive):
        dk.cone_polyline_steps(lams)
    lone = lams[-1:]
    with pytest.raises(NotPositive):
        dk.cone_polyline_steps(lone)


def test_non_finite_in_a_late_block_is_checked_first(monkeypatch):
    # the first block also holds a sample that is not positive: finiteness
    # is checked over the whole stack before any factor
    lams = polyline(monkeypatch)
    lams[1] = -lams[1]
    lams[-2, 0, 0] = np.nan
    with pytest.raises(InvalidInput, match="non-finite"):
        dk.cone_polyline_steps(lams)


def corrupted_curve(bad: dict, resolution=20):
    """A geodesic curve whose samples at the indices of ``bad`` are replaced
    by the given matrices."""
    p, z, _ = grassmann_path(4, 2)
    sample, ts = gr.geodesic_curve(p, z).sample, grid(resolution)

    def corrupt(t):
        qs = sample(t).copy()
        for i, mat in bad.items():
            qs[np.atleast_1d(t) == ts[i]] = mat
        return qs

    return gr.Curve(corrupt, resolution)


def test_curve_errors_name_the_global_sample(monkeypatch):
    monkeypatch.setattr(gr, "_BLOCK_ENTRIES", 3 * 16)
    nan = np.full((4, 4), np.nan)
    with pytest.raises(InvalidCurve, match="sample 17 has non-finite entries"):
        gr.curve_length(corrupted_curve({17: nan}))
    with pytest.raises(InvalidCurve, match="sample 11 violates the projection invariants"):
        gr.curve_length(corrupted_curve({11: 2 * np.eye(4)}))
    # of two faults, the first in time order decides the message, also
    # within one block and whichever check it fails
    with pytest.raises(InvalidCurve, match="sample 7 has non-finite"):
        gr.curve_length(corrupted_curve({7: nan, 8: 2 * np.eye(4)}))
    with pytest.raises(InvalidCurve, match="sample 7 violates"):
        gr.curve_length(corrupted_curve({7: 2 * np.eye(4), 8: nan}))
    with pytest.raises(InvalidCurve, match="sample 0 violates"):
        gr.curve_length(corrupted_curve({0: 2 * np.eye(4), 19: nan}))
