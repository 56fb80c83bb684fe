"""The speed-integral kernel (``grassmann._path_integrals`` and
``disk._cone_path_integrals``): path lengths as ``int_0^1 speed dt`` by
Gauss-Legendre rules on the Chebyshev interpolant of the moved basis.

Each integral is checked against a closed form that does not go through
the kernel: ``||z||`` and ``arcsin`` of the n×n chordal distance for
Grassmann geodesics, ``d_cone`` for cone geodesics, and the chart formula
of the non-Euclidean speed for perturbed cone paths.  The polylines that
the step kernels sum converge to the integrals as O(N^-2).
"""

import numpy as np
import pytest

from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import projective as pj
from grassgeo.errors import ResidualError
from grassgeo.linalg import adj, herm

# both ranks k and n - k, so that the small side is ran p in one case and
# ker p in the other, at k = 1, 2, 3 and 16
SIZES = [(4, 1), (5, 2), (7, 3), (33, 16)]
RANKS = [(n, rank) for n, k in SIZES for rank in (k, n - k)]
IDS = [f"{n}-{r}" for n, r in RANKS]


def tangent_instance(n, rank, norm, paths=3):
    """A geodesic tangent of the given norm and perturbations of 0.05 to 0.5
    times that norm, so that no path comes near a standstill."""
    rng = np.random.default_rng(10 * n + rank)
    p = pj.random_projection(n, rank, n + rank)
    z = gr.random_tangent(p, rng, norm)
    ws = [gr.random_tangent(p, rng, norm * rng.uniform(0.05, 0.5)) for _ in range(paths)]
    return p, z, ws


def integrals(p, z, ws):
    return list(gr._path_integrals(*gr._corners(p, z.mat, [w.mat for w in ws]), gr._GRASSMANN))


def cone_instance(n, rank, scale):
    p = pj.random_projection(n, rank, n + rank)
    mu = dk.random_pos_eps_unitary(p, scale, n)
    nu = dk.random_pos_eps_unitary(p, scale, n + 1)
    h = herm(np.random.default_rng(n).standard_normal((n, n))
             + 1j * np.random.default_rng(n + 1).standard_normal((n, n)))
    return p, mu, nu, h * (0.3 / np.linalg.norm(h, 2))


@pytest.mark.parametrize("n, rank", RANKS, ids=IDS)
def test_geodesic_integral_is_the_distance(n, rank):
    for norm in (1e-3, 0.7, 1.5):
        p, z, ws = tangent_instance(n, rank, norm)
        geo, *pert = integrals(p, z, ws)
        q = gr.geodesic(p, z, 1.0)
        chordal = np.linalg.norm(q.mat - p.mat, 2)
        assert abs(geo - norm) <= 1e-13 * norm
        # the n×n difference of projections is rounded to about 8 (n + 2) eps,
        # and arcsin amplifies that by 1 / cos(norm)
        bound = 1e-13 * norm + 8 * (n + 2) * np.finfo(float).eps / np.cos(norm)
        assert abs(geo - np.arcsin(chordal)) <= bound
        # the perturbed paths share the endpoints, and the geodesic is the
        # unique shortest path between them
        assert len(pert) == 3 and min(pert) > geo


@pytest.mark.parametrize("n, rank", [(3, 0), (3, 3), (16, 0), (16, 16)])
def test_full_and_empty_ranks_give_zero_lengths(n, rank):
    p = pj.random_projection(n, rank, 1)
    zero = np.zeros((n, n), dtype=complex)
    corners = gr._corners(p, zero, [zero, zero])
    assert list(gr._path_integrals(*corners, gr._GRASSMANN)) == [0.0] * 3
    mu, nu = dk.random_pos_eps_unitary(p, 1.0, 2), dk.random_pos_eps_unitary(p, 1.0, 3)
    h = herm(np.random.default_rng(n).standard_normal((n, n)))
    assert dk._cone_path_integrals(mu, nu, [h]) == [0.0, 0.0]


@pytest.mark.parametrize("n, rank", RANKS, ids=IDS)
def test_cone_geodesic_integral_is_the_cone_distance(n, rank):
    # at corner scale 3 the computed L = log(nu^{-1/2} mu nu^{-1/2}) is
    # off-diagonal only to about 1e-13 relative; d_cone reads all of L,
    # the kernel only its corner
    for scale, tol in ((1.0, 1e-13), (3.0, 5e-13)):
        _, mu, nu, h = cone_instance(n, rank, scale)
        geo, pert = dk._cone_path_integrals(mu, nu, [h])
        dist = dk.d_cone(mu, nu)
        assert abs(geo - dist) <= tol * dist
        assert pert > geo


def observed_order(lengths, exact):
    """Errors of three polylines at N, 2N and 4N steps against the
    integral, and the two ratios of successive errors."""
    errors = np.array([exact - length for length in lengths])
    return errors, errors[:-1] / errors[1:]


@pytest.mark.parametrize("n, rank", [(4, 1), (5, 3), (7, 3), (33, 16)])
def test_polylines_converge_to_the_integral(n, rank):
    # a chord is shorter than its arc by O(h^3), so the N-step polyline
    # falls short of the length by O(N^-2): doubling N quarters the gap
    p, z, ws = tangent_instance(n, rank, 1.2, paths=2)
    exact = integrals(p, z, ws)
    polylines = [gr.tangent_path_lengths(p, z, ws, steps + 1) for steps in (100, 200, 400)]
    for i in range(3):
        lengths = [poly[0] if i == 0 else poly[1][i - 1] for poly in polylines]
        errors, ratios = observed_order(lengths, exact[i])
        assert np.all(errors > 0)
        assert np.all(np.abs(ratios - 4) <= 0.05)


@pytest.mark.parametrize("n, rank", [(4, 1), (5, 3), (7, 3)])
def test_cone_polylines_converge_to_the_integral(n, rank):
    # cone steps are distances, not chords: along the geodesic they add up
    # to its length exactly, along a perturbed path they fall short by O(N^-2)
    _, mu, nu, h = cone_instance(n, rank, 1.0)
    geo, pert = dk._cone_path_integrals(mu, nu, [h])
    polylines = [[steps.sum() for steps in dk._cone_path_steps(mu, nu, [h], count + 1)]
                 for count in (100, 200, 400)]
    assert all(abs(poly[0] - geo) <= 1e-13 * geo for poly in polylines)
    errors, ratios = observed_order([poly[1] for poly in polylines], pert)
    assert np.all(errors > 0)
    assert np.all(np.abs(ratios - 4) <= 0.05)


def chart_speeds(mu, nu, h, ts, dt=1e-5):
    """Cone speeds of ``cone_perturbed_path(mu, nu, h, .)`` at ``ts`` from
    the chart coordinate ``A`` of the disk point ``[lam^{1/2} p]``: twice
    the non-Euclidean speed ``||(1 - A A*)^{-1/2} A' (1 - A* A)^{-1/2}||``
    (Hua, 1963), with ``A'`` by central differences.  Nothing here goes
    through the package's kernels or chart maps."""
    p = mu.context
    bp, bc = p.range_basis, p.null_basis

    def chart(t):
        w, v = np.linalg.eigh(dk.cone_perturbed_path(mu, nu, h, t))
        root = (v * np.sqrt(w)[..., None, :]) @ adj(v)
        return adj(bc) @ root @ bp @ np.linalg.inv(adj(bp) @ root @ bp)

    def inv_sqrt(a):
        w, v = np.linalg.eigh(a)
        return (v / np.sqrt(w)[..., None, :]) @ adj(v)

    a = chart(ts)
    rate = (chart(ts + dt) - chart(ts - dt)) / (2 * dt)
    left = inv_sqrt(np.eye(a.shape[-2]) - a @ adj(a))
    right = inv_sqrt(np.eye(a.shape[-1]) - adj(a) @ a)
    return 2 * np.linalg.norm(left @ rate @ right, 2, axis=(-2, -1))


@pytest.mark.parametrize("n, rank", [(2, 1), (4, 1), (5, 2), (6, 4)])
def test_cone_integral_matches_the_chart_speed(n, rank):
    _, mu, nu, h = cone_instance(n, rank, 1.0)
    x, w = np.polynomial.legendre.leggauss(64)
    ts = (x + 1) / 2
    geo, pert = dk._cone_path_integrals(mu, nu, [h])
    assert abs(pert - w / 2 @ chart_speeds(mu, nu, h, ts)) <= 1e-8 * pert
    assert abs(geo - w / 2 @ chart_speeds(mu, nu, np.zeros_like(h), ts)) <= 1e-8 * geo


def near_crossing_blocks():
    """Reduced blocks of a perturbed path at (n, rank) = (7, 3) along which
    the two largest singular values of the speed's residual come within
    0.0074 of each other near t = 0.62, against a speed of 0.24."""
    p = pj.random_projection(7, 3, 29)
    rng = np.random.default_rng(29)
    z = gr.random_tangent(p, rng, rng.uniform(0.2, 1.5))
    ws = [gr.random_tangent(p, rng, rng.uniform(0.05, 0.5)) for _ in range(5)]
    return list(gr._reduced_blocks(*gr._corners(p, z.mat, [w.mat for w in ws])))[3]


def composite_integral(r_z, r_w, pieces=32):
    """The kernel's speed integrated by 64-point Gauss-Legendre rules on
    ``pieces`` equal subintervals, from the same Chebyshev coefficients."""
    f, g, sigma = gr._GRASSMANN
    k = r_z.shape[1]
    deg = gr._interpolation_degree(r_z, r_w)
    coef = gr._chebyshev_coefficients(r_z, r_w, deg, f, g)
    x, w = np.polynomial.legendre.leggauss(64)
    edges = np.linspace(0.0, 1.0, pieces + 1)
    ts = np.concatenate([a + (b - a) * (x + 1) / 2 for a, b in zip(edges[:-1], edges[1:])])
    weights = np.tile(w / (2 * pieces), pieces)
    theta, order = gr._angles(ts), np.arange(deg + 1)
    at = np.cos(np.outer(theta, order))
    rate = np.sin(np.outer(theta, order)) * (order * (2 / np.sin(theta))[:, None])
    basis, velocity = (gr._interpolate(rows, coef, (len(r_z) + k, k)) for rows in (at, rate))
    return weights @ gr._residual_norms(basis, velocity, k, sigma)


def test_bisection_on_a_near_crossing(monkeypatch):
    r_z, r_w = near_crossing_blocks()
    pieces = set()
    rows = gr._speed_rows

    def spy(ts, size):
        pieces.add((np.floor(ts.min() * 64) / 64, np.ceil(ts.max() * 64) / 64))
        return rows(ts, size)

    monkeypatch.setattr(gr, "_speed_rows", spy)
    length = gr._speed_integral(r_z, r_w, *gr._GRASSMANN)
    # on [0, 1] the 64- and 128-node rules differ by 5e-8; only the half
    # holding the near-crossing is bisected again
    assert pieces - {(0.0, 1.0)} == {(0.0, 0.5), (0.5, 1.0), (0.5, 0.75), (0.75, 1.0)}
    assert abs(length - composite_integral(r_z, r_w)) <= 1e-14


def test_kinked_speed_does_not_converge():
    # z(t) = (4t - 3t^2) z runs past the endpoint and back: the speed
    # |4 - 6t| ||z|| has a kink at t = 2/3, no end of a bisected piece, where
    # no Gauss-Legendre rule converges faster than N^-2, however short the
    # piece around it
    p, z, _ = tangent_instance(6, 2, 1.0, paths=0)
    with pytest.raises(ResidualError):
        integrals(p, z, [gr.TangentVector(3 * z.mat, p)])
