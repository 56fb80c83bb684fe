"""The cone path lengths that the package measures for itself
(``disk._cone_path_steps``: the Grassmann step kernel with cosh/sinhc and
the indefinite form) against the n×n reference ``cone_polyline_steps`` of
the sampled paths, and against the closed-form cone distance.

Both ranks k and n - k are run, so that the small side is ``ran p`` in one
case and ``ker p`` in the other.  The reference loses about 1e-13 per step
to its Cholesky factors, whatever the step's size, so steps are compared
absolutely; geodesic totals are compared relatively with ``d_cone``.
"""

import numpy as np
import pytest

from grassgeo import disk as dk
from grassgeo import projective as pj
from grassgeo.linalg import herm

SIZES = [(4, 1), (5, 2), (6, 3), (8, 3), (16, 4), (32, 8), (64, 16)]
RANKS = [(n, rank) for n, k in SIZES for rank in sorted({k, n - k})]
CASES = [(n, rank, samples) for n, rank in RANKS
         for samples in ((200, 2000) if n <= 16 else (200,))]


def cone_pair(p, scale, seed):
    return (dk.random_pos_eps_unitary(p, scale, seed),
            dk.random_pos_eps_unitary(p, scale, seed + 1))


@pytest.mark.parametrize("n, rank, samples", CASES,
                         ids=[f"{n}-{r}-{s}" for n, r, s in CASES])
def test_steps_match_sampled_polyline(n, rank, samples):
    rng = np.random.default_rng(10 * n + rank)
    p = pj.random_projection(n, rank, n + rank)
    ts = np.linspace(0.0, 1.0, samples)
    for scale in (1.0, 3.0):
        mu, nu = cone_pair(p, scale, n)
        h = herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        # a small and a large perturbation, and one with no off-diagonal
        # part, whose path is the geodesic
        hs = [h * (0.3 / np.linalg.norm(h, 2)), h * (1.5 / np.linalg.norm(h, 2)),
              p.mat @ h @ p.mat + p.comp @ h @ p.comp]
        steps = list(dk._cone_path_steps(mu, nu, hs, samples))
        refs = [dk.cone_polyline_steps(dk.eps_geodesic_samples(mu, nu, ts))]
        refs += [dk.cone_polyline_steps(dk.cone_perturbed_path(mu, nu, h, ts)) for h in hs]
        assert len(steps) == len(refs) == 4
        for got, ref in zip(steps, refs):
            assert got.shape == ref.shape == (samples - 1,)
            assert np.abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize("n, rank", RANKS, ids=[f"{n}-{r}" for n, r in RANKS])
def test_geodesic_total_is_the_cone_distance(n, rank):
    # at corner scale 3 the computed L = log(nu^{-1/2} mu nu^{-1/2}) is
    # off-diagonal only to about 1e-13 relative (4.4e-13 at (4, 3)); d_cone
    # reads all of L, the kernel only its corner
    p = pj.random_projection(n, rank, n + rank)
    for scale, tol in ((1.0, 1e-13), (3.0, 5e-13)):
        mu, nu = cone_pair(p, scale, n + 7)
        [steps] = dk._cone_path_steps(mu, nu, [], 2000)
        dist = dk.d_cone(mu, nu)
        assert abs(steps.sum() - dist) <= tol * dist
        # the geodesic's steps are all equal
        assert np.abs(steps - dist / 1999).max() <= tol * dist


@pytest.mark.parametrize("n, rank", [(3, 0), (3, 3), (16, 0), (16, 16)])
def test_full_and_empty_ranks_give_zero_steps(n, rank):
    p = pj.random_projection(n, rank, 1)
    mu, nu = cone_pair(p, 1.0, 2)
    h = herm(np.random.default_rng(n).standard_normal((n, n)))
    steps = list(dk._cone_path_steps(mu, nu, [h], 50))
    assert len(steps) == 2
    for path in steps:
        assert path.shape == (49,) and not path.any()
