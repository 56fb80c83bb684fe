"""Results built from one thin SVD, against the routes they replaced.

``unitary_extension`` completes the polar isometry of ``g p`` from the thin
SVDs of ``g Bp``, ``g Bp'`` and ``(1 - U1 U1*) U2``.  The construction it
replaced, four corner polar parts taken through Gram matrices, is kept
below as the reference.  The extension is unique, so the two must agree.
"""

import numpy as np
import pytest

from grassgeo import linalg as la
from grassgeo import projective as pj

DIMS = (2, 3, 4, 5, 6, 7, 8, 16, 32, 64)
CASES = [(n, k) for n in DIMS for k in sorted({0, 1, n // 2, n - 1, n})]


def gram_polar(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a b (b* a*a b)^{-1/2} b*``: the polar part of ``a`` over the
    projection with orthonormal basis ``b``, through its corner Gram matrix."""
    ab = a @ b
    w, v = np.linalg.eigh(la.herm(ab.conj().T @ ab))
    return ab @ (v / np.sqrt(w)) @ v.conj().T @ b.conj().T


def four_polar_extension(g: np.ndarray, p: pj.Projection) -> np.ndarray:
    """``v1 + u v2``: the polar parts ``v1`` of ``g p`` and ``v2`` of
    ``g (1-p)``, and ``u`` rotating ran(v2) onto the complement of ran(v1)."""
    n = p.dim
    if p.rank == 0:
        return np.eye(n, dtype=complex)
    v1 = gram_polar(g, p.range_basis)
    if p.rank == n:
        return v1
    v2 = gram_polar(g, p.null_basis)
    u = gram_polar(np.eye(n) - v1 @ v1.conj().T, v2 @ p.null_basis)
    return v1 + u @ v2


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n,k", CASES)
def test_unitary_extension_matches_four_polar_reference(n, k, seed):
    rng = np.random.default_rng([n, k, seed])
    p = pj.random_projection(n, k, seed)
    g = la.random_invertible(n, rng, 0.1, 10.0)
    v = pj.unitary_extension(g, p)
    assert np.abs(v - four_polar_extension(g, p)).max() <= 1e-12
    assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-12
