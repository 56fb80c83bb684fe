"""Corner invertibility is decided once, the same way for every caller.

Elements are built with a prescribed smallest singular value of the corner
matrix that the decision inspects, log-uniform in [1e-11, 1e-7] around
``eq_tol = 1e-9``.  The predicate and the function that raises must agree
on every instance, and both must match the prescribed value wherever it is
not within rounding of the threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassgeo import linalg as la
from grassgeo import moebius as mo
from grassgeo import projective as pj
from grassgeo.errors import GrassgeoError, NotInLp, NotInvertible, OutsideDomain
from grassgeo.linalg import DEFAULT_TOL

EQ = DEFAULT_TOL.eq_tol
DIMS = (2, 3, 4, 5, 6, 7, 8, 16)


@st.composite
def near_singular_corner(draw):
    """(n, k, seed, s): a rank-k context in dimension n, k >= 1, and the
    smallest singular value ``s`` of the corner matrix."""
    n = draw(st.sampled_from(DIMS))
    k = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, k, seed, 10.0 ** draw(st.floats(-11.0, -7.0))


def corner_matrix(k: int, s_min: float, rng: np.random.Generator) -> np.ndarray:
    """A k x k matrix with singular values ``s_min`` and the rest in [0.5, 2]."""
    s = np.concatenate([[s_min], rng.uniform(0.5, 2.0, size=k - 1)])
    return (la.random_unitary(k, rng) * s) @ la.random_unitary(k, rng).conj().T


def clear_of_threshold(s: float) -> bool:
    return abs(np.log(s / EQ)) > 0.05


def raised(fn, *args):
    """The type of package error ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except GrassgeoError as exc:
        return type(exc)
    return None


def gram_element(p: pj.Projection, lam_min: float, rng: np.random.Generator) -> np.ndarray:
    """An element whose corner Gram matrix ``b* a*a b`` has smallest
    eigenvalue ``lam_min`` and the rest in [0.5, 2]."""
    n, k, b = p.dim, p.rank, p.range_basis
    lam = np.concatenate([[lam_min], rng.uniform(0.5, 2.0, size=k - 1)])
    v = la.random_unitary(k, rng)
    return la.random_unitary(n, rng) @ b @ (v * np.sqrt(lam)) @ v.conj().T @ b.conj().T


def fuzz(test):
    return settings(max_examples=150, deadline=None)(given(case=near_singular_corner())(test))


@fuzz
def test_in_lp_decides_classify(case):
    n, k, seed, lam_min = case
    p = pj.random_projection(n, k, seed)
    a = gram_element(p, lam_min, np.random.default_rng(seed))
    member = pj.in_lp(a, p)
    # a member classifies; the representative is a partial isometry by
    # construction, so no later check may reject it
    assert raised(pj.classify, a, p) is (None if member else NotInLp)
    if clear_of_threshold(lam_min):
        assert member == (lam_min > EQ)


@pytest.mark.parametrize("n", [2, 6, 16])
@pytest.mark.parametrize("tenths", range(-89, -69))
def test_near_threshold_members_classify(n, tenths):
    # smallest corner Gram eigenvalue 10^e, e = -8.9 ... -7.0, just above
    # eq_tol: a Gram-matrix route loses about kappa^2 eps there
    rng = np.random.default_rng([n, -tenths])
    p = pj.random_projection(n, n // 2, -tenths)
    a = gram_element(p, 10.0 ** (tenths / 10), rng)
    assert pj.in_lp(a, p)
    v = pj.classify(a, p).rep.mat
    assert la.op_norm(v.conj().T @ v - p.mat) <= 1e-12 * n


@fuzz
def test_moebius_domain_decides_apply(case):
    n, k, seed, s_min = case
    rng = np.random.default_rng(seed)
    p = pj.random_projection(n, k, seed)
    bb, pc = p.range_basis, p.comp
    x = mo.random_hp_vector(p, rng, rng.uniform(0.1, 2.0))
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # p g (1-p) = y and p g p + y x = bb t bb*: the corner of g (p + x) is t
    y = p.mat @ m @ pc
    g = bb @ corner_matrix(k, s_min, rng) @ bb.conj().T - y @ x.mat + y + pc @ m.conj().T
    try:
        mm = mo.MoebiusMap(g, p)
    except NotInvertible:
        return
    domain = mo.moebius_domain(mm, x)
    assert domain == (raised(mo.moebius_apply, mm, x) is not OutsideDomain)
    if clear_of_threshold(s_min):
        assert domain == (s_min > EQ)
