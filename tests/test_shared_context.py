"""Pair queries on long-lived points: the chart block kept on a point and
the identity shortcut of the context check.

A point keeps its chart block at its own context object, one per eq_tol,
so ``chart_inv`` and ``d_chart`` must give, bit for bit, what the kernel
``_chart_coordinate`` gives on every call, whether the pair shares its
context object or carries equal copies, and the finiteness decision must
follow the tolerance of each call.  Contexts that are one object pass the
context checks at once; distinct ones are still compared.
"""

import numpy as np
import pytest

from grassgeo import grassmann as gr
from grassgeo import linalg as la
from grassgeo import moebius as mo
from grassgeo import projective as pj
from grassgeo.errors import InvalidInput, InvalidTangent, NotFinitePoint

CASES = [(2, 1), (5, 2), (6, 3), (7, 6), (16, 4), (64, 16)]
IDS = [f"{n}-{k}" for n, k in CASES]
TOL = la.DEFAULT_TOL


def kernel_coordinate(m, p):
    """The n x n chart coordinate at ``p`` straight from the kernel."""
    return mo._hp_vector(mo._chart_coordinate(m.rep.mat, p, TOL), p).mat


def kernel_distance(m, n):
    p = m.context
    return la._op_norm(mo._chart_coordinate(m.rep.mat, p, TOL)
                       - mo._chart_coordinate(n.rep.mat, p, TOL))


def copy_context(m):
    """The point ``m`` over an equal copy of its context object."""
    q = pj.Projection(m.context.mat.copy())
    return pj.classify(m.rep.mat, q)


def points(n, k):
    p = pj.random_projection(n, k, 100 + n)
    return [pj.random_point_near(p, 0.8, seed) for seed in (1, 2, 3)]


@pytest.mark.parametrize("n, k", CASES, ids=IDS)
def test_chart_inv_matches_kernel_on_every_call(n, k):
    for m in points(n, k):
        twin = copy_context(m)
        assert twin.context is not m.context
        for point in (m, twin, m, twin):
            assert np.array_equal(mo.chart_inv(point).mat, kernel_coordinate(point, point.context))


@pytest.mark.parametrize("n, k", CASES, ids=IDS)
def test_d_chart_matches_kernel_shared_and_copied(n, k):
    a, b, c = points(n, k)
    b_twin = copy_context(b)
    for _ in range(2):
        for m, other in ((a, b), (b, a), (a, c), (a, b_twin), (b_twin, a), (b, b_twin)):
            assert mo.d_chart(m, other) == kernel_distance(m, other)
    assert mo.d_chart(b, b_twin) == 0.0


def test_returned_coordinate_is_the_callers_copy():
    m = points(6, 2)[0]
    first = mo.chart_inv(m)
    expected = first.mat.copy()
    first.mat[:] = 0.0
    assert np.array_equal(mo.chart_inv(m).mat, expected)


def straddling_point(delta):
    """A point over ``p = diag(1, 1, 0, 0)`` whose compression to ran(p)
    has singular values 1 and ``delta``."""
    p = pj.Projection(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    cols = np.zeros((4, 2), dtype=complex)
    cols[0, 0] = 1.0
    cols[1, 1], cols[2, 1] = delta, np.sqrt(1.0 - delta * delta)
    q = pj.Projection(cols @ cols.conj().T)
    return pj.point_from_projection(q, p)


LOOSE = la.Tolerance(eq_tol=1e-9)   # below the compression's 1e-7: finite
STRICT = la.Tolerance(eq_tol=1e-6)  # above it: not finite


@pytest.mark.parametrize("order", [(LOOSE, STRICT, LOOSE, STRICT), (STRICT, LOOSE, STRICT, LOOSE)],
                         ids=["loose-first", "strict-first"])
def test_finiteness_decided_per_tolerance(order):
    m = straddling_point(1e-7)
    base = pj.classify(m.context.mat, m.context)
    s = np.linalg.svd(pj.corner_compress(m.rep.mat, m.context), compute_uv=False)
    assert LOOSE.eq_tol < s.min() < STRICT.eq_tol
    values = []
    for tol in order:
        if tol is STRICT:
            with pytest.raises(NotFinitePoint):
                mo.chart_inv(m, tol)
            with pytest.raises(NotFinitePoint):
                mo.d_chart(m, base, tol)
            with pytest.raises(NotFinitePoint):
                mo.d_chart(base, m, tol)
        else:
            x = mo.chart_inv(m, tol)
            assert np.array_equal(x.mat, mo._hp_vector(
                mo._chart_coordinate(m.rep.mat, m.context, tol), m.context).mat)
            values.append((x.mat, mo.d_chart(m, base, tol), mo.d_chart(base, m, tol)))
    assert np.array_equal(values[0][0], values[1][0])
    assert values[0][1:] == values[1][1:]
    assert values[0][1] > 1e6


@pytest.mark.parametrize("error", [InvalidInput, InvalidTangent], ids=lambda e: e.__name__)
def test_context_check_compares_distinct_contexts(error):
    # one check for every pair: points (InvalidInput) and tangents
    # (InvalidTangent) alike
    p = pj.random_projection(5, 2, 7)
    q = pj.Projection(p.mat + 1e-8 * np.diag([1.0, -1.0, 0.0, 0.0, 0.0]), la.Tolerance(1e-6))
    other = pj.random_projection(5, 2, 8)
    pj._check_context(p, p, TOL, error)
    pj._check_context(p, pj.Projection(p.mat.copy()), TOL, error)
    pj._check_context(pj.Projection(p.mat.copy()), p, TOL, error)
    pj._check_context(p, q, la.Tolerance(eq_tol=1e-6), error)
    with pytest.raises(error):
        pj._check_context(p, q, TOL, error)
    with pytest.raises(error):
        pj._check_context(other, p, TOL, error)
    if error is InvalidInput:
        m = pj.classify(p.mat, p)
        n = pj.classify(q.mat, q, la.Tolerance(1e-6))
        with pytest.raises(InvalidInput):
            mo.d_chart(m, n, TOL)
    else:
        z = gr.random_tangent(p, np.random.default_rng(0), 0.4)
        with pytest.raises(InvalidTangent):
            gr.geodesic(other, z, 0.5)
