"""Every memory layout of a matrix gives the same bits.

The public constructors, ``op_norm`` and ``classify`` coerce a matrix to a
C-contiguous complex array (``linalg.as_matrix``); ``chordal_steps``,
``cone_polyline_steps`` and ``curve_length`` take each block of samples of
a stack in any layout.  So a transposed or conjugated view, a
Fortran-ordered copy and a strided view must give exactly what the
C-contiguous matrix gives.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import linalg as la
from grassgeo import moebius as mo
from grassgeo import projective as pj

LAYOUTS = ["transposed", "adjoint", "fortran", "strided", "reversed"]


def layout(a: np.ndarray, kind: str) -> np.ndarray:
    """An array equal to ``a``, entry for entry, in the memory layout
    ``kind``; over the last two axes for a stack."""
    swap = (lambda x: np.swapaxes(x, -1, -2))
    if kind == "transposed":
        out = swap(np.ascontiguousarray(swap(a)))
    elif kind == "adjoint":
        out = swap(np.ascontiguousarray(swap(a.conj()))).conj()
    elif kind == "fortran":
        out = np.asfortranarray(a)
    elif kind == "strided":
        big = np.zeros(a.shape[:-2] + (2 * a.shape[-2], 3 * a.shape[-1]), dtype=a.dtype)
        big[..., ::2, ::3] = a
        out = big[..., ::2, ::3]
    else:
        out = np.flip(np.flip(a, axis=-1).copy(), axis=-1)
    assert not out.flags.c_contiguous or out.shape[-1] == 1
    assert np.array_equal(out, a)
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


@st.composite
def instances(draw):
    """(p, rng, kind): a context of dimension 2-8 at any rank, a generator
    and a layout."""
    n = draw(st.integers(2, 8))
    p = pj.random_projection(n, draw(st.integers(0, n)), draw(st.integers(0, 2**32 - 1)))
    return p, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.sampled_from(LAYOUTS))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_constructors_and_kernels(case):
    p, rng, kind = case
    n = p.dim
    a = la.random_invertible(n, rng) @ p.mat
    rep = pj.classify(a, p).rep.mat
    mats = {
        "Projection": (lambda m: pj.Projection(m), p.mat, lambda out: [out.mat]),
        "PartialIsometry": (lambda m: pj.PartialIsometry(m, p), rep, lambda out: [out.mat]),
        "TangentVector": (lambda m: gr.TangentVector(m, p), gr.random_tangent(p, rng, 0.7).mat,
                          lambda out: [out.mat]),
        "HpVector": (lambda m: mo.HpVector(m, p), mo.random_hp_vector(p, rng, 0.5).mat,
                     lambda out: [out.mat]),
        "MoebiusMap": (lambda m: mo.MoebiusMap(m, p), la.random_invertible(n, rng),
                       lambda out: [out.g]),
        "EpsUnitary": (lambda m: dk.EpsUnitary(m, p), dk.random_eps_unitary(p, rng).mat,
                       lambda out: [out.mat]),
        "PositiveEpsUnitary": (lambda m: dk.PositiveEpsUnitary(m, p),
                               dk.random_pos_eps_unitary(p, 1.0, 3).mat,
                               lambda out: [out.mat, out.xparam.mat, out.sqrt]),
        "op_norm": (la.op_norm, a, lambda out: [out]),
        "classify": (lambda m: pj.classify(m, p), a, lambda out: [out.rep.mat, out.range.mat]),
    }
    for name, (fn, mat, bits) in mats.items():
        mat = np.ascontiguousarray(mat)
        expected, got = bits(fn(mat)), bits(fn(layout(mat, kind)))
        assert all(same_bits(x, y) for x, y in zip(expected, got)), name
        assert all(np.asarray(x).flags.c_contiguous for x in got), name


@settings(max_examples=20, deadline=None)
@given(instances(), st.integers(2, 600))
def test_stack_entry_points(case, count):
    # several blocks of samples above about 256 samples at n = 8
    p, rng, kind = case
    ts = np.linspace(0.0, 1.0, count)
    sample = gr.geodesic_curve(p, gr.random_tangent(p, rng, 1.1), count).sample
    qs = sample(ts)
    mu, nu = (dk.random_pos_eps_unitary(p, 1.0, seed) for seed in (1, 2))
    lams = dk.eps_geodesic_samples(mu, nu, ts)
    assert same_bits(gr.chordal_steps(qs), gr.chordal_steps(layout(qs, kind)))
    assert same_bits(dk.cone_polyline_steps(lams), dk.cone_polyline_steps(layout(lams, kind)))
    assert dk.cone_polyline_length(layout(lams, kind)) == dk.cone_polyline_length(lams)
    # a curve of the caller's, whose samples curve_length checks
    lengths = [gr.curve_length(gr.Curve(lambda t, f=f: f(sample(np.atleast_1d(t))), count))
               for f in (np.ascontiguousarray, lambda a: layout(a, kind))]
    assert lengths[0] == lengths[1]
