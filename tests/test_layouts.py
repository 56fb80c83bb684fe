"""Every memory layout, dtype and nesting of a matrix gives the same bits.

The public constructors, ``op_norm`` and ``classify`` coerce a matrix to a
C-contiguous complex array (``linalg.as_matrix``); ``chordal_steps``,
``cone_polyline_steps`` and ``curve_length`` take each block of samples of
a stack in any layout.  So a transposed or conjugated view, a
Fortran-ordered copy and a strided view must give exactly what the
C-contiguous matrix gives; and so must a real or integer array and a
nested list, of a matrix or a stack with those entries.
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


DTYPES = ["integer", "real", "list", "complex-list"]


def as_dtype(a: np.ndarray, kind: str):
    """``a``, whose entries are integers held as complex numbers, as an
    integer or a real array, or as a nested list of ints or of complex
    numbers."""
    assert np.array_equal(a, np.round(a.real))
    if kind == "integer":
        return a.real.astype(int)
    if kind == "real":
        return np.asfortranarray(a.real)
    if kind == "list":
        return a.real.astype(int).tolist()
    return a.tolist()


@st.composite
def integer_instances(draw):
    """(p, m, perm, kind): a coordinate projection of dimension 2-8 at any
    rank, a matrix of small integers, a permutation and a dtype."""
    n = draw(st.integers(2, 8))
    rank = draw(st.integers(0, n))
    perm = draw(st.permutations(range(n)))
    p = pj.Projection(np.diag([1.0 if i < rank else 0.0 for i in perm]))
    m = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)))
    return p, m.reshape(n, n).astype(complex), np.eye(n)[list(perm)], draw(st.sampled_from(DTYPES))


def outcome(fn, mat):
    """The raw arrays of ``fn(mat)``, or the class of what it raised."""
    try:
        out = fn(mat)
    except Exception as exc:
        return type(exc)
    for attr in ("mat", "g"):
        if hasattr(out, attr):
            return [getattr(out, attr)]
    if hasattr(out, "rep"):
        return [out.rep.mat, out.range.mat]
    return list(out) if isinstance(out, tuple) else [out]


@settings(max_examples=40, deadline=None)
@given(integer_instances())
def test_dtypes_and_nested_lists(case):
    p, m, perm, kind = case
    n = p.dim
    comp = np.eye(n) - p.mat
    x = comp @ m @ p.mat
    sym = m + m.T
    eps = (2 * p.mat - np.eye(n)).astype(complex)
    mats = {
        "Projection": (pj.Projection, p.mat),
        "PartialIsometry": (lambda a: pj.PartialIsometry(a, p), perm @ p.mat),
        "TangentVector": (lambda a: gr.TangentVector(a, p), x - x.T),
        "HpVector": (lambda a: mo.HpVector(a, p), x),
        "MoebiusMap": (lambda a: mo.MoebiusMap(a, p), np.eye(n) + np.triu(m, 1)),
        "EpsUnitary": (lambda a: dk.EpsUnitary(a, p), eps),
        "PositiveEpsUnitary": (lambda a: dk.PositiveEpsUnitary(a, p), np.eye(n)),
        "is_eps_unitary": (lambda a: dk.is_eps_unitary(a, p), eps),
        "classify": (lambda a: pj.classify(a, p), m @ p.mat),
        "in_lp": (lambda a: pj.in_lp(a, p), m @ p.mat),
        "unitary_extension": (lambda a: pj.unitary_extension(a, p), np.eye(n) + np.triu(m, 1)),
        "projectivity": (lambda a: gr.projectivity(a, p), np.eye(n) + np.tril(m, -1)),
        "op_norm": (la.op_norm, m),
        "hermitian_eig": (la.hermitian_eig, sym),
        "polar": (la.polar, m),
        "expm": (la.expm, m),
        "svd_range_projection": (la.svd_range_projection, m),
    }
    for name, (fn, mat) in mats.items():
        # + 0 turns the zeros of the products above to +0, as the integers
        # hold them
        mat = np.ascontiguousarray(mat, dtype=complex) + 0
        expected, got = outcome(fn, mat), outcome(fn, as_dtype(mat, kind))
        if isinstance(expected, type):
            assert got is expected, name
        else:
            assert all(same_bits(a, b) for a, b in zip(expected, got)), name


@settings(max_examples=20, deadline=None)
@given(integer_instances(), st.integers(2, 300))
def test_stack_dtypes_and_nested_lists(case, count):
    p, _, perm, kind = case
    n = p.dim
    # coordinate projections, and diagonal positive matrices with integer
    # entries, in the order of a random walk over the permutation's rows
    walk = np.random.default_rng(count).integers(0, n, size=count)
    qs = np.stack([np.diag(perm[i]) for i in walk]).astype(complex)
    lams = np.stack([np.diag(1 + np.arange(n) * (i + 1)) for i in walk]).astype(complex)
    assert same_bits(gr.chordal_steps(qs), gr.chordal_steps(as_dtype(qs, kind)))
    assert same_bits(dk.cone_polyline_steps(lams), dk.cone_polyline_steps(as_dtype(lams, kind)))
