"""Chordal and spherical metrics, geodesics and projectivities.

The chordal distance between two points is the operator norm distance of
their range projections.  Below chordal distance 1 the rectifiable metric
has the closed form arcsin of the chordal distance, realized by the unique
geodesic ``t -> exp(t z) p exp(-t z)`` with ``z`` anti-Hermitian and
off-diagonal with respect to ``p``.

A tangent ``z`` exchanges ran(p) with its complement, so ``exp(z)`` has the
classical cos/sinc block structure (Edelman, Arias and Smith, 1998): with
``a = (1-p) z Bp``, ``exp(z) Bp = Bp cos|a| + a sinc|a|``, where
``|a| = (a* a)^(1/2)``.  Geodesic points and the curve samplers are all
computed from these blocks, without an n x n exponential; the samplers use
the smaller of the two subspaces, of dimension k, to sample long paths in
closed form.

:func:`tangent_path_lengths` measures the geodesic and its perturbed
companions on that small side alone.  Path by path it moves the generator
block into the span of ``[a_z, a_w]`` (one thin QR, at most 2k
coordinates), takes each step as the sine of the largest principal angle
between consecutive moved bases, computed from the residual
``C_{j+1} - C_j (C_j* C_{j+1})`` so that short steps keep their accuracy,
and uses closed forms with the samples on the last axis for k <= 2: scalars
at k = 1, one Jacobi rotation and a 2 x 2 eigenvalue at k = 2.  For k >= 3
batched ``eigh`` and ``eigvalsh`` do the same work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    InvalidCurve,
    InvalidInput,
    InvalidTangent,
    NotInvertible,
    OutOfRange,
    ResidualError,
)
from .linalg import DEFAULT_TOL, Tolerance, _is_singular, adj, as_matrix, herm, op_norm, spectral
from .projective import Projection, ProjectivePoint, _trusted, random_offdiag_antiherm

__all__ = [
    "TangentVector",
    "Curve",
    "d_chordal",
    "d_spherical",
    "geodesic",
    "geodesic_log",
    "chordal_steps",
    "curve_length",
    "projectivity",
    "geodesic_curve",
    "perturbed_curve",
    "tangent_path_lengths",
    "random_tangent",
]


class TangentVector:
    """Velocity of a Grassmann geodesic at its base projection.

    Anti-Hermitian and off-diagonal: ``p z p = 0`` and ``(1-p) z (1-p) = 0``,
    equivalently ``p z = z (1-p)``.
    """

    def __init__(self, mat, context: Projection, tol: Tolerance = DEFAULT_TOL):
        mat = as_matrix(mat, square=True)
        if mat.shape != context.mat.shape:
            raise InvalidTangent("tangent and context dimensions differ")
        if np.abs(mat + mat.conj().T).max() > tol.eq_tol:
            raise InvalidTangent("tangent is not anti-Hermitian within eq_tol")
        p, pc = context.mat, context.comp
        if np.abs(p @ mat @ p).max() > tol.eq_tol or np.abs(pc @ mat @ pc).max() > tol.eq_tol:
            raise InvalidTangent("tangent has diagonal blocks exceeding eq_tol")
        self.mat = mat
        self.context = context

    @cached_property
    def norm(self) -> float:
        return float(np.linalg.norm(self.mat, 2))

    def __repr__(self):
        return f"TangentVector(dim={self.mat.shape[0]}, norm={self.norm:.6g})"


@dataclass
class Curve:
    """A projection-valued curve on [0, 1], sampled at a fixed resolution.

    ``sample`` maps a scalar parameter to a :class:`Projection`; samplers
    produced by this module also accept a 1-d array of parameters and then
    return the stacked raw matrices, which :func:`curve_length` uses to
    avoid per-sample Python overhead.
    """

    sample: Callable
    resolution: int = 2000

    def __post_init__(self):
        if self.resolution < 2:
            raise InvalidInput("curve resolution must be at least 2")


def random_tangent(p: Projection, rng: np.random.Generator, norm: float = 1.0) -> TangentVector:
    """Random tangent at ``p`` scaled to the requested operator norm."""
    z = random_offdiag_antiherm(p, rng)
    zn = np.linalg.norm(z, 2)
    if zn == 0.0:
        return TangentVector(np.zeros_like(p.mat), p)
    return TangentVector(z * (norm / zn), p)


def _check_context(m: ProjectivePoint, n: ProjectivePoint, tol: Tolerance):
    if m.range.mat.shape != n.range.mat.shape:
        raise InvalidInput("points live in different ambient dimensions")
    if np.abs(m.context.mat - n.context.mat).max() > tol.eq_tol:
        raise InvalidInput("points have different context projections")


def d_chordal(m: ProjectivePoint, n: ProjectivePoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """Chordal distance: operator norm of the difference of range projections."""
    _check_context(m, n, tol)
    return op_norm(m.range.mat - n.range.mat)


def d_spherical(m: ProjectivePoint, n: ProjectivePoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """Geodesic (spherical) distance arcsin(d_chordal), valid below 1.

    Raises
    ------
    OutOfRange
        If the chordal distance reaches 1 - eq_tol; the closed form is only
        guaranteed below chordal distance 1.
    """
    d = d_chordal(m, n, tol)
    if d >= 1.0 - tol.eq_tol:
        raise OutOfRange("chordal distance reaches 1; arcsin form not applicable")
    return float(np.arcsin(min(d, 1.0)))


def _check_tangent(p: Projection, z: TangentVector, tol: Tolerance = DEFAULT_TOL):
    """Raise ``InvalidTangent`` unless ``z`` is a tangent at ``p``."""
    if z.context.mat.shape != p.mat.shape:
        raise InvalidTangent("tangent and base projection dimensions differ")
    if np.abs(z.context.mat - p.mat).max() > tol.eq_tol:
        raise InvalidTangent("tangent context differs from the base projection")


def geodesic(p: Projection, z: TangentVector, t: float, tol: Tolerance = DEFAULT_TOL) -> Projection:
    """Point of the geodesic through ``p`` with velocity ``z`` at time ``t``.

    The range basis of the result is the moved basis
    ``exp(tz) Bp = Bp cos|a| + a sinc|a|`` with ``a = t (1-p) z Bp``,
    computed from the cos/sinc blocks over ran(p).
    """
    _check_tangent(p, z, tol)
    bp = p.range_basis
    top, bot = _cos_sinc_blocks(t * (p.comp @ (z.mat @ bp)))
    cols = bp @ top + bot
    return _trusted(Projection, mat=cols @ cols.conj().T, rank=p.rank, range_basis=cols)


def geodesic_log(p: Projection, q: Projection, tol: Tolerance = DEFAULT_TOL) -> TangentVector:
    """The unique tangent ``z`` with ``exp(z) p exp(-z) = q`` and norm < pi/2.

    ``z`` equals half the principal logarithm of the product of symmetries
    ``(2q - 1)(2p - 1) = exp(2z)``, which is defined exactly when the
    chordal distance is below 1.  It is computed from the principal angles
    of the range bases (Bjorck and Golub, 1973; Edelman, Arias and Smith,
    1998).  The thin SVD ``W cos(Phi) Y*`` of ``M = Bp* Bq`` decides the
    domain, the chordal distance being the sine of the largest angle, and
    gives ``M^{-1} = Y cos(Phi)^{-1} W*``.  With the thin SVD
    ``U tan(Theta) V*`` of ``(Bq - Bp M) M^{-1}``, ``z = D Bp* - Bp D*``
    with ``D = U Theta V*``.  The result is checked against its defining
    equation.

    Raises
    ------
    InvalidInput
        If the ranks differ.
    OutOfRange
        If the chordal distance reaches 1 - eq_tol.
    ResidualError
        If the reconstructed endpoint misses ``q`` by more than geo_tol.
    """
    if p.mat.shape != q.mat.shape:
        raise InvalidInput("projections live in different ambient dimensions")
    if p.rank != q.rank:
        raise InvalidInput("projections have different ranks")
    bp, bq = p.range_basis, q.range_basis
    m = adj(bp) @ bq
    w, cos_phi, yh = np.linalg.svd(m)
    # sin^2 = 1 - cos^2 >= (1 - eq_tol)^2
    if (cos_phi * cos_phi <= tol.eq_tol * (2.0 - tol.eq_tol)).any():
        raise OutOfRange("chordal distance reaches 1; no unique short geodesic")
    u, tan_theta, vh = np.linalg.svd(((bq - bp @ m) @ adj(yh) / cos_phi) @ adj(w),
                                     full_matrices=False)
    lift = (u * np.arctan(tan_theta)) @ vh @ adj(bp)
    zvec = TangentVector(lift - adj(lift), p, tol)
    endpoint = geodesic(p, zvec, 1.0, tol)
    if np.abs(endpoint.mat - q.mat).max() > tol.geo_tol:
        raise ResidualError("geodesic log failed to reproduce the endpoint")
    return zvec


def _sample_matrices(curve: Curve, ts: np.ndarray) -> np.ndarray:
    """Evaluate a curve on a parameter grid, tolerating scalar-only samplers."""
    try:
        out = np.asarray(curve.sample(ts))
        if out.ndim == 3 and out.shape[0] == ts.size:
            return out.astype(complex)
    except Exception:
        pass
    mats = []
    for t in ts:
        q = curve.sample(float(t))
        mats.append(q.mat if isinstance(q, Projection) else np.asarray(q, dtype=complex))
    return np.stack(mats)


def curve_length(curve: Curve, tol: Tolerance = DEFAULT_TOL) -> float:
    """Chordal length of a curve on the uniform grid of ``curve.resolution``.

    Sums the chordal distances of consecutive samples, the partial sums that
    define curve length; the value is non-decreasing in the resolution and
    converges to the integral of the speed for C^1 curves.

    Raises
    ------
    InvalidCurve
        If a sample fails the projection invariants within eq_tol.
    """
    if curve.resolution < 2:
        raise InvalidInput("resolution must be at least 2")
    ts = np.linspace(0.0, 1.0, curve.resolution)
    qs = _sample_matrices(curve, ts)
    if not np.all(np.isfinite(qs.view(float))):
        raise InvalidCurve("curve sample has non-finite entries")
    # Frobenius residuals bound the operator-norm residuals from above, so
    # this check is conservative; samples near the tolerance are re-examined
    # with the exact norm.
    herm_res = np.linalg.norm(qs - adj(qs), axis=(-2, -1))
    idem_res = np.linalg.norm(qs @ qs - qs, axis=(-2, -1))
    for res in (herm_res, idem_res):
        bad = np.nonzero(res > tol.eq_tol)[0]
        for i in bad:
            q = qs[i]
            if max(op_norm(q - q.conj().T), op_norm(q @ q - q)) > tol.eq_tol:
                raise InvalidCurve(f"sample {i} violates the projection invariants")
    return float(chordal_steps(qs).sum())


def chordal_steps(qs: np.ndarray) -> np.ndarray:
    """Chordal distances between consecutive projections of a stack."""
    sym = herm(qs)
    return np.abs(np.linalg.eigvalsh(sym[1:] - sym[:-1])).max(axis=-1)


def projectivity(g, q: Projection, tol: Tolerance = DEFAULT_TOL) -> Projection:
    """Image of ``q`` under the projectivity of an invertible ``g``.

    Returns the orthogonal projection onto the column space of ``g q``,
    computed from the idempotent ``r = g q g^{-1}`` as
    ``r r* (1 + (r - r*)* (r - r*))^{-1}``; the inverted factor is bounded
    below by 1, so no conditioning assumptions are needed.  For unitary
    ``g`` this reduces to ``g q g*``.
    """
    g = as_matrix(g, square=True)
    if g.shape != q.mat.shape:
        raise InvalidInput("element and projection dimensions differ")
    if _is_singular(g, tol.eq_tol):
        raise NotInvertible("matrix is singular within eq_tol")
    r = g @ q.mat @ np.linalg.inv(g)
    d = r - r.conj().T
    m = np.eye(g.shape[0], dtype=complex) + d.conj().T @ d
    out = np.linalg.solve(m.conj().T, (r @ r.conj().T).conj().T).conj().T
    return Projection(herm(out), tol)


# ---------------------------------------------------------------------------
# curve factories and the batched length engine
# ---------------------------------------------------------------------------


def _side_blocks(p: Projection):
    """Bases (small, big, flipped) with the small side of minimal dimension.

    exp(z) maps ran(p) and its complement into themselves only jointly; the
    cos/sinc blocks are computed over whichever side is smaller.  When the
    kernel side is used, sampled projections are complements.
    """
    if p.rank <= p.dim - p.rank:
        return p.range_basis, p.null_basis, False
    return p.null_basis, p.range_basis, True


def _cos_sinc_blocks(a: np.ndarray):
    """cos and sinc blocks of exp for stacked off-diagonal generators.

    For ``z`` with block ``a`` mapping the small side into the big side,
    the isometry onto the moved small side has top block cos(|a|) and
    bottom block a sinc(|a|), where |a| = (a* a)^(1/2).  ``a`` may be given
    in coordinates of the big side or in the ambient space; the bottom
    block comes out in the same form.
    """
    w, v = np.linalg.eigh(herm(adj(a) @ a))
    s = np.sqrt(np.clip(w, 0.0, None))
    return spectral(v, np.cos(s)), a @ spectral(v, np.sinc(s / np.pi))


def _path_sampler(p: Projection, z_mat: np.ndarray, w_mat: np.ndarray | None) -> Callable:
    """Sampler for t -> exp(z(t)) p exp(-z(t)), z(t) = t z + t (1-t) w."""
    small, big, flipped = _side_blocks(p)
    n = p.dim
    a_z = adj(big) @ z_mat @ small
    a_w = None if w_mat is None else adj(big) @ w_mat @ small

    def sampler(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        a = ts[:, None, None] * a_z
        if a_w is not None:
            a = a + (ts * (1.0 - ts))[:, None, None] * a_w
        top, bot = _cos_sinc_blocks(a)
        cols = small @ top + big @ bot
        qs = cols @ adj(cols)
        if flipped:
            qs = np.eye(n, dtype=complex) - qs
        if np.ndim(t) == 0:
            basis = {} if flipped else {"range_basis": cols[0]}
            return _trusted(Projection, mat=qs[0], rank=p.rank, **basis)
        return qs

    return sampler


def geodesic_curve(p: Projection, z: TangentVector, resolution: int = 2000) -> Curve:
    """The geodesic through ``p`` with velocity ``z`` as a sampled curve.

    Raises ``InvalidTangent`` if ``z`` is not a tangent at ``p``.
    """
    _check_tangent(p, z)
    return Curve(_path_sampler(p, z.mat, None), resolution)


def perturbed_curve(p: Projection, z: TangentVector, w: TangentVector,
                    resolution: int = 2000) -> Curve:
    """The path exp(z(t)) p exp(-z(t)) with z(t) = t z + t (1-t) w.

    Shares the geodesic's endpoints for every perturbation ``w``, which makes
    it the comparison family for minimality checks.  Raises
    ``InvalidTangent`` if ``z`` or ``w`` is not a tangent at ``p``.
    """
    _check_tangent(p, z)
    _check_tangent(p, w)
    return Curve(_path_sampler(p, z.mat, w.mat), resolution)


def tangent_path_lengths(p: Projection, z: TangentVector, ws, resolution: int = 2000):
    """Discretized lengths of the geodesic and its perturbed companions.

    Path ``i`` is ``t -> exp(z_i(t)) p exp(-z_i(t))`` with
    ``z_i(t) = t z + t (1-t) w_i`` on the uniform grid of ``resolution``
    points; the geodesic is the path with ``w = 0``.  The lengths are sums
    of chordal steps, as :func:`curve_length` gives for the sampled curves,
    computed without forming a projection:

    - Span reduction.  On the small side, of dimension k, the generator
      block ``a(t) = t a_z + t (1-t) a_w`` lies in the column span of
      ``[a_z, a_w]``.  The thin QR ``[a_z, a_w] = Q [r_z, r_w]`` of each
      path moves that span into ``min(n-k, 2k)`` coordinates, where the
      moved small side ``[cos|a|; a sinc|a|]`` becomes
      ``[cos|r|; r sinc|r|]`` with ``r(t) = t r_z + t (1-t) r_w``.
    - Sine steps.  A step is ``||C_{j+1} - C_j (C_j* C_{j+1})||``, the sine
      of the largest principal angle between consecutive moved bases,
      computed from the residual itself so that short steps keep their
      relative accuracy.  Each basis is taken in the eigenbasis ``V`` of
      ``a* a``, as ``[V cos(s); a V sinc(s)]``; that spans the same
      subspace as ``[cos|a|; a sinc|a|]``.
    - Closed forms for k <= 2.  The sample axis is last and all per-sample
      algebra is elementwise: at k = 1 every quantity is a scalar, at k = 2
      ``V`` is one Jacobi rotation and the step is the largest eigenvalue
      of a 2 x 2 Hermitian matrix.  No LAPACK call is made per sample.
      For k >= 3 batched ``eigh`` and ``eigvalsh`` do the same work.
    - One path at a time, so that temporaries stay the size of one path.

    Raises
    ------
    InvalidTangent
        If ``z`` or a perturbation is not a tangent at ``p``.

    Returns
    -------
    (float, ndarray)
        Length of the geodesic, then one length per perturbation.
    """
    if resolution < 2:
        raise InvalidInput("resolution must be at least 2")
    for v in (z, *ws):
        _check_tangent(p, v)
    k = min(p.rank, p.dim - p.rank)
    if k == 0:
        return 0.0, np.zeros(len(ws))
    ts = np.linspace(0.0, 1.0, resolution)
    path_steps = _closed_form_steps if k <= 2 else _lapack_steps
    lengths = [path_steps(r_z, r_w, ts).sum() for r_z, r_w in _reduced_blocks(p, z, ws)]
    return float(lengths[0]), np.array(lengths[1:])


def _reduced_blocks(p: Projection, z: TangentVector, ws):
    """Per path, geodesic first, the blocks ``(r_z, r_w)`` of ``a_z`` and
    ``a_w`` in an orthonormal basis of the span of ``[a_z, a_w]``."""
    small, big, _ = _side_blocks(p)
    k = small.shape[1]
    a_z = adj(big) @ z.mat @ small
    for a_w in [np.zeros_like(a_z)] + [adj(big) @ w.mat @ small for w in ws]:
        r = np.linalg.qr(np.concatenate([a_z, a_w], axis=1), mode="r")
        yield r[:, :k], r[:, k:]


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x* y`` for stacks of matrices with the sample axis last."""
    return (x.conj()[:, :, None] * y[:, None, :]).sum(axis=0)


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x y`` for stacks of matrices with the sample axis last."""
    return (x[:, :, None] * y[None]).sum(axis=1)


def _largest_eig_2x2(h: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of stacked 2 x 2 Hermitian matrices."""
    mean, half_gap = (h[0, 0].real + h[1, 1].real) / 2, (h[0, 0].real - h[1, 1].real) / 2
    return mean + np.hypot(half_gap, np.abs(h[0, 1]))


def _closed_form_steps(r_z: np.ndarray, r_w: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Chordal steps along ``r(t) = t r_z + t (1-t) r_w`` for k <= 2, in
    closed form with the sample axis last.

    At k = 2, with ``r* r = [[h00, h01], [conj(h01), h11]]``, the eigenbasis
    is the rotation by ``atan2(|h01|, (h00 - h11) / 2) / 2`` after the phase
    of ``h01`` is taken out (the symmetric Schur decomposition of Golub and
    Van Loan, Matrix Computations, 8.5).
    """
    r = r_z[..., None] * ts + r_w[..., None] * (ts * (1.0 - ts))
    h = _gram(r, r)
    if r.shape[1] == 1:
        s = np.sqrt(h[0, 0].real)
        basis = np.concatenate([np.cos(s)[None, None], r * np.sinc(s / np.pi)])
    else:
        lam = _largest_eig_2x2(h)
        angle = np.arctan2(np.abs(h[0, 1]), (h[0, 0].real - h[1, 1].real) / 2) / 2
        cos, sin, phase = np.cos(angle), np.sin(angle), np.exp(-1j * np.angle(h[0, 1]))
        v = np.array([[cos, -sin], [phase * sin, phase * cos]])
        s = np.sqrt(np.clip([lam, h[0, 0].real + h[1, 1].real - lam], 0.0, None))
        basis = np.concatenate([v * np.cos(s), _times(r, v) * np.sinc(s / np.pi)])
    prev, nxt = basis[..., :-1], basis[..., 1:]
    res = nxt - _times(prev, _gram(prev, nxt))
    g = _gram(res, res)
    return np.sqrt(g[0, 0].real if r.shape[1] == 1 else _largest_eig_2x2(g))


def _lapack_steps(r_z: np.ndarray, r_w: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Chordal steps along ``r(t) = t r_z + t (1-t) r_w`` for any k, from
    batched ``eigh`` and ``eigvalsh``."""
    r = ts[:, None, None] * r_z + (ts * (1.0 - ts))[:, None, None] * r_w
    w, v = np.linalg.eigh(herm(adj(r) @ r))
    s = np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    basis = np.concatenate([v * np.cos(s), (r @ v) * np.sinc(s / np.pi)], axis=-2)
    prev, nxt = basis[:-1], basis[1:]
    res = nxt - prev @ (adj(prev) @ nxt)
    return np.sqrt(np.clip(np.linalg.eigvalsh(adj(res) @ res)[:, -1], 0.0, None))
