"""Chordal and spherical metrics, geodesics and projectivities.

The chordal distance between two points is the operator norm distance of
their range projections.  Below chordal distance 1 the rectifiable metric
has the closed form arcsin of the chordal distance, realized by the unique
geodesic ``t -> exp(t z) p exp(-t z)`` with ``z`` anti-Hermitian and
off-diagonal with respect to ``p``.

A tangent ``z`` exchanges ran(p) with its complement, so ``exp(z)`` has the
classical cos/sinc block structure (Edelman, Arias and Smith, 1998): with
``a = (1-p) z Bp``, ``exp(z) Bp = Bp cos|a| + a sinc|a|``, where
``|a| = (a* a)^(1/2)``.  Geodesic points are computed from these blocks,
without an n x n exponential.

Paths ``exp(z(t))`` with ``z(t) = t z + t (1-t) w`` are taken on the small
side of ``p``, ran(p) or its complement, whichever has the smaller
dimension k, from their two corners (:func:`_corners`).  One engine serves
Grassmann paths, with ``(cos, sinc)``, and the cone paths of
:mod:`grassgeo.disk`, with ``(cosh, sinhc)`` and the indefinite form
``J = diag(1_k, -1)``: the samplers build the moved small side from
:func:`_moved_basis`; the step kernel (:func:`_path_steps`) sums the
polylines that :func:`tangent_path_lengths`, :func:`curve_length` and the
tables report; the speed kernel (:func:`_path_integrals`) integrates the
lengths that the verify minimality properties compare.

The curve engines (the samplers, the step kernel, :func:`curve_length` and
:func:`chordal_steps`) evaluate their samples in blocks of about 2^14
complex entries per stacked operand (:func:`_sample_blocks`), consecutive
blocks sharing one sample, so their memory beyond the output does not grow
with the resolution.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
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
from .linalg import (DEFAULT_TOL, Tolerance, _is_singular, _op_norm, adj, as_matrix, herm, op_norm,
                     spectral)
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
        return _op_norm(self.mat)

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
        _check_resolution(self.resolution)


def _check_resolution(resolution) -> None:
    """Raise ``InvalidInput`` unless ``resolution`` is an integer of at
    least 2; numpy integers count as integers."""
    try:
        resolution = operator.index(resolution)
    except TypeError:
        raise InvalidInput(f"resolution must be an integer, got {resolution!r}") from None
    if resolution < 2:
        raise InvalidInput("resolution must be at least 2")


def random_tangent(p: Projection, rng: np.random.Generator, norm: float = 1.0) -> TangentVector:
    """Random tangent at ``p`` scaled to the requested operator norm."""
    z = random_offdiag_antiherm(p, rng)
    zn = _op_norm(z)
    return _trusted(TangentVector, mat=z * (norm / zn) if zn else np.zeros_like(z), context=p)


def _check_context(m: ProjectivePoint, n: ProjectivePoint, tol: Tolerance):
    """Raise ``InvalidInput`` unless the points share their context: the
    same object, or projections equal within eq_tol."""
    if m.context is n.context:
        return
    if m.range.mat.shape != n.range.mat.shape:
        raise InvalidInput("points live in different ambient dimensions")
    if np.abs(m.context.mat - n.context.mat).max() > tol.eq_tol:
        raise InvalidInput("points have different context projections")


def d_chordal(m: ProjectivePoint, n: ProjectivePoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """Chordal distance: operator norm of the difference ``P - Q`` of range
    projections, the sine of the largest principal angle (Bjorck and Golub,
    1973).

    The points share their rank k, so ``||P - Q|| = ||(1 - P) Q||`` is
    attained on ran(Q): the norm is taken of the n x k block ``(P - Q) Bq``,
    with ``Bq`` the range basis of ``Q``.  The difference itself is formed
    entrywise, so equal points are at distance exactly 0.
    """
    _check_context(m, n, tol)
    q = n.range
    return _op_norm((m.range.mat - q.mat) @ q.range_basis)


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
    """Raise ``InvalidTangent`` unless ``z`` is a tangent at ``p``: at the
    same projection object, or one equal to it within eq_tol."""
    if z.context is p:
        return
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
    a = t * (p.comp @ (z.mat @ bp))
    top, mid = _generator_blocks(a, *_COS_SINC)
    cols = bp @ top + a @ mid
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
    zvec = _trusted(TangentVector, mat=lift - adj(lift), context=p)
    endpoint = geodesic(p, zvec, 1.0, tol)
    if np.abs(endpoint.mat - q.mat).max() > tol.geo_tol:
        raise ResidualError("geodesic log failed to reproduce the endpoint")
    return zvec


def _sample_matrices(curve: Curve, ts: np.ndarray) -> np.ndarray:
    """Evaluate a curve on a parameter grid, tolerating scalar-only samplers."""
    try:
        out = np.asarray(curve.sample(ts))
        if out.ndim == 3 and out.shape[0] == ts.size:
            return np.asarray(out, dtype=complex)
    except Exception:
        pass
    mats = []
    for t in ts:
        q = curve.sample(float(t))
        mats.append(q.mat if isinstance(q, Projection) else np.asarray(q, dtype=complex))
    return np.stack(mats)


def _check_samples(qs: np.ndarray, start: int, tol: Tolerance) -> None:
    """Raise ``InvalidCurve`` at the first sample of the stack ``qs``, sample
    ``start + i`` of its curve, that has a non-finite entry or fails the
    projection invariants within eq_tol."""
    finite = np.isfinite(qs.view(float)).all(axis=(-2, -1))
    stop = int(finite.argmin()) if not finite.all() else len(qs)
    good = qs[:stop]
    # Frobenius residuals bound the operator-norm residuals from above, so
    # this check is conservative; samples near the tolerance are re-examined
    # with the exact norm.
    herm_res = np.linalg.norm(good - adj(good), axis=(-2, -1))
    idem_res = np.linalg.norm(good @ good - good, axis=(-2, -1))
    for i in np.nonzero((herm_res > tol.eq_tol) | (idem_res > tol.eq_tol))[0]:
        q = good[i]
        if max(op_norm(q - q.conj().T), op_norm(q @ q - q)) > tol.eq_tol:
            raise InvalidCurve(f"sample {start + i} violates the projection invariants")
    if stop < len(qs):
        raise InvalidCurve(f"sample {start + stop} has non-finite entries")


def curve_length(curve: Curve, tol: Tolerance = DEFAULT_TOL) -> float:
    """Chordal length of a curve on the uniform grid of ``curve.resolution``.

    Sums the chordal distances of consecutive samples, the partial sums that
    define curve length; the value is non-decreasing in the resolution and
    converges to the integral of the speed for C^1 curves.  The curve is
    sampled one block of samples (:func:`_step_spans`) at a time, each block
    with the last sample of the one before, so memory beyond the steps does
    not grow with the resolution.

    The samplers of :func:`geodesic_curve` and :func:`perturbed_curve`
    build projections by construction, so their samples are not checked.

    Raises
    ------
    InvalidCurve
        If a sample has a non-finite entry or fails the projection
        invariants within eq_tol; the message names the first such sample.
    """
    _check_resolution(curve.resolution)
    ts = np.linspace(0.0, 1.0, curve.resolution)
    entries = _sample_matrices(curve, ts[:1])[0].size
    checked = not getattr(curve.sample, "_projections", False)
    steps = np.empty(ts.size - 1)
    for span, block in _step_spans(ts.size, entries):
        qs = _sample_matrices(curve, ts[span])
        if checked:
            _check_samples(qs, span.start, tol)
        steps[block] = _chordal_distances(qs)
    return float(steps.sum())


def chordal_steps(qs: np.ndarray) -> np.ndarray:
    """Chordal distances between consecutive projections of a stack,
    evaluated one block of samples at a time (:func:`_step_spans`)."""
    steps = np.empty(max(len(qs) - 1, 0))
    for span, block in _step_spans(len(qs), qs.shape[-1] ** 2):
        steps[block] = _chordal_distances(qs[span])
    return steps


def _chordal_distances(qs: np.ndarray) -> np.ndarray:
    sym = herm(qs)
    return np.abs(np.linalg.eigvalsh(sym[1:] - sym[:-1])).max(axis=-1)


# Complex entries per stacked operand in one block of samples; the sweep in
# BENCH_25.json picked it.  The curve engines evaluate their samples one
# block at a time, so their working memory beyond the output is bounded by
# a few operands of this size, whatever the resolution.
_BLOCK_ENTRIES = 1 << 14


def _sample_blocks(count: int, entries: int) -> list:
    """Slices of ``range(count)`` of as many samples as fit
    ``_BLOCK_ENTRIES`` complex entries each, at least one, for stacked
    operands of ``entries`` complex entries per sample."""
    size = max(1, _BLOCK_ENTRIES // max(1, entries))
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _step_spans(count: int, entries: int):
    """Per block of :func:`_sample_blocks` over ``count`` samples, the span
    of the block and the last sample before it, and the slice of the steps
    within that span, which end in the block."""
    for block in _sample_blocks(count, entries):
        start = max(block.start - 1, 0)
        yield slice(start, block.stop), slice(start, block.stop - 1)


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


# the moved-basis functions of a Grassmann tangent, cos s and sin(s) / s,
# and the sign of the inner product on the big side
_COS_SINC = (np.cos, lambda s: np.sinc(s / np.pi))
_GRASSMANN = (*_COS_SINC, 1.0)


def _generator_blocks(a: np.ndarray, f: Callable, g: Callable):
    """``V f(s) V*`` and ``V g(s) V*`` for stacked generator corners ``a``
    with ``a* a = V diag(s^2) V*``, from one batched ``eigh``.

    The exponential of an off-diagonal generator whose corner ``a`` maps
    the small side into the big side moves the small side onto
    ``[f(|a|); a g(|a|)]``: ``(cos, sinc)`` for a Grassmann tangent (Edelman,
    Arias and Smith, 1998), ``(cosh, sinhc)`` for a cone generator.
    """
    w, v = np.linalg.eigh(herm(adj(a) @ a))
    s = np.sqrt(np.clip(w, 0.0, None))
    return spectral(v, f(s)), spectral(v, g(s))


def _corners(p: Projection, z_mat: np.ndarray, w_mats):
    """The corners ``Bb* z Bs`` of ``z`` and of each ``w``, generators
    off-diagonal for ``p``, with ``Bs`` and ``Bb`` the bases of the small and
    the big side (:func:`_side_blocks`): the one input of the path kernels."""
    small, big, _ = _side_blocks(p)
    return adj(big) @ z_mat @ small, [adj(big) @ w @ small for w in w_mats]


def _path_sampler(p: Projection, z_mat: np.ndarray, w_mat: np.ndarray) -> Callable:
    """Sampler for t -> exp(z(t)) p exp(-z(t)), z(t) = t z + t (1-t) w.

    The moved small side is ``Bs M_s + Bb M_b`` for the moved basis
    ``[M_s; M_b]`` of :func:`_moved_basis` on the corners, computed one
    block of samples (:func:`_sample_blocks`) at a time."""
    small, big, flipped = _side_blocks(p)
    n, k = p.dim, small.shape[1]
    a_z, [a_w] = _corners(p, z_mat, [w_mat])

    def sampler(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        qs = np.empty((ts.size, n, n), dtype=complex)
        for block in _sample_blocks(ts.size, n * n):
            moved = _moved_basis(ts[block], a_z, a_w, *_COS_SINC)
            cols = small @ moved[:, :k] + big @ moved[:, k:]
            qs[block] = cols @ adj(cols)
            if flipped:
                qs[block] = np.eye(n, dtype=complex) - qs[block]
        if np.ndim(t) == 0:
            basis = {} if flipped else {"range_basis": cols[0]}
            return _trusted(Projection, mat=qs[0], rank=p.rank, **basis)
        return qs

    sampler._projections = True
    return sampler


def geodesic_curve(p: Projection, z: TangentVector, resolution: int = 2000) -> Curve:
    """The geodesic through ``p`` with velocity ``z`` as a sampled curve.

    Raises ``InvalidTangent`` if ``z`` is not a tangent at ``p``.
    """
    _check_tangent(p, z)
    return Curve(_path_sampler(p, z.mat, np.zeros_like(z.mat)), resolution)


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
    taken without forming a projection by the small-side step kernel
    (:func:`_path_steps`), one path at a time.

    Raises
    ------
    InvalidTangent
        If ``z`` or a perturbation is not a tangent at ``p``.

    Returns
    -------
    (float, ndarray)
        Length of the geodesic, then one length per perturbation.
    """
    _check_resolution(resolution)
    for v in (z, *ws):
        _check_tangent(p, v)
    steps = _path_steps(*_corners(p, z.mat, [w.mat for w in ws]), resolution, _GRASSMANN)
    lengths = [path.sum() for path in steps]
    return float(lengths[0]), np.array(lengths[1:])


def _reduced_blocks(a_z: np.ndarray, a_ws):
    """Per path, geodesic first, the blocks ``(r_z, r_w)`` of the generator
    ``z(t) = t z + t (1-t) w`` from the corners ``a_z`` and ``a_ws`` of
    :func:`_corners`.

    One thin QR per path, ``[a_z, a_w] = Q [r_z, r_w]``, moves the span of
    ``[a_z, a_w]`` into at most 2k coordinates.  At k = 0 both blocks are
    empty.
    """
    k = a_z.shape[1]
    for a_w in [np.zeros_like(a_z), *a_ws]:
        r = np.linalg.qr(np.concatenate([a_z, a_w], axis=1), mode="r")
        yield r[:, :k], r[:, k:]


def _path_steps(a_z: np.ndarray, a_ws, resolution: int, geometry: tuple):
    """Per path, geodesic first, the steps along the moved small side of
    ``exp(z(t))`` for ``z(t) = t z + t (1-t) w`` on the uniform grid of
    ``resolution`` points, from the corners of ``z`` and of each ``w``.

    One kernel, :func:`_interpolated_steps`, serves every k: it takes the
    blocks of :func:`_reduced_blocks` and ``geometry = (f, g, sigma)``.
    """
    ts = np.linspace(0.0, 1.0, resolution)
    for r_z, r_w in _reduced_blocks(a_z, a_ws):
        yield _interpolated_steps(r_z, r_w, ts, *geometry)


def _path_integrals(a_z: np.ndarray, a_ws, geometry: tuple):
    """Per path, geodesic first, the length ``int_0^1 speed dt`` of the moved
    small side of ``exp(z(t))`` for ``z(t) = t z + t (1-t) w``, from the
    corners of ``z`` and of each ``w``: :func:`_speed_integral` of the
    blocks of :func:`_reduced_blocks` with ``geometry = (f, g, sigma)``.  At
    k = 0 every length is 0.
    """
    for r_z, r_w in _reduced_blocks(a_z, a_ws):
        yield _speed_integral(r_z, r_w, *geometry) if r_z.shape[1] else 0.0


# Radii of the Bernstein ellipses over which _interpolation_degree minimises
_ELLIPSES = np.array([1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0, 64.0])


def _interpolation_degree(r_z: np.ndarray, r_w: np.ndarray) -> int:
    """Degree of a Chebyshev interpolant of the moved basis of
    ``r(t) = t r_z + t (1-t) r_w`` on [0, 1] that is exact to 2^-53.

    In ``x = 2t - 1`` the Bernstein ellipse of radius ``rho`` has semi-major
    axis ``c = (rho + 1/rho) / 2``; on it ``|t| <= (1 + c) / 2`` and
    ``|t (1-t)| <= c^2 / 4``, so the moved basis, a column block of the
    exponential of a generator of norm at most ``||r(t)||`` (anti-Hermitian
    for a Grassmann path, Hermitian for a cone path, at real t), is bounded
    by ``M = exp((1 + c)/2 ||r_z|| + c^2/4 ||r_w||)``.  The
    interpolant of degree ``deg`` then errs by at most
    ``4 M rho^-deg / (rho - 1)`` (Trefethen, Approximation Theory and
    Approximation Practice, 2013, Thm 8.2); the degree is the smallest that
    brings this to 2^-53 on the best of a fixed set of ellipses.
    """
    rho = _ELLIPSES
    c = (rho + 1 / rho) / 2
    log_m = (1 + c) / 2 * _op_norm(r_z) + c * c / 4 * _op_norm(r_w)
    deg = (np.log(4 / (rho - 1)) + log_m + 53 * np.log(2)) / np.log(rho)
    return int(np.ceil(deg.min()))


def _angles(ts: np.ndarray) -> np.ndarray:
    """The angles ``theta`` in [0, pi] with ``t = cos^2(theta / 2)``."""
    return 2 * np.arctan2(np.sqrt(1.0 - ts), np.sqrt(ts))


def _moved_basis(ts: np.ndarray, r_z: np.ndarray, r_w: np.ndarray,
                 f: Callable, g: Callable) -> np.ndarray:
    """The moved basis ``[f(|r|); r g(|r|)]`` of ``r(t) = t r_z + t (1-t) r_w``
    at the times ``ts``, from :func:`_generator_blocks` in canonical form
    ``V f(s) V*``, an entire function of t."""
    r = ts[:, None, None] * r_z + (ts * (1.0 - ts))[:, None, None] * r_w
    top, mid = _generator_blocks(r, f, g)
    return np.concatenate([top, r @ mid], axis=-2)


def _chebyshev_coefficients(r_z: np.ndarray, r_w: np.ndarray, deg: int,
                            f: Callable, g: Callable) -> np.ndarray:
    """Chebyshev coefficients of degree ``deg`` of the moved basis of
    ``r(t) = t r_z + t (1-t) r_w``, one row per degree over the real and
    imaginary parts of its entries.

    The basis is computed at the Chebyshev-Lobatto nodes
    ``t_j = cos^2(j pi / (2 deg))`` on [0, 1], j = 0..deg.  With
    ``t = cos^2(theta / 2)`` the interpolant is ``sum_l c_l cos(l theta)``,
    its coefficients the discrete cosine transform of the node values.

    The rows are padded with zero columns to a multiple of 8, which
    :func:`_interpolate` drops: OpenBLAS's dgemm rounds the last
    ``width mod 8`` columns of a product differently for different numbers
    of rows, which would make the interpolated steps depend on the block
    of samples.
    """
    order = np.arange(deg + 1)
    coef = np.cos(np.outer(order, order) * (np.pi / deg)) * (2.0 / deg)
    coef[:, [0, -1]] /= 2
    coef[[0, -1]] /= 2
    basis = _moved_basis(np.cos(order * (np.pi / (2 * deg))) ** 2, r_z, r_w, f, g)
    values = coef @ basis.reshape(deg + 1, -1).view(float)
    return np.pad(values, ((0, 0), (0, -values.shape[1] % 8)))


def _interpolate(rows: np.ndarray, coef: np.ndarray, shape: tuple) -> np.ndarray:
    """The stacked moved bases of ``shape`` that ``rows`` map the padded
    Chebyshev coefficients ``coef`` to.

    A single row is multiplied as a pair: numpy hands a one-row product to
    gemv, whose rounding differs from the gemm that takes longer blocks.
    """
    count = len(rows)
    out = (rows if count != 1 else np.repeat(rows, 2, axis=0)) @ coef
    return out[:count, :2 * shape[0] * shape[1]].view(complex).reshape(count, *shape)


def _chebyshev_rows(deg: int, ts: np.ndarray):
    """The rows mapping Chebyshev coefficients of degree ``deg`` (see
    :func:`_chebyshev_coefficients`) to the interpolant at ``ts[:-1]`` and
    to its differences between consecutive samples.

    The difference rows use
    ``cos(l b) - cos(l a) = -2 sin(l (a+b)/2) sin(l (b-a)/2)``, so that short
    steps do not cancel.
    """
    order = np.arange(deg + 1)
    theta = _angles(ts)
    mid, half = (theta[1:] + theta[:-1]) / 2, (theta[1:] - theta[:-1]) / 2
    at = np.cos(np.outer(theta[:-1], order))
    diff = -2 * np.sin(np.outer(mid, order)) * np.sin(np.outer(half, order))
    return at, diff


def _largest_eig_2x2(h: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of stacked 2 x 2 Hermitian matrices."""
    mean, half_gap = (h[0, 0].real + h[1, 1].real) / 2, (h[0, 0].real - h[1, 1].real) / 2
    return mean + np.hypot(half_gap, np.abs(h[0, 1]))


def _residual_norms(c: np.ndarray, d: np.ndarray, k: int, sigma: float) -> np.ndarray:
    """Square roots of the largest eigenvalues of ``sigma res* J res`` for
    ``res = d - c (c* J d)``, with ``J = diag(1_k, sigma)``, for stacked
    moved bases ``c`` and their differences or derivatives ``d``.  For
    Grassmann paths (``sigma = +1``) this is ``||(1 - c c*) d||``.  At
    k <= 2 the eigenvalue is taken in closed form."""
    form = np.where(np.arange(c.shape[-2]) < k, 1.0, sigma)
    res = d - c @ (_adj_scaled(c, form) @ d)
    gram = _adj_scaled(res, sigma * form) @ res
    if k <= 2:
        h = np.moveaxis(gram, 0, -1)
        top = h[0, 0].real if k == 1 else _largest_eig_2x2(h)
    else:
        top = np.linalg.eigvalsh(gram)[:, -1]
    return np.sqrt(np.clip(top, 0.0, None))


def _interpolated_steps(r_z: np.ndarray, r_w: np.ndarray, ts: np.ndarray,
                        f: Callable, g: Callable, sigma: float) -> np.ndarray:
    """Steps along the moved basis ``[f(|r|); r g(|r|)]`` of
    ``r(t) = t r_z + t (1-t) r_w`` for any k; the form on the big side has
    sign ``sigma``.

    The moved basis is computed at ``deg + 1`` Chebyshev nodes, with
    ``deg`` from :func:`_interpolation_degree`, and interpolated to the
    samples, or at the N samples themselves where that is cheaper.  In
    units of the direct route's work at one sample, each node costs about
    2 and the interpolation rows ``N (deg + 1) / (20 k)``; the constants
    are fitted to per-path timings on one core at k = 3 to 32 and 20 to
    2000 samples, erring towards the direct route.  Each step is the
    square root of the largest eigenvalue of ``sigma res* J res`` for
    ``res = D - C (C* J D)``, with ``C`` the moved basis at a sample, ``D``
    the difference to the next one and ``J = diag(1_k, sigma)``.  The route
    is decided on all N samples; either route then runs one block of
    samples (:func:`_step_spans`) at a time.

    The moved basis is interpolated in its canonical form ``V f(s) V*``;
    the eigenvector form ``[V f(s); r V g(s)]`` changes phase and column
    order from one t to the next and cannot be interpolated.  A stationary
    path, with ``r_z`` and ``r_w`` zero (or empty at k = 0), has steps of
    exactly 0.
    """
    if not (r_z.any() or r_w.any()):
        return np.zeros(ts.size - 1)
    k = r_z.shape[1]
    deg = _interpolation_degree(r_z, r_w)
    direct = (deg + 1) * (2 / ts.size + 1 / (20 * k)) >= 1
    coef = None if direct else _chebyshev_coefficients(r_z, r_w, deg, f, g)
    shape = (len(r_z) + k, k)
    steps = np.empty(ts.size - 1)
    for span, block in _step_spans(ts.size, r_z.size + k * k):
        if direct:
            basis = _moved_basis(ts[span], r_z, r_w, f, g)
            prev, delta = basis[:-1], np.diff(basis, axis=0)
        else:
            prev, delta = (_interpolate(rows, coef, shape)
                           for rows in _chebyshev_rows(deg, ts[span]))
        steps[block] = _residual_norms(prev, delta, k, sigma)
    return steps


# Gauss-Legendre node counts of _speed_integral: an estimate and its check
_NODE_COUNTS = (64, 128)
# the shortest piece of [0, 1] that _speed_integral bisects down to
_MIN_PIECE = 2.0 ** -16


@cache
def _gauss_legendre(count: int):
    """Nodes and weights of the ``count``-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(count)
    return (x + 1) / 2, w / 2


def _speed_rows(ts: np.ndarray, size: int):
    """The rows mapping Chebyshev coefficients of degree below ``size`` (see
    :func:`_chebyshev_coefficients`) to the interpolant at ``ts`` and to its
    derivative in t there: at ``t = cos^2(theta / 2)``, ``cos(l theta)`` has
    the derivative ``l sin(l theta) 2 / sin(theta)``."""
    theta, order = _angles(ts), np.arange(size)
    at = np.cos(np.outer(theta, order))
    rate = np.sin(np.outer(theta, order)) * (order * (2 / np.sin(theta))[:, None])
    return at, rate


@lru_cache(maxsize=8)
def _unit_rows(count: int, size: int):
    """:func:`_speed_rows` at the nodes of the ``count``-point rule on
    [0, 1], read-only."""
    rows = _speed_rows(_gauss_legendre(count)[0], size)
    for m in rows:
        m.flags.writeable = False
    return rows


def _speed_integral(r_z: np.ndarray, r_w: np.ndarray,
                    f: Callable, g: Callable, sigma: float) -> float:
    """The length ``int_0^1 speed dt`` along the moved basis
    ``C(t) = [f(|r|); r g(|r|)]`` of ``r(t) = t r_z + t (1-t) r_w`` for
    k >= 1; the form on the big side has sign ``sigma``.

    ``C`` and its derivative ``C'`` are interpolated from the Chebyshev
    coefficients that the step kernel uses (:func:`_speed_rows`).  The
    speed is the step kernel's residual norm with the derivative for the
    difference, the square root of the largest eigenvalue of
    ``sigma res* J res`` for ``res = C' - C (C* J C')``; for a Grassmann
    path, ``||(1 - C C*) C'||``, the norm of the derivative of ``C C*``.

    Gauss-Legendre rules of 64 and 128 nodes integrate it over [0, 1].
    Where they differ by more than ``1e-12 max(1, L)``, the interval is
    bisected, and each piece is accepted once its two estimates agree
    within its share of that bound.  Near-crossings of the top singular
    value of ``res`` make the speed nearly kinked, and only the pieces
    around them are refined.

    Raises
    ------
    ResidualError
        If a piece of length ``2^-16`` still fails the test: the speed has
        a kink, as where the path turns back on itself.
    """
    k = r_z.shape[1]
    deg = _interpolation_degree(r_z, r_w)
    coef = _chebyshev_coefficients(r_z, r_w, deg, f, g)
    shape = (len(r_z) + k, k)
    size = 1 << max(6, deg.bit_length())

    def estimates(a, b):
        out = []
        for count in _NODE_COUNTS:
            nodes, weights = _gauss_legendre(count)
            rows = (_unit_rows(count, size) if (a, b) == (0.0, 1.0)
                    else _speed_rows(a + (b - a) * nodes, size))
            basis, velocity = (_interpolate(m[:, :deg + 1], coef, shape) for m in rows)
            out.append((b - a) * float(weights @ _residual_norms(basis, velocity, k, sigma)))
        return out

    def integral(a, b, coarse, fine):
        if abs(fine - coarse) <= tol * (b - a):
            return fine
        if b - a <= _MIN_PIECE:
            raise ResidualError(f"path length did not converge on [{a}, {b}]")
        mid = (a + b) / 2
        return integral(a, mid, *estimates(a, mid)) + integral(mid, b, *estimates(mid, b))

    coarse, fine = estimates(0.0, 1.0)
    tol = 1e-12 * max(1.0, fine)
    return integral(0.0, 1.0, coarse, fine)


def _adj_scaled(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``adj(diag(d) x)`` for stacked ``x`` and real ``d`` over its rows, in
    the one pass over ``x`` that ``adj`` alone takes: the real and
    imaginary parts are scaled by ``d`` and ``-d``."""
    signs = np.outer(d, np.tile([1.0, -1.0], x.shape[-1]))
    return np.swapaxes((x.view(float) * signs).view(complex), -1, -2)
