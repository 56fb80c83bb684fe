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
the smaller of the two subspaces to sample long paths in closed form.
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


def geodesic(p: Projection, z: TangentVector, t: float, tol: Tolerance = DEFAULT_TOL) -> Projection:
    """Point of the geodesic through ``p`` with velocity ``z`` at time ``t``.

    The range basis of the result is the moved basis
    ``exp(tz) Bp = Bp cos|a| + a sinc|a|`` with ``a = t (1-p) z Bp``,
    computed from the cos/sinc blocks over ran(p).
    """
    if np.abs(z.context.mat - p.mat).max() > tol.eq_tol:
        raise InvalidTangent("tangent context differs from the base projection")
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
    """The geodesic through ``p`` with velocity ``z`` as a sampled curve."""
    return Curve(_path_sampler(p, z.mat, None), resolution)


def perturbed_curve(p: Projection, z: TangentVector, w: TangentVector,
                    resolution: int = 2000) -> Curve:
    """The path exp(z(t)) p exp(-z(t)) with z(t) = t z + t (1-t) w.

    Shares the geodesic's endpoints for every perturbation ``w``, which makes
    it the comparison family for minimality checks.
    """
    return Curve(_path_sampler(p, z.mat, w.mat), resolution)


def tangent_path_lengths(p: Projection, z: TangentVector, ws, resolution: int = 2000):
    """Discretized lengths of the geodesic and its perturbed companions.

    Vectorizes the whole family ``z(t) = t z + t (1-t) w`` over all
    perturbations at once; consecutive chordal distances are obtained from
    principal angles, ``d = sqrt(1 - sigma_min(C_j* C_{j+1})^2)``, without
    forming the ambient projections.

    Returns
    -------
    (float, ndarray)
        Length of the geodesic, then one length per perturbation.
    """
    if resolution < 2:
        raise InvalidInput("resolution must be at least 2")
    small, big, _ = _side_blocks(p)
    k = small.shape[1]
    n_paths = len(ws)
    if k == 0:
        return 0.0, np.zeros(n_paths)
    ts = np.linspace(0.0, 1.0, resolution)
    a_z = adj(big) @ z.mat @ small
    blocks = [np.zeros_like(a_z)] + [adj(big) @ w.mat @ small for w in ws]
    a_ws = np.stack(blocks)
    a = ts[None, :, None, None] * a_z + (ts * (1.0 - ts))[None, :, None, None] * a_ws[:, None]
    flat = a.reshape(-1, *a.shape[2:])
    top, bot = _cos_sinc_blocks(flat)
    top = top.reshape(n_paths + 1, resolution, k, k)
    bot = bot.reshape(n_paths + 1, resolution, big.shape[1], k)
    g = adj(top[:, :-1]) @ top[:, 1:] + adj(bot[:, :-1]) @ bot[:, 1:]
    gram = adj(g) @ g
    smin2 = np.clip(np.linalg.eigvalsh(gram)[..., 0], 0.0, 1.0)
    lengths = np.sqrt(1.0 - smin2).sum(axis=1)
    return float(lengths[0]), lengths[1:]
