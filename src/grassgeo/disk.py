"""The hyperbolic disk of the projective space.

The symmetry ``eps = 2p - 1`` turns the ambient space into an indefinite
inner product space; the matrices preserving that form (eps-unitaries) act
on the projective space, and the orbit of ``[p]`` is an open disk of chart
radius 1.  Positive definite eps-unitaries form a cone parametrized by
``exp`` of the off-diagonal Hermitian corner, and the map
``lam -> [sqrt(lam) p]`` identifies the cone with the disk.  The disk
carries the pseudo-chordal and non-Euclidean metrics; the latter is half
the geodesic metric of the cone.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    InvalidInput,
    NotEpsUnitary,
    NotFinitePoint,
    NotInDisk,
    NotPositive,
)
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, herm, op_norm, psd_sqrt
from .moebius import HpVector, chart_inv, random_hp_vector
from .projective import Projection, ProjectivePoint, classify
from .grassmann import d_chordal

__all__ = [
    "EpsSymmetry",
    "EpsUnitary",
    "PositiveEpsUnitary",
    "DiskPoint",
    "is_eps_unitary",
    "random_pos_eps_unitary",
    "random_eps_unitary",
    "cone_to_disk",
    "disk_to_cone",
    "to_disk_point",
    "base_disk_point",
    "rho",
    "d_pseudo_chordal",
    "d_non_euclidean",
    "d_cone",
    "eps_geodesic",
    "eps_geodesic_samples",
    "cone_polyline_steps",
    "cone_polyline_length",
    "cone_perturbed_path",
    "eps_action",
    "in_disk",
]


class EpsSymmetry:
    """The selfadjoint symmetry 2p - 1 attached to a projection."""

    def __init__(self, context: Projection):
        self.context = context
        self.mat = 2 * context.mat - np.eye(context.dim, dtype=complex)

    def __repr__(self):
        return f"EpsSymmetry(dim={self.context.dim}, rank={self.context.rank})"


def is_eps_unitary(u, p: Projection, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``u* eps u = eps`` within eq_tol, for eps = 2p - 1.

    A matrix passing this test is invertible with inverse ``eps u* eps``.
    """
    u = as_matrix(u, square=True)
    if u.shape != p.mat.shape:
        raise InvalidInput("matrix and projection dimensions differ")
    eps = 2 * p.mat - np.eye(p.dim, dtype=complex)
    return float(np.abs(u.conj().T @ eps @ u - eps).max()) <= tol.eq_tol


class EpsUnitary:
    """A matrix preserving the indefinite form of ``eps = 2p - 1``."""

    def __init__(self, mat, context: Projection, tol: Tolerance = DEFAULT_TOL):
        mat = as_matrix(mat, square=True)
        if not is_eps_unitary(mat, context, tol):
            raise NotEpsUnitary("matrix does not preserve the indefinite form")
        self.mat = mat
        self.context = context


class PositiveEpsUnitary:
    """Positive definite eps-unitary: a point of the hyperbolic cone.

    Every such matrix is ``exp(X)`` for a unique Hermitian ``X`` that is
    off-diagonal with respect to ``p``; the corner part ``x = (1-p) X p`` is
    stored as ``xparam``.
    """

    def __init__(self, mat, context: Projection, tol: Tolerance = DEFAULT_TOL):
        mat = as_matrix(mat, square=True)
        if mat.shape != context.mat.shape:
            raise InvalidInput("matrix and context dimensions differ")
        if np.abs(mat - mat.conj().T).max() > tol.eq_tol:
            raise NotPositive("cone elements must be Hermitian")
        w, v = np.linalg.eigh(herm(mat))
        if w.min() <= tol.eq_tol:
            raise NotPositive("cone elements must be positive definite")
        if not is_eps_unitary(mat, context, tol):
            raise NotEpsUnitary("matrix does not preserve the indefinite form")
        self.mat = mat
        self.context = context
        self._w = w
        self._v = v
        p = context.mat
        pc = np.eye(context.dim, dtype=complex) - p
        x_log = herm((v * np.log(w)) @ v.conj().T)
        diag_residual = max(np.abs(p @ x_log @ p).max(), np.abs(pc @ x_log @ pc).max())
        if diag_residual > tol.geo_tol:
            raise NotEpsUnitary("log of the matrix is not off-diagonal for p")
        self.xparam = HpVector(pc @ x_log @ p, context, tol)

    @classmethod
    def from_xparam(cls, x: HpVector, tol: Tolerance = DEFAULT_TOL) -> "PositiveEpsUnitary":
        """exp(x + x*) for a corner parameter ``x``."""
        big_x = x.mat + x.mat.conj().T
        return cls(linalg.expm(big_x), x.context, tol)

    @cached_property
    def sqrt(self) -> np.ndarray:
        return herm((self._v * np.sqrt(self._w)) @ self._v.conj().T)

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        return herm((self._v / np.sqrt(self._w)) @ self._v.conj().T)

    def power(self, t: float) -> "PositiveEpsUnitary":
        """Real power through the spectrum; stays in the cone."""
        out = herm((self._v * self._w ** float(t)) @ self._v.conj().T)
        return PositiveEpsUnitary(out, self.context)

    def __repr__(self):
        return f"PositiveEpsUnitary(dim={self.context.dim}, xnorm={self.xparam.norm:.6g})"


class DiskPoint:
    """A disk point together with its cone preimage.

    Caching the preimage makes it the canonical coordinate: every metric is
    computed from the positive square-root representatives.  ``validate``
    may be switched off where the pair is consistent by construction (the
    cone-to-disk direction computes the point from the preimage itself).
    """

    def __init__(self, point: ProjectivePoint, lam: PositiveEpsUnitary,
                 tol: Tolerance = DEFAULT_TOL, validate: bool = True):
        if point.context.mat.shape != lam.context.mat.shape:
            raise InvalidInput("point and cone element dimensions differ")
        if validate:
            image = classify(lam.sqrt @ point.context.mat, point.context, tol)
            if d_chordal(image, point, tol) > tol.geo_tol:
                raise InvalidInput("cone element does not map to the given point")
            coord = chart_inv(point, tol)
            if coord.norm >= 1.0 - tol.eq_tol:
                raise NotInDisk("point lies outside the chart ball of radius 1")
        self.point = point
        self.lam = lam

    @property
    def context(self) -> Projection:
        return self.point.context

    def __repr__(self):
        return f"DiskPoint(dim={self.context.dim}, rank={self.context.rank})"


def random_pos_eps_unitary(p: Projection, scale: float, seed: int,
                           tol: Tolerance = DEFAULT_TOL) -> PositiveEpsUnitary:
    """Random cone element exp(x + x*) with corner norm at most ``scale``."""
    if not scale > 0:
        raise InvalidInput("scale must be positive")
    rng = np.random.default_rng(seed)
    magnitude = scale * (1.0 - rng.uniform())
    x = random_hp_vector(p, rng, norm=magnitude)
    return PositiveEpsUnitary.from_xparam(x, tol)


def random_eps_unitary(p: Projection, rng: np.random.Generator, scale: float = 0.7,
                       tol: Tolerance = DEFAULT_TOL) -> EpsUnitary:
    """Random eps-unitary as positive part times a p-commuting unitary.

    Every eps-unitary factors this way through its polar decomposition, so
    the construction reaches the whole group.
    """
    x = random_hp_vector(p, rng, norm=scale * rng.uniform())
    pos = linalg.expm(x.mat + x.mat.conj().T)
    r = p.rank
    b, bc = p.range_basis, p.null_basis
    w = np.zeros_like(p.mat)
    if r > 0:
        w += b @ linalg.random_unitary(r, rng) @ b.conj().T
    if p.dim - r > 0:
        w += bc @ linalg.random_unitary(p.dim - r, rng) @ bc.conj().T
    return EpsUnitary(pos @ w, p, tol)


def cone_to_disk(lam: PositiveEpsUnitary, tol: Tolerance = DEFAULT_TOL) -> DiskPoint:
    """The disk point ``[sqrt(lam) p]`` of a cone element."""
    p = lam.context
    point = classify(lam.sqrt @ p.mat, p, tol)
    return DiskPoint(point, lam, tol, validate=False)


def disk_to_cone(m, tol: Tolerance = DEFAULT_TOL) -> PositiveEpsUnitary:
    """The cone preimage of a disk point, recomputed from its representative.

    With chart coordinate ``c`` the square root of the preimage is
    assembled from ``d = c (p - c* c)^{-1/2}`` as the positive block matrix
    with corners ``(p + d* d)^{1/2}`` and ``(1 - p + d d*)^{1/2}``.

    Raises
    ------
    NotInDisk
        If the point is not finite or its chart norm reaches 1.
    """
    point = m.point if isinstance(m, DiskPoint) else m
    p = point.context
    try:
        c = chart_inv(point, tol)
    except NotFinitePoint as exc:
        raise NotInDisk("point is not finite, hence outside the disk") from exc
    if p.rank == 0:
        return PositiveEpsUnitary(np.eye(p.dim, dtype=complex), p, tol)
    b = p.range_basis
    bc = p.null_basis
    cc = herm(b.conj().T @ (c.mat.conj().T @ c.mat) @ b)
    w, v = np.linalg.eigh(cc)
    if w.max() >= 1.0 - tol.eq_tol:
        raise NotInDisk("chart norm of the point reaches 1")
    inv_sqrt = (v / np.sqrt(1.0 - w)) @ v.conj().T
    d = c.mat @ b @ inv_sqrt @ b.conj().T
    # the corner square roots are taken inside their corners, where the
    # spectra are bounded below by 1; a full-matrix psd sqrt would turn
    # kernel-block rounding noise into sqrt-scale errors
    corner_p = herm(np.eye(p.rank) + b.conj().T @ (d.conj().T @ d) @ b)
    corner_c = herm(np.eye(p.dim - p.rank) + bc.conj().T @ (d @ d.conj().T) @ bc)
    root = (b @ psd_sqrt(corner_p) @ b.conj().T + d + d.conj().T
            + bc @ psd_sqrt(corner_c) @ bc.conj().T)
    return PositiveEpsUnitary(herm(root @ root), p, tol)


def to_disk_point(point: ProjectivePoint, tol: Tolerance = DEFAULT_TOL) -> DiskPoint:
    """Attach the cone preimage to a raw projective point."""
    return DiskPoint(point, disk_to_cone(point, tol), tol)


def base_disk_point(p: Projection, tol: Tolerance = DEFAULT_TOL) -> DiskPoint:
    """The center ``[p]`` of the disk, with identity preimage."""
    lam = PositiveEpsUnitary(np.eye(p.dim, dtype=complex), p, tol)
    return DiskPoint(classify(p.mat, p, tol), lam, tol)


def _check_pair(m: DiskPoint, n: DiskPoint, tol: Tolerance):
    if np.abs(m.context.mat - n.context.mat).max() > tol.eq_tol:
        raise InvalidInput("disk points have different context projections")


def rho(m: DiskPoint, n: DiskPoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """The corner pairing ``|| (1-p) u* eps v p ||`` of the square-root
    representatives; the hyperbolic sine scale of the separation."""
    _check_pair(m, n, tol)
    p = m.context
    eps = 2 * p.mat - np.eye(p.dim, dtype=complex)
    pc = np.eye(p.dim, dtype=complex) - p.mat
    return op_norm(pc @ m.lam.sqrt.conj().T @ eps @ n.lam.sqrt @ p.mat)


def d_pseudo_chordal(m: DiskPoint, n: DiskPoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """Pseudo-chordal distance rho / sqrt(1 + rho^2), in [0, 1)."""
    r = rho(m, n, tol)
    return r / float(np.hypot(1.0, r))


def d_non_euclidean(m: DiskPoint, n: DiskPoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """Non-Euclidean distance artanh of the pseudo-chordal distance.

    Equals half the cone geodesic distance of the preimages.
    """
    return float(np.arctanh(d_pseudo_chordal(m, n, tol)))


def d_cone(m, n, tol: Tolerance = DEFAULT_TOL) -> float:
    """Geodesic distance of the positive cone: || log(nu^{-1/2} mu nu^{-1/2}) ||.

    Accepts disk points (through their preimages) or cone elements.
    """
    mu = m.lam if isinstance(m, DiskPoint) else m
    nu = n.lam if isinstance(n, DiskPoint) else n
    a = herm(nu.inv_sqrt @ mu.mat @ nu.inv_sqrt)
    w = np.linalg.eigvalsh(a)
    return float(np.abs(np.log(w)).max())


def eps_geodesic(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary, t: float,
                 tol: Tolerance = DEFAULT_TOL) -> PositiveEpsUnitary:
    """The cone geodesic ``nu^{1/2} (nu^{-1/2} mu nu^{-1/2})^t nu^{1/2}``.

    Runs from ``nu`` at t = 0 to ``mu`` at t = 1 and stays inside the cone
    for every real t; the cone distance grows linearly in t along it.
    """
    a = herm(nu.inv_sqrt @ mu.mat @ nu.inv_sqrt)
    w, v = np.linalg.eigh(a)
    inner = (v * w ** float(t)) @ v.conj().T
    return PositiveEpsUnitary(herm(nu.sqrt @ inner @ nu.sqrt), mu.context, tol)


def eps_geodesic_samples(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary,
                         ts: np.ndarray) -> np.ndarray:
    """Stack of cone geodesic samples for a whole parameter grid."""
    a = herm(nu.inv_sqrt @ mu.mat @ nu.inv_sqrt)
    w, v = np.linalg.eigh(a)
    ts = np.asarray(ts, dtype=float)
    powers = w[None, :] ** ts[:, None]
    inner = (v[None, :, :] * powers[:, None, :]) @ v.conj().T
    out = nu.sqrt[None] @ inner @ nu.sqrt[None]
    return (out + out.conj().swapaxes(-1, -2)) / 2


def cone_polyline_steps(lams: np.ndarray) -> np.ndarray:
    """Cone distances between consecutive positive matrices of a stack."""
    lams = np.asarray(lams, dtype=complex)
    w, v = np.linalg.eigh((lams + lams.conj().swapaxes(-1, -2)) / 2)
    if w.min() <= 0.0:
        raise NotPositive("polyline samples must be positive definite")
    inv_sqrt = (v / np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    mid = inv_sqrt[1:] @ lams[:-1] @ inv_sqrt[1:]
    ev = np.linalg.eigvalsh((mid + mid.conj().swapaxes(-1, -2)) / 2)
    return np.abs(np.log(ev)).max(axis=-1)


def cone_polyline_length(lams: np.ndarray) -> float:
    """Sum of cone distances between consecutive positive matrices."""
    return float(cone_polyline_steps(lams).sum())


def cone_perturbed_path(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary,
                        h: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """A cone path with the geodesic's endpoints, perturbed by ``t(1-t) h``.

    The raw perturbation ``gamma(t) exp(t(1-t) h)`` leaves the cone, so each
    sample is re-projected in two steps: the positive part of its polar
    decomposition restores positivity, and dropping the diagonal blocks of
    the logarithm restores the indefinite-isometry constraint (the cone is
    exactly ``exp`` of the off-diagonal Hermitian corner).
    """
    p = mu.context
    ts = np.asarray(ts, dtype=float)
    gam = eps_geodesic_samples(mu, nu, ts)
    hw, hv = np.linalg.eigh(herm(np.asarray(h, dtype=complex)))
    s = ts * (1.0 - ts)
    factor = (hv[None, :, :] * np.exp(s[:, None] * hw[None, :])[:, None, :]) @ hv.conj().T
    c = gam @ factor
    gram = c.conj().swapaxes(-1, -2) @ c
    w, v = np.linalg.eigh((gram + gram.conj().swapaxes(-1, -2)) / 2)
    logs = (v * np.log(w)[..., None, :] / 2) @ v.conj().swapaxes(-1, -2)
    logs = (logs + logs.conj().swapaxes(-1, -2)) / 2
    pm = p.mat[None]
    pcm = np.eye(p.dim, dtype=complex)[None] - pm
    off = logs - pm @ logs @ pm - pcm @ logs @ pcm
    ow, ov = np.linalg.eigh((off + off.conj().swapaxes(-1, -2)) / 2)
    out = (ov * np.exp(ow)[..., None, :]) @ ov.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2


def eps_action(u, m: DiskPoint, tol: Tolerance = DEFAULT_TOL) -> DiskPoint:
    """Action of an eps-unitary on the disk: the image of ``lam`` is
    ``u lam u*``, congruence in the cone.

    Raises
    ------
    NotEpsUnitary
        If ``u`` fails the form-preservation test.
    """
    u_mat = u.mat if isinstance(u, EpsUnitary) else as_matrix(u, square=True)
    if not is_eps_unitary(u_mat, m.context, tol):
        raise NotEpsUnitary("matrix does not preserve the indefinite form")
    moved = herm(u_mat @ m.lam.mat @ u_mat.conj().T)
    return cone_to_disk(PositiveEpsUnitary(moved, m.context, tol), tol)


def in_disk(m: ProjectivePoint, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Disk membership: the point is finite with chart norm below 1.

    Equivalent characterizations (chordal distance to ``[p]`` below
    sqrt(2)/2, spherical distance below pi/4) are exercised in the test
    suite; this predicate uses the chart norm.
    """
    try:
        coord = chart_inv(m, tol)
    except NotFinitePoint:
        return False
    return coord.norm < 1.0 - tol.eq_tol
