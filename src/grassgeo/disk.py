"""The hyperbolic disk of the projective space.

The symmetry ``eps = 2p - 1`` turns the ambient space into an indefinite
inner product space; the matrices preserving that form (eps-unitaries) act
on the projective space, and the orbit of ``[p]`` is an open disk of chart
radius 1.  Positive definite eps-unitaries form a cone parametrized by
``exp`` of the off-diagonal Hermitian corner, and the map
``lam -> [sqrt(lam) p]`` identifies the cone with the disk.  The disk
carries the pseudo-chordal and non-Euclidean metrics; the latter is half
the geodesic metric of the cone.

Cone curves are built from their generator.  Congruence by ``nu^{-1/2}``
is a cone isometry, so ``L = log(nu^{-1/2} mu nu^{-1/2})`` is off-diagonal
and the geodesic from ``nu`` to ``mu`` is ``nu^{1/2} exp(tL) nu^{1/2}``
(Bhatia, *Positive Definite Matrices*, 2007, ch. 6).  Geodesic samples
take one product each from the eigenbasis of ``nu^{-1/2} mu nu^{-1/2}``,
and their disk points one thin QR each.  Perturbed paths, and the lengths
that the package measures for itself (``_cone_path_steps`` and
``_cone_path_integrals``), go through the Grassmann engine on the small
side with cosh/sinhc and the indefinite form, from the corners of ``L/2``
and of the perturbation (``_cone_corners``).
:func:`cone_polyline_steps` measures stacks that callers supply, with one
Cholesky factor per sample.  The samplers and :func:`cone_polyline_steps`
run in the blocks of samples of the Grassmann engines
(``grassmann._sample_blocks``), so their memory beyond the output does not
grow with the number of samples.

Cone elements built from a generator (``from_xparam``, ``power``) and the
disk points built from them skip the constructors' checks; results read
back from a computed matrix (``eps_geodesic``, ``eps_action``) keep them.
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
from .linalg import DEFAULT_TOL, Tolerance, _op_norm, adj, as_matrix, herm, spectral
from .moebius import HpVector, chart_inv, random_hp_vector
from .projective import Projection, ProjectivePoint, _trusted, classify
from .grassmann import (_check_context, _moved_basis, _path_integrals, _path_steps, _sample_blocks,
                        _side_blocks, _step_spans, d_chordal)

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
    """The selfadjoint symmetry 2p - 1 attached to a projection; ``mat`` is
    the projection's cached ``eps``."""

    def __init__(self, context: Projection):
        self.context = context
        self.mat = context.eps

    def __repr__(self):
        return f"EpsSymmetry(dim={self.context.dim}, rank={self.context.rank})"


def is_eps_unitary(u, p: Projection, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``u* eps u = eps`` within eq_tol, for eps = 2p - 1.

    A matrix passing this test is invertible with inverse ``eps u* eps``.
    """
    u = as_matrix(u, square=True)
    if u.shape != p.mat.shape:
        raise InvalidInput("matrix and projection dimensions differ")
    return float(np.abs(u.conj().T @ p.eps @ u - p.eps).max()) <= tol.eq_tol


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
        p, pc = context.mat, context.comp
        x_log = herm(spectral(v, np.log(w)))
        diag_residual = max(np.abs(p @ x_log @ p).max(), np.abs(pc @ x_log @ pc).max())
        if diag_residual > tol.geo_tol:
            raise NotEpsUnitary("log of the matrix is not off-diagonal for p")
        self.xparam = HpVector(pc @ x_log @ p, context, tol)

    @classmethod
    def from_xparam(cls, x: HpVector, tol: Tolerance = DEFAULT_TOL) -> "PositiveEpsUnitary":
        """exp(x + x*) for a corner parameter ``x``, unchecked, from one eigh."""
        w, v = np.linalg.eigh(x.mat + adj(x.mat))
        return _cone_element(v, np.exp(w), x)

    @cached_property
    def sqrt(self) -> np.ndarray:
        return herm(spectral(self._v, np.sqrt(self._w)))

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        return herm((self._v / np.sqrt(self._w)) @ self._v.conj().T)

    def power(self, t: float) -> "PositiveEpsUnitary":
        """Real power through the spectrum: ``exp`` of the corner ``t x``."""
        x = _trusted(HpVector, mat=float(t) * self.xparam.mat, context=self.context)
        return _cone_element(self._v, self._w ** float(t), x)

    def __repr__(self):
        return f"PositiveEpsUnitary(dim={self.context.dim}, xnorm={self.xparam.norm:.6g})"


def _cone_element(v: np.ndarray, w: np.ndarray, x: HpVector) -> PositiveEpsUnitary:
    """exp(x + x*) = V diag(w) V*, unchecked; ``log w`` are its eigenvalues."""
    return _trusted(PositiveEpsUnitary, mat=herm(spectral(v, w)), context=x.context,
                    _w=w, _v=v, xparam=x)


class DiskPoint:
    """A disk point together with its cone preimage.

    Caching the preimage makes it the canonical coordinate: every metric is
    computed from the positive square-root representatives.  The constructor
    checks that ``lam`` maps to ``point`` through :func:`cone_to_disk`, which
    also decides disk membership; ``cone_to_disk``, ``to_disk_point`` and
    ``base_disk_point`` build their results without these checks.
    """

    def __init__(self, point: ProjectivePoint, lam: PositiveEpsUnitary,
                 tol: Tolerance = DEFAULT_TOL):
        if point.context.mat.shape != lam.context.mat.shape:
            raise InvalidInput("point and cone element dimensions differ")
        if d_chordal(cone_to_disk(lam, tol).point, point, tol) > tol.geo_tol:
            raise InvalidInput("cone element does not map to the given point")
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
    w = sum(b @ linalg.random_unitary(b.shape[1], rng) @ adj(b)
            for b in (p.range_basis, p.null_basis) if b.shape[1])
    return _trusted(EpsUnitary, mat=PositiveEpsUnitary.from_xparam(x).mat @ w, context=p)


def cone_to_disk(lam: PositiveEpsUnitary, tol: Tolerance = DEFAULT_TOL) -> DiskPoint:
    """The disk point ``[sqrt(lam) p]`` of a cone element; NotInDisk if its
    chart norm ``tanh(sigma/2)``, with ``e^sigma`` the largest eigenvalue of
    ``lam``, reaches 1 - eq_tol, the threshold of :func:`in_disk`."""
    if np.tanh(np.log(lam._w.max()) / 2) >= 1.0 - tol.eq_tol:
        raise NotInDisk("chart norm of the cone element's disk point reaches 1")
    p = lam.context
    return _trusted(DiskPoint, point=classify(lam.sqrt @ p.mat, p, tol), lam=lam)


def _chart_svd(point: ProjectivePoint, tol: Tolerance):
    """Thin SVD ``U diag(s) V*`` of ``c Bp`` for the chart coordinate ``c``;
    NotInDisk unless the point is finite with ``s < 1 - eq_tol``."""
    try:
        c = chart_inv(point, tol)
    except NotFinitePoint as exc:
        raise NotInDisk("point is not finite, hence outside the disk") from exc
    u, s, vh = np.linalg.svd(c.mat @ point.context.range_basis, full_matrices=False)
    if (s >= 1.0 - tol.eq_tol).any():
        raise NotInDisk("chart norm of the point reaches 1")
    return u, s, vh


def disk_to_cone(m, tol: Tolerance = DEFAULT_TOL) -> PositiveEpsUnitary:
    """The cone preimage of a disk point, recomputed from its representative.

    The cone element ``exp(x + x*)`` with corner ``x = U S V*`` has the disk
    point with chart coordinate ``U tanh(S/2) V*``.  So a point with chart
    coordinate ``c`` comes from the corner ``x = U diag(2 artanh(s)) V* Bp*``,
    where ``U diag(s) V*`` is the thin SVD of ``c Bp`` that decides
    membership, and the preimage is ``PositiveEpsUnitary.from_xparam(x)``.

    Raises
    ------
    NotInDisk
        If the point is not finite or its chart norm reaches 1 - eq_tol.
    """
    point = m.point if isinstance(m, DiskPoint) else m
    p = point.context
    u, s, vh = _chart_svd(point, tol)
    x = (u * (2 * np.arctanh(s))) @ vh @ adj(p.range_basis)
    return PositiveEpsUnitary.from_xparam(_trusted(HpVector, mat=x, context=p), tol)


def to_disk_point(point: ProjectivePoint, tol: Tolerance = DEFAULT_TOL) -> DiskPoint:
    """Attach the cone preimage to a raw projective point."""
    return _trusted(DiskPoint, point=point, lam=disk_to_cone(point, tol))


def base_disk_point(p: Projection, tol: Tolerance = DEFAULT_TOL) -> DiskPoint:
    """The center ``[p]`` of the disk, with identity preimage."""
    zero = _trusted(HpVector, mat=np.zeros_like(p.mat), context=p)
    return cone_to_disk(PositiveEpsUnitary.from_xparam(zero), tol)


def rho(m: DiskPoint, n: DiskPoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """The corner pairing ``|| (1-p) u* eps v p ||`` of the square-root
    representatives ``u = mu^{1/2}``, ``v = nu^{1/2}``; the hyperbolic sine
    scale of the separation.

    ``v`` is Hermitian and eps-unitary, so ``eps v = v^{-1} eps`` and
    ``eps v p = nu^{-1/2} p``: the pairing is the norm of the
    (n-k) x k block ``Bc* mu^{1/2} nu^{-1/2} Bp``, with ``Bp`` and ``Bc``
    the range and null bases of ``p``, from the cached ``sqrt`` and
    ``inv_sqrt``.
    """
    _check_context(m.point, n.point, tol)
    p = m.context
    return _op_norm(adj(p.null_basis) @ (m.lam.sqrt @ (n.lam.inv_sqrt @ p.range_basis)))


def d_pseudo_chordal(m: DiskPoint, n: DiskPoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """Pseudo-chordal distance rho / sqrt(1 + rho^2), in [0, 1)."""
    r = rho(m, n, tol)
    return r / float(np.hypot(1.0, r))


def d_non_euclidean(m: DiskPoint, n: DiskPoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """Non-Euclidean distance arsinh(rho) = artanh(d_pc), half the cone distance."""
    return float(np.arcsinh(rho(m, n, tol)))


def d_cone(m, n, tol: Tolerance = DEFAULT_TOL) -> float:
    """Geodesic distance of the positive cone: || log(nu^{-1/2} mu nu^{-1/2}) ||.

    Accepts disk points (through their preimages) or cone elements.  The
    relative matrix is a positive eps-unitary, so its spectrum is closed
    under ``w -> 1/w`` and the distance is ``|log|`` of its largest
    eigenvalue (at least 1 but for rounding), which stays accurate where
    the smallest one is lost to rounding near the rim.

    Raises
    ------
    InvalidInput
        If the two matrices have different dimensions.
    """
    mu = m.lam if isinstance(m, DiskPoint) else m
    nu = n.lam if isinstance(n, DiskPoint) else n
    return float(abs(np.log(np.linalg.eigvalsh(_relative_matrix(mu, nu))[-1])))


def eps_geodesic(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary, t: float,
                 tol: Tolerance = DEFAULT_TOL) -> PositiveEpsUnitary:
    """The cone geodesic ``nu^{1/2} (nu^{-1/2} mu nu^{-1/2})^t nu^{1/2}``.

    Runs from ``nu`` at t = 0 to ``mu`` at t = 1 and stays inside the cone
    for every real t; the cone distance grows linearly in t along it.
    """
    return PositiveEpsUnitary(eps_geodesic_samples(mu, nu, [t])[0], mu.context, tol)


def _relative_matrix(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary) -> np.ndarray:
    """``nu^{-1/2} mu nu^{-1/2}``; InvalidInput if the two matrices differ
    in dimension."""
    if mu.mat.shape != nu.mat.shape:
        raise InvalidInput("cone elements have different dimensions")
    return herm(nu.inv_sqrt @ mu.mat @ nu.inv_sqrt)


def _relative_spectrum(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary):
    """Eigenvalues ``w`` and eigenbasis ``V`` of ``nu^{-1/2} mu nu^{-1/2}``;
    InvalidInput if the two matrices differ in dimension, NotPositive if
    the computed ``w`` is not positive."""
    w, v = np.linalg.eigh(_relative_matrix(mu, nu))
    if not w.min() > 0:
        raise NotPositive("relative spectrum of the cone elements is not positive")
    return w, v


def _sample_times(ts) -> np.ndarray:
    """``ts`` as a float array; InvalidInput unless it is finite and 1-d."""
    try:
        ts = np.asarray(ts, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInput("sample times must be real numbers") from None
    if ts.ndim != 1:
        raise InvalidInput(f"sample times must be a 1-d array, got shape {ts.shape}")
    if not np.all(np.isfinite(ts)):
        raise InvalidInput("sample times must be finite")
    return ts


def eps_geodesic_samples(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary,
                         ts: np.ndarray) -> np.ndarray:
    """Stack of cone geodesic samples for a whole parameter grid.

    With ``nu^{-1/2} mu nu^{-1/2} = V diag(w) V*`` and ``G = nu^{1/2} V``,
    the sample at t is ``G diag(w^t) G*``: one product per sample, filled
    in one block of samples (``grassmann._sample_blocks``) at a time.  The
    powers ``w^t`` are taken for the whole grid at once: numpy's ``**``
    takes a one-sample block's exponent for a scalar and rounds ``w^2``,
    ``w^0.5`` and ``w^-1`` another way.

    Raises
    ------
    InvalidInput
        If the two matrices have different dimensions, or ``ts`` is not a
        finite 1-d array.
    NotPositive
        If the computed spectrum of ``nu^{-1/2} mu nu^{-1/2}`` is not positive.
    """
    w, v = _relative_spectrum(mu, nu)
    ts = _sample_times(ts)
    g, powers = nu.sqrt @ v, w ** ts[:, None]
    out = np.empty((ts.size, *g.shape), dtype=complex)
    for block in _sample_blocks(ts.size, g.size):
        out[block] = herm((g * powers[block, None, :]) @ adj(g))
    return out


def _eps_geodesic_points(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary,
                         ts: np.ndarray) -> np.ndarray:
    """Range projections of the disk points ``[lam_t^{1/2} p]`` of the
    samples ``lam_t`` of :func:`eps_geodesic_samples`.

    ``X_t = nu^{1/2} exp(tL/2) = G diag(w^{t/2}) V*`` is eps-unitary with
    ``X_t X_t* = lam_t``; its unitary polar factor is eps-unitary too, so it
    commutes with ``p``, and ``X_t Bp`` spans the range of ``lam_t^{1/2} p``.
    The points are filled in blocks, as the samples are.
    """
    w, v = _relative_spectrum(mu, nu)
    ts = _sample_times(ts)
    g, powers = nu.sqrt @ v, w ** (ts[:, None] / 2)
    basis = adj(v) @ mu.context.range_basis
    out = np.empty((ts.size, *g.shape), dtype=complex)
    for block in _sample_blocks(ts.size, g.size):
        q = np.linalg.qr((g * powers[block, None, :]) @ basis)[0]
        out[block] = q @ adj(q)
    return out


def cone_polyline_steps(lams: np.ndarray) -> np.ndarray:
    """Cone distances between consecutive positive matrices of a stack.

    Each sample is factored once, ``A_j = L_j L_j*`` (Cholesky).  The
    distance ``|| log(A_{j+1}^{-1/2} A_j A_{j+1}^{-1/2}) ||`` depends only
    on the eigenvalues of that matrix, which are those of ``Y Y*`` for
    ``Y = L_{j+1}^{-1} L_j``; so each step is twice the largest
    ``|log sigma|`` over the singular values of ``Y``.  The factors, solves
    and singular values are taken one block of samples at a time
    (``grassmann._step_spans``), the last sample of each block factored
    again with the next, so memory beyond the steps does not grow with the
    stack; the stack is checked for non-finite entries before any factor.

    Raises
    ------
    InvalidInput
        If ``lams`` is not a stack of square matrices or is not finite.
    NotPositive
        If a sample is not positive definite.
    """
    lams = np.asarray(lams, dtype=complex)
    if lams.ndim != 3 or lams.shape[1] != lams.shape[2]:
        raise InvalidInput(f"expected a stack of square matrices, got shape {lams.shape}")
    entries = lams.shape[1] ** 2
    if not all(np.isfinite(lams[block].view(float)).all()
               for block in _sample_blocks(len(lams), entries)):
        raise InvalidInput("polyline samples have non-finite entries")
    steps = np.empty(max(len(lams) - 1, 0))
    for span, block in _step_spans(len(lams), entries):
        try:
            chol = np.linalg.cholesky(herm(lams[span]))
        except np.linalg.LinAlgError as exc:
            raise NotPositive("polyline samples must be positive definite") from exc
        sv = np.linalg.svd(np.linalg.solve(chol[1:], chol[:-1]), compute_uv=False)
        steps[block] = 2 * np.abs(np.log(sv)).max(axis=-1)
    return steps


def cone_polyline_length(lams: np.ndarray) -> float:
    """Sum of cone distances between consecutive positive matrices."""
    return float(cone_polyline_steps(lams).sum())


# the moved-basis functions of a cone generator, cosh s and sinh(s) / s,
# and the sign of the indefinite form on the big side
_COSH_SINHC = (np.cosh, lambda s: np.divide(np.sinh(s), s, out=np.ones_like(s), where=s > 0))
_CONE = (*_COSH_SINHC, -1.0)


def cone_perturbed_path(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary,
                        h: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """A cone path with the geodesic's endpoints, perturbed by ``t(1-t) h``.

    Congruence by ``nu^{-1/2}`` is a cone isometry, so
    ``L = log(nu^{-1/2} mu nu^{-1/2})`` is off-diagonal for ``p`` and the
    geodesic is ``nu^{1/2} exp(tL) nu^{1/2}``.  The path is
    ``nu^{1/2} exp(tL + t(1-t)H) nu^{1/2}``, with ``H`` the off-diagonal
    part of ``herm(h)``: every sample is a positive eps-unitary by
    construction, the ends are ``nu`` at t = 0 and ``mu`` at t = 1, and an
    ``h`` with no off-diagonal part gives the geodesic.

    ``E = exp(Y/2)``, for the generator ``Y`` at t, moves the small side
    ``Bs`` onto ``Bs M_s + Bb M_b``, with ``[M_s; M_b]`` the moved basis of
    the corners of :func:`_cone_corners` (``grassmann._moved_basis``).
    ``E`` and ``nu^{1/2}`` preserve ``eps_s = 2 Bs Bs* - 1`` (``eps`` or
    ``-eps``), so with ``P = nu^{1/2} E Bs`` the sample is ``2 P P* - eps_s``.
    The samples are filled in one block (``grassmann._sample_blocks``) at a
    time.

    Raises
    ------
    InvalidInput
        If ``mu``, ``nu`` and ``h`` differ in dimension, the contexts of
        ``mu`` and ``nu`` differ by more than eq_tol, or ``ts`` is not a
        finite 1-d array.
    NotPositive
        If the computed spectrum of ``nu^{-1/2} mu nu^{-1/2}`` is not positive.
    """
    p = mu.context
    h = as_matrix(h, square=True)
    if h.shape != p.mat.shape:
        raise InvalidInput("perturbation and cone element dimensions differ")
    ell, [eta] = _cone_corners(mu, nu, [h])
    if np.abs(p.mat - nu.context.mat).max() > DEFAULT_TOL.eq_tol:
        raise InvalidInput("cone elements have different context projections")
    small, big, flipped = _side_blocks(p)
    ts = _sample_times(ts)
    k = small.shape[1]
    left, right = nu.sqrt @ small, nu.sqrt @ big
    eps_s = -p.eps if flipped else p.eps
    out = np.empty((ts.size, *h.shape), dtype=complex)
    for block in _sample_blocks(ts.size, h.size):
        moved = _moved_basis(ts[block], ell, eta, *_COSH_SINHC)
        cols = left @ moved[:, :k] + right @ moved[:, k:]
        out[block] = herm(2 * (cols @ adj(cols)) - eps_s)
    return out


def _cone_corners(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary, hs):
    """The corners (:func:`grassmann._corners`) of ``L / 2`` and of each
    ``herm(h) / 2`` for the paths ``cone_perturbed_path(mu, nu, h, .)``.

    ``L``'s is read straight from the relative eigenbasis,
    ``((Bb* V) log w)(V* Bs) / 2``; no n x n generator is formed.
    InvalidInput and NotPositive as from :func:`_relative_spectrum`.
    """
    w, v = _relative_spectrum(mu, nu)
    small, big, _ = _side_blocks(mu.context)
    ell = ((adj(big) @ v) * np.log(w)) @ (adj(v) @ small) / 2
    return ell, [adj(big) @ herm(h) @ small / 2 for h in hs]


def _cone_path_steps(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary, hs, resolution: int):
    """Per path, geodesic first, the cone steps of
    ``cone_perturbed_path(mu, nu, h, ts)`` on the uniform grid ``ts`` of
    ``resolution`` points, measured on the small side, unchecked.

    Congruence by ``nu^{-1/2}`` is a cone isometry, so ``nu`` enters only
    through ``L``.  A cone step is twice the non-Euclidean distance between
    the disk points ``[exp(Y_j / 2) p]``.  The moved small sides
    ``[cosh|a|; a sinhc|a|]``, ``a = y/2``, are orthonormal for
    ``J = diag(1_k, -1)``, and the Grassmann step kernel with that form
    gives ``sinh`` of that distance, so each step is ``2 arsinh`` of it.
    """
    steps = _path_steps(*_cone_corners(mu, nu, hs), resolution, _CONE)
    return (2 * np.arcsinh(path) for path in steps)


def _cone_path_integrals(mu: PositiveEpsUnitary, nu: PositiveEpsUnitary, hs) -> list:
    """Per path, geodesic first, the cone length ``int_0^1 speed dt`` of
    ``cone_perturbed_path(mu, nu, h, .)``, measured on the small side,
    unchecked.

    As ``sinh`` and ``arsinh`` have slope 1 at 0, the cone speed is twice
    the speed that the Grassmann speed kernel with the form
    ``J = diag(1_k, -1)`` takes of the moved small sides, as for
    :func:`_cone_path_steps`.
    """
    return [2 * length for length in _path_integrals(*_cone_corners(mu, nu, hs), _CONE)]


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
    """Disk membership: finite, with chart norm below 1 - eq_tol (as in disk_to_cone).

    Equivalent characterizations (chordal distance to ``[p]`` below
    sqrt(2)/2, spherical distance below pi/4) are exercised in the test
    suite; this predicate uses the chart norm.
    """
    try:
        _chart_svd(m, tol)
    except NotInDisk:
        return False
    return True
