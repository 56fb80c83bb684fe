"""The projective space of a matrix algebra with a fixed projection.

A point is an equivalence class of full-rank elements ``a`` with ``a = a p``,
two elements being equivalent when they differ by a right factor invertible
in the corner ``pAp``.  Classes are represented canonically by the partial
isometry of the polar decomposition, and compared through their range
projections, which are a complete invariant of the class.  Both come from
the thin SVD ``U S V*`` of ``a Bp``, with ``Bp`` the range basis of ``p``:
its singular values decide membership, and ``U V* Bp*`` and ``U U*`` are
the representative and the range.

Constructors check what a caller hands in.  Results built from validated
generators (ranges of orthonormal columns, canonical points, chart
coordinates, tangents, cone elements, disk points) are built unchecked by
``_trusted``; results read back from a computed matrix keep their checks.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linalg
from .errors import InvalidInput, NotInLp, NotInvertible, ResidualError
from .linalg import DEFAULT_TOL, Tolerance, _is_singular, as_matrix, herm

__all__ = [
    "Projection",
    "PartialIsometry",
    "ProjectivePoint",
    "in_lp",
    "classify",
    "class_equal",
    "point_from_projection",
    "unitary_extension",
    "random_projection",
    "random_point_near",
    "corner_compress",
    "corner_min_sv",
    "corner_inverse",
]


def _trusted(cls, **fields):
    """An instance of ``cls`` holding ``fields``, built without running its
    constructor's checks; only for values valid by construction."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class Projection:
    """A Hermitian idempotent matrix.

    The rank is read off the trace, which must be within ``eq_tol`` of an
    integer; rank equality is the equivalence invariant in a matrix algebra.
    ``comp`` (``1 - p``) and ``eps`` (the symmetry ``2p - 1``) are computed
    once per projection and shared; treat them as read-only.
    """

    def __init__(self, mat, tol: Tolerance = DEFAULT_TOL):
        mat = as_matrix(mat, square=True)
        if np.abs(mat - mat.conj().T).max() > tol.eq_tol:
            raise InvalidInput("projection is not Hermitian within eq_tol")
        if np.abs(mat @ mat - mat).max() > tol.eq_tol:
            raise InvalidInput("projection is not idempotent within eq_tol")
        tr = np.trace(mat)
        if abs(tr.imag) > tol.eq_tol or abs(tr.real - round(tr.real)) > tol.eq_tol:
            raise InvalidInput("trace of a projection must be within eq_tol of an integer")
        self.mat = mat
        self.rank = int(round(tr.real))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def comp(self) -> np.ndarray:
        """The complementary projection ``1 - p``, as a matrix."""
        return np.eye(self.dim, dtype=complex) - self.mat

    @cached_property
    def eps(self) -> np.ndarray:
        """The selfadjoint symmetry ``2p - 1``."""
        return 2 * self.mat - np.eye(self.dim, dtype=complex)

    @cached_property
    def _eigvecs(self) -> np.ndarray:
        _, v = np.linalg.eigh(herm(self.mat))
        return v

    @cached_property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of the range, as an (n, rank) column matrix."""
        return self._eigvecs[:, self.dim - self.rank:]

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal basis of the kernel, as an (n, n - rank) column matrix."""
        return self._eigvecs[:, : self.dim - self.rank]

    def complement(self, tol: Tolerance = DEFAULT_TOL) -> "Projection":
        return Projection(self.comp, tol)

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank})"


class PartialIsometry:
    """An element ``v`` with ``v = v p`` and ``v* v = p`` for the context ``p``."""

    def __init__(self, mat, context: Projection, tol: Tolerance = DEFAULT_TOL):
        mat = as_matrix(mat, square=True)
        if mat.shape != context.mat.shape:
            raise InvalidInput("partial isometry and context dimensions differ")
        if np.abs(mat @ context.mat - mat).max() > tol.eq_tol:
            raise InvalidInput("partial isometry does not satisfy v = v p")
        if np.abs(mat.conj().T @ mat - context.mat).max() > tol.eq_tol:
            raise InvalidInput("partial isometry does not satisfy v* v = p")
        self.mat = mat
        self.context = context

    def __repr__(self):
        return f"PartialIsometry(dim={self.mat.shape[0]}, rank={self.context.rank})"


class ProjectivePoint:
    """A point of the projective space: canonical representative plus range.

    ``range`` equals ``rep @ rep*`` and determines the class completely.
    The chart maps keep the point's chart block at its context, computed
    once per ``eq_tol`` (``moebius._chart_block``); like ``Projection``'s
    caches it is shared and read-only, so treat ``rep`` as read-only too.
    """

    def __init__(self, rep: PartialIsometry, range_: Projection, tol: Tolerance = DEFAULT_TOL):
        if np.abs(rep.mat @ rep.mat.conj().T - range_.mat).max() > tol.eq_tol:
            raise InvalidInput("range does not match rep @ rep*")
        if range_.rank != rep.context.rank:
            raise InvalidInput("range rank differs from the context rank")
        self.rep = rep
        self.range = range_

    @property
    def context(self) -> Projection:
        return self.rep.context

    def __repr__(self):
        return f"ProjectivePoint(dim={self.rep.mat.shape[0]}, rank={self.range.rank})"


def corner_compress(a: np.ndarray, p: Projection) -> np.ndarray:
    """Compression of ``a`` to the range of ``p``, in the range eigenbasis."""
    b = p.range_basis
    return b.conj().T @ a @ b


def corner_min_sv(a: np.ndarray, p: Projection) -> float:
    """Smallest singular value of the compression of ``a`` to ran(p).

    Vacuously +inf when ``p`` has rank zero.
    """
    if p.rank == 0:
        return np.inf
    c = corner_compress(a, p)
    return float(np.linalg.svd(c, compute_uv=False).min())


def _corner_inv(c: np.ndarray, tol: Tolerance) -> np.ndarray | None:
    """Inverse of a compression ``c = b* a b`` of some ``a`` to ran(p), or
    None when it is singular within eq_tol: the one invertibility test in
    ``pAp``.  At rank zero the compression is 0 x 0 and never singular."""
    if (np.linalg.svd(c, compute_uv=False) <= tol.eq_tol).any():
        return None
    return np.linalg.inv(c)


def corner_inverse(a: np.ndarray, p: Projection, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Inverse of ``a`` within the corner algebra ``pAp``, as a full matrix.

    The compression is inverted on ran(p) and re-embedded, which avoids the
    tolerance ambiguities of a pseudo-inverse; at rank zero this is zero.

    Raises
    ------
    NotInvertible
        If the compression to ran(p) is singular within eq_tol.
    """
    c_inv = _corner_inv(corner_compress(a, p), tol)
    if c_inv is None:
        raise NotInvertible("compression to ran(p) is singular within eq_tol")
    b = p.range_basis
    return b @ c_inv @ b.conj().T


def _polar_svd(a, p: Projection, tol: Tolerance):
    """``(a, u, vh)``, with ``u diag(s) vh`` the thin SVD of the n x k matrix
    ``a Bp``, when ``a`` represents a point; None when ``a != a p`` or some
    ``s^2`` is at most eq_tol."""
    a = as_matrix(a, square=True)
    if a.shape != p.mat.shape:
        raise InvalidInput("element and projection dimensions differ")
    if np.abs(a @ p.mat - a).max() > tol.eq_tol:
        return None
    u, s, vh = np.linalg.svd(a @ p.range_basis, full_matrices=False)
    if (s * s <= tol.eq_tol).any():
        return None
    return a, u, vh


def in_lp(a, p: Projection, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``a`` represents a point: ``a = a p`` and a*a invertible in pAp,
    that is every squared singular value of ``a Bp`` above eq_tol, with
    ``Bp`` the range basis of ``p``; :func:`classify` decides membership
    the same way."""
    return _polar_svd(a, p, tol) is not None


def classify(a, p: Projection, tol: Tolerance = DEFAULT_TOL) -> ProjectivePoint:
    """Canonical representative of the class of ``a``.

    The representative is the polar-part partial isometry ``a |a|^(-1)`` with
    the inverse taken in the corner ``pAp``: ``U V* Bp*``, from the thin SVD
    ``U S V*`` of ``a Bp`` that decided membership, so a partial isometry by
    construction.  The range projection ``U U*`` is attached as the complete
    invariant of the class.  An element that is already a partial isometry
    (``a*a = p`` within ``eq_tol / n``) is returned unchanged.

    Raises
    ------
    NotInLp
        If ``a`` does not satisfy the membership test :func:`in_lp`.
    """
    polar = _polar_svd(a, p, tol)
    if polar is None:
        raise NotInLp("element is not equivalent to any partial isometry over p")
    a, u, vh = polar
    b = p.range_basis
    # the trace of the range projection ``a a*`` sums up to n entry errors
    # of a*a - p, and must still pass Projection's eq_tol check
    if a.shape[0] * np.abs(a.conj().T @ a - p.mat).max() <= tol.eq_tol:
        rep, cols = a, a @ b
    else:
        cols = u @ vh
        rep = cols @ b.conj().T
    rng = _trusted(Projection, mat=cols @ cols.conj().T, rank=p.rank, range_basis=cols)
    return _trusted(ProjectivePoint, rep=_trusted(PartialIsometry, mat=rep, context=p), range=rng)


def class_equal(m: ProjectivePoint, n: ProjectivePoint, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Class equality, decided on range projections."""
    if m.range.mat.shape != n.range.mat.shape:
        raise InvalidInput("points live in different ambient dimensions")
    return np.abs(m.range.mat - n.range.mat).max() <= tol.eq_tol


def point_from_projection(q: Projection, p: Projection, tol: Tolerance = DEFAULT_TOL) -> ProjectivePoint:
    """The point whose range is ``q``, for any ``q`` of the same rank as ``p``.

    The representative maps ran(p) isometrically onto ran(q) through the two
    eigenbases; the class does not depend on this choice.
    """
    if q.mat.shape != p.mat.shape:
        raise InvalidInput("projections live in different ambient dimensions")
    if q.rank != p.rank:
        raise InvalidInput("projections have different ranks")
    rep = q.range_basis @ p.range_basis.conj().T
    return _trusted(ProjectivePoint, rep=_trusted(PartialIsometry, mat=rep, context=p), range=q)


def unitary_extension(g, p: Projection, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """A unitary ``v`` with ``[v p] = [g p]``, for invertible ``g``.

    ran(g p) and ran(g (1-p)) span the whole space.  With the thin SVDs
    ``g Bp = U1 S1 V1*``, ``g Bp' = U2 S2 V2*`` (``Bp'`` a basis of the
    kernel of ``p``) and ``(1 - U1 U1*) U2 = W T Z*``, the polar isometry
    ``U1 V1* Bp*`` of ``g p`` is completed by ``W Z* V2* Bp'*``, which
    rotates the second range onto the orthogonal complement of the first.

    Raises
    ------
    NotInvertible
        If ``g`` is singular within ``eq_tol`` (relative to its norm).
    ResidualError
        If rounding leaves the result further than eq_tol from unitary.
    """
    g = as_matrix(g, square=True)
    if g.shape != p.mat.shape:
        raise InvalidInput("element and projection dimensions differ")
    if _is_singular(g, tol.eq_tol):
        raise NotInvertible("matrix is singular within eq_tol")
    n = g.shape[0]
    if p.rank == 0:
        return np.eye(n, dtype=complex)
    b, bc = p.range_basis, p.null_basis
    u1, _, v1h = np.linalg.svd(g @ b, full_matrices=False)
    u2, _, v2h = np.linalg.svd(g @ bc, full_matrices=False)
    w, _, zh = np.linalg.svd(u2 - u1 @ (u1.conj().T @ u2), full_matrices=False)
    v = u1 @ v1h @ b.conj().T + w @ zh @ v2h @ bc.conj().T
    if np.abs(v.conj().T @ v - np.eye(n)).max() > tol.eq_tol:
        raise ResidualError("unitary completion failed its unitarity check")
    return v


def random_projection(n: int, rank: int, seed: int, tol: Tolerance = DEFAULT_TOL) -> Projection:
    """Spectral projection onto the top-``rank`` eigenspace of a seeded
    random Hermitian matrix."""
    if not (isinstance(n, (int, np.integer)) and isinstance(rank, (int, np.integer))):
        raise InvalidInput("dimension and rank must be integers")
    if n < 1:
        raise InvalidInput(f"dimension must be at least 1, got {n}")
    if rank < 0 or rank > n:
        raise InvalidInput(f"rank must lie in [0, {n}]")
    if rank == 0:
        return Projection(np.zeros((n, n), dtype=complex), tol)
    if rank == n:
        return Projection(np.eye(n, dtype=complex), tol)
    rng = np.random.default_rng(seed)
    h = herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    _, v = np.linalg.eigh(h)
    b = v[:, n - rank:]
    return _trusted(Projection, mat=b @ b.conj().T, rank=rank, range_basis=b)


def random_offdiag_antiherm(p: Projection, rng: np.random.Generator) -> np.ndarray:
    """Random anti-Hermitian matrix exchanging ran(p) and its complement."""
    n = p.dim
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = p.comp @ m @ p.mat
    return x - x.conj().T


def random_point_near(
    p: Projection,
    radius: float,
    seed: int,
    tol: Tolerance = DEFAULT_TOL,
) -> ProjectivePoint:
    """Random point at chordal distance at most ``radius`` from ``[p]``.

    Draws a random tangent direction and scales it so the geodesic endpoint
    lands within the requested chordal radius (the distance is the sine of
    the tangent norm).
    """
    if not (0 < radius < 1):
        raise InvalidInput("radius must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    z = random_offdiag_antiherm(p, rng)
    zn = linalg._op_norm(z)
    if zn == 0.0:
        return classify(p.mat, p, tol)
    theta = np.arcsin(radius) * (1.0 - rng.uniform())
    z *= theta / zn
    return classify(linalg.expm(z) @ p.mat, p, tol)
