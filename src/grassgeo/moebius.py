"""Finite points, the affine chart and Moebius maps.

A point is finite when the compression of its representative to ran(p) is
invertible.  Finite points are exactly the chart image ``x -> [p + x]`` of
the corner ``H_p = (1-p) A p``, and carry the chart metric, the operator
norm distance of chart coordinates.  An invertible ``g`` acts on chart
coordinates as the Moebius map ``b -> (z + w b)(x + y b)^{-1}`` built from
its blocks.  Since ``z + w b = (1-p) g (p + b) p`` and
``x + y b = p g (p + b) p``, the map is the chart coordinate of the point
``[g (p + b)]``, and ``chart_inv``, ``chart_transition`` and the Moebius
maps share one kernel, ``_chart_coordinate``.  It returns the
(n-k) x k block of the coordinate in the bases of ker(p) and ran(p), which
the three embed as an n x n matrix and :func:`d_chart` compares as it is.

A point keeps its own block, at its own context object, once per
``eq_tol`` (``_chart_block``), so repeated ``chart_inv`` and ``d_chart``
queries on a long-lived point, and the disk membership built on them,
reuse it; the finiteness decision is still taken at each call's tolerance.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    InvalidInput,
    NotFinitePoint,
    NotInvertible,
    OutsideDomain,
)
from .grassmann import _check_context
from .linalg import DEFAULT_TOL, Tolerance, _is_singular, _op_norm, adj, as_matrix
from .projective import (Projection, ProjectivePoint, _corner_inv, _trusted, classify,
                         corner_compress)

__all__ = [
    "HpVector",
    "MoebiusMap",
    "chart",
    "chart_inv",
    "d_chart",
    "moebius_domain",
    "moebius_apply",
    "chart_transition",
    "random_hp_vector",
]


class HpVector:
    """Element of the corner ``H_p = (1-p) A p``: a chart coordinate."""

    def __init__(self, mat, context: Projection, tol: Tolerance = DEFAULT_TOL):
        mat = as_matrix(mat, square=True)
        if mat.shape != context.mat.shape:
            raise InvalidInput("coordinate and context dimensions differ")
        if np.abs(context.mat @ mat).max() > tol.eq_tol:
            raise InvalidInput("coordinate has a component in p A")
        if np.abs(mat @ context.comp).max() > tol.eq_tol:
            raise InvalidInput("coordinate has a component in A (1-p)")
        self.mat = mat
        self.context = context

    @cached_property
    def norm(self) -> float:
        return _op_norm(self.mat)

    def __repr__(self):
        return f"HpVector(dim={self.mat.shape[0]}, norm={self.norm:.6g})"


def random_hp_vector(p: Projection, rng: np.random.Generator, norm: float = 1.0) -> HpVector:
    """Random chart coordinate scaled to the requested operator norm."""
    n = p.dim
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = p.comp @ m @ p.mat
    xn = _op_norm(x)
    return _trusted(HpVector, mat=x * (norm / xn) if xn else np.zeros_like(x), context=p)


def _chart_coordinate(a: np.ndarray, q: Projection, tol: Tolerance) -> np.ndarray | None:
    """The (n-k) x k block ``Bc* a Bq (Bq* a Bq)^{-1}`` of the chart
    coordinate ``(1-q) a q (q a q)^{-1}`` at ``q`` of the point ``[a q]``,
    with ``Bq`` and ``Bc`` the range and null bases of ``q``; None when the
    compression ``Bq* a Bq`` is singular within eq_tol (the point is not
    finite).  The n x k columns ``a Bq (Bq* a Bq)^{-1}`` represent the point
    with compression 1 to ran(q); the block is their ker(q) part.  The
    columns ``a Bq`` are formed once, and the compression is ``Bq* (a Bq)``."""
    cols = a @ q.range_basis
    c_inv = _corner_inv(adj(q.range_basis) @ cols, tol)
    if c_inv is None:
        return None
    return adj(q.null_basis) @ (cols @ c_inv)


def _hp_vector(block: np.ndarray, q: Projection) -> HpVector:
    """The chart coordinate ``Bc block Bq*`` at ``q`` of a block from
    :func:`_chart_coordinate`."""
    return _trusted(HpVector, mat=q.null_basis @ block @ adj(q.range_basis), context=q)


def _chart_block(m: ProjectivePoint, p: Projection, tol: Tolerance) -> np.ndarray:
    """The chart coordinate block at ``p`` of a finite point; NotFinitePoint
    if the compression of its representative to ran(p) is singular within
    eq_tol.

    At the point's own context object the block, or None for a point that
    is not finite, is computed once per ``eq_tol`` and kept read-only on the
    point, so that repeated queries on a long-lived point reuse it; any
    other context object, even an equal one, is computed afresh."""
    if p is m.context:
        blocks = m.__dict__.setdefault("_chart_blocks", {})
        if tol.eq_tol not in blocks:
            x = _chart_coordinate(m.rep.mat, p, tol)
            if x is not None:
                x.flags.writeable = False
            blocks[tol.eq_tol] = x
        x = blocks[tol.eq_tol]
    else:
        x = _chart_coordinate(m.rep.mat, p, tol)
    if x is None:
        raise NotFinitePoint("point lies outside the affine chart at p")
    return x


def chart(x: HpVector, tol: Tolerance = DEFAULT_TOL) -> ProjectivePoint:
    """The finite point ``[p + x]`` of a chart coordinate."""
    p = x.context
    return classify(p.mat + x.mat, p, tol)


def chart_inv(m: ProjectivePoint, tol: Tolerance = DEFAULT_TOL) -> HpVector:
    """Chart coordinate of a finite point.

    For a representative with blocks (v1; v2) over ``p`` the coordinate is
    ``v2 v1^{-1}``, independent of the representative.

    Raises
    ------
    NotFinitePoint
        If the compression of the representative to ran(p) is singular
        within eq_tol.
    """
    return _hp_vector(_chart_block(m, m.context, tol), m.context)


def d_chart(m: ProjectivePoint, n: ProjectivePoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """Chart metric: norm distance of the chart coordinates of two finite
    points over the same context.

    The coordinates are ``Bc x Bp*`` for (n-k) x k blocks ``x`` in the
    bases of ker(p) and ran(p), so the norm is taken of the difference of
    the blocks; equal points are at distance exactly 0.  Both blocks are
    taken in the bases of ``m``'s context: contexts equal within eq_tol
    may carry bases turned against each other within ran(p) and ker(p).

    Raises
    ------
    InvalidInput
        If the points have different context projections.
    NotFinitePoint
        If either point lies outside the chart.
    """
    _check_context(m, n, tol)
    p = m.context
    return _op_norm(_chart_block(m, p, tol) - _chart_block(n, p, tol))


class MoebiusMap:
    """The action of an invertible ``g`` on chart coordinates.

    Splitting ``g`` into blocks x = p g p, y = p g (1-p), z = (1-p) g p,
    w = (1-p) g (1-p), the map sends ``b`` to ``(z + w b)(x + y b)^{-1}``
    whenever the inverted factor is invertible in the corner ``pAp``.  It is
    evaluated as the chart coordinate of the point ``[g (p + b)]``.
    """

    def __init__(self, g, context: Projection, tol: Tolerance = DEFAULT_TOL):
        g = as_matrix(g, square=True)
        if g.shape != context.mat.shape:
            raise InvalidInput("matrix and context dimensions differ")
        if _is_singular(g, tol.eq_tol):
            raise NotInvertible("Moebius maps require an invertible matrix")
        self.g = g
        self.context = context

    def __repr__(self):
        return f"MoebiusMap(dim={self.g.shape[0]}, rank={self.context.rank})"


def moebius_domain(g: MoebiusMap, b: HpVector, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``b`` lies in the domain: x + y b invertible in the corner."""
    return _corner_inv(corner_compress(g.g @ (g.context.mat + b.mat), g.context), tol) is not None


def moebius_apply(g: MoebiusMap, b: HpVector, tol: Tolerance = DEFAULT_TOL) -> HpVector:
    """Evaluate the Moebius map: (z + w b)(x + y b)^{-1}, the chart
    coordinate of ``[g (p + b)]``.

    Raises
    ------
    OutsideDomain
        If ``b`` fails the domain test.
    """
    p = g.context
    out = _chart_coordinate(g.g @ (p.mat + b.mat), p, tol)
    if out is None:
        raise OutsideDomain("coordinate lies outside the Moebius domain")
    return _hp_vector(out, p)


def chart_transition(q: Projection, r: Projection, x: HpVector,
                     tol: Tolerance = DEFAULT_TOL) -> HpVector:
    """Transition of the chart coordinate ``x`` at ``r`` to the chart at ``q``.

    The closed form is ``(1-q)(r + x) q (q (r + x) q)^{-1}``, the inverse
    taken in ``qAq``; it is defined whenever the transported point stays in
    the chart ball at ``q``.

    Raises
    ------
    OutsideDomain
        If the bases are at chordal distance 1 or the compression of
        ``r + x`` to ran(q) is singular within eq_tol.
    """
    if np.abs(x.context.mat - r.mat).max() > tol.eq_tol:
        raise InvalidInput("coordinate does not live in the chart at r")
    if q.mat.shape != r.mat.shape:
        raise InvalidInput("projections live in different ambient dimensions")
    if _op_norm(q.mat - r.mat) >= 1.0 - tol.eq_tol:
        raise OutsideDomain("chart bases are at chordal distance 1")
    out = _chart_coordinate(r.mat + x.mat, q, tol)
    if out is None:
        raise OutsideDomain("transported point lies outside the chart at q")
    return _hp_vector(out, q)
