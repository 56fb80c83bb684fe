"""Dense complex linear algebra kernels.

All higher modules work with square complex matrices represented as
``numpy.ndarray`` with dtype complex128.  This module provides the shared
kernels: operator norm, Hermitian eigendecomposition, functional calculus,
polar decomposition, matrix exponential and the principal logarithms on
their natural domains.  Everything is a pure function of its arguments.

Every matrix, count and real parameter that enters the package is checked
once, by :func:`as_matrix`, :func:`_as_count` and :func:`_as_real`.

For one matrix or a stack, :func:`adj` is the adjoint and :func:`spectral`
reassembles ``V diag(f(w)) V*`` from an eigenbasis and mapped eigenvalues;
every Hermitian matrix function of the package goes through it.

Every kernel is numpy only: :func:`expm` of a matrix that is neither
Hermitian nor anti-Hermitian uses a Pade approximant of degree 3 to 13,
chosen from its 1-norm, with scaling and squaring above theta_13, and
:func:`log_unitary` a Cayley transform turned away from the branch cut.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BranchCut,
    DomainError,
    InvalidInput,
    NotHermitian,
    NotPositive,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "HermitianEig",
    "as_matrix",
    "adj",
    "herm",
    "spectral",
    "op_norm",
    "hermitian_eig",
    "func_calc",
    "polar",
    "expm",
    "log_unitary",
    "log_posdef",
    "sqrt_posdef",
    "svd_range_projection",
    "random_unitary",
    "random_invertible",
]


def _as_count(x, least: int, what: str) -> int:
    """``x`` as an int: the one check of every count that enters the
    package.  :class:`InvalidInput` unless it is an integer (numpy integers
    count) of at least ``least``."""
    try:
        x = operator.index(x)
    except TypeError:
        raise InvalidInput(f"{what} must be an integer, got {x!r}") from None
    if x < least:
        raise InvalidInput(f"{what} must be at least {least}, got {x}")
    return x


def _as_real(x, what: str) -> float:
    """``x`` as a float: the one check of every real parameter (a time, a
    norm, a scale, a radius, a tolerance) that enters the package.  :class:`InvalidInput` unless it is a
    finite real number."""
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise InvalidInput(f"{what} must be a real number, got {x!r}") from None
    if not math.isfinite(x):
        raise InvalidInput(f"{what} must be finite, got {x}")
    return x


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerances: ``eq_tol`` for algebraic identities, ``geo_tol``
    for geometric and iterative checks; InvalidInput unless both are finite
    and strictly positive."""

    eq_tol: float = 1e-9
    geo_tol: float = 1e-6

    def __post_init__(self):
        if not (_as_real(self.eq_tol, "eq_tol") > 0 and _as_real(self.geo_tol, "geo_tol") > 0):
            raise InvalidInput("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


class HermitianEig(NamedTuple):
    """Eigenvalues in ascending order and a unitary matrix of eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(a, square: bool = False, dim: int | None = None,
              error: type = InvalidInput) -> np.ndarray:
    """Coerce to a finite 2-d C-contiguous complex array: the one check of
    every matrix that enters the package.

    Any memory layout, real or integer dtype and nested lists give the same
    array.  :class:`InvalidInput` unless ``a`` is numeric, 2-d, non-empty
    and finite, and square when ``square`` is set or ``dim`` is given; with
    ``dim``, ``error("matrix and context dimensions differ")`` unless it is
    ``dim`` x ``dim``.
    """
    try:
        a = np.asarray(a, dtype=complex)
    except (TypeError, ValueError):
        raise InvalidInput("expected a numeric matrix") from None
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise InvalidInput(f"expected a non-empty matrix, got shape {a.shape}")
    a = np.ascontiguousarray(a)
    if not np.all(np.isfinite(a.view(float))):
        raise InvalidInput("matrix has non-finite entries")
    if (square or dim is not None) and a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise error("matrix and context dimensions differ")
    return a


def adj(a: np.ndarray) -> np.ndarray:
    """Adjoint a* of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a*) / 2, of a matrix or of each matrix of a stack."""
    return (a + adj(a)) / 2


def spectral(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """``v diag(fw) v*``: the matrix with eigenbasis ``v`` and eigenvalues
    ``fw``, for one matrix or a stack (``fw`` may add leading stack axes)."""
    return (v * fw[..., None, :]) @ adj(v)


def _is_hermitian(a: np.ndarray, tol: float) -> bool:
    return np.abs(a - adj(a)).max() <= tol


def _is_singular(a: np.ndarray, tol: float) -> bool:
    """Whether the smallest singular value of ``a`` is at most ``tol`` times
    the largest: the one full-matrix invertibility test."""
    s = np.linalg.svd(a, compute_uv=False)
    return s.min() <= tol * s.max()


def _op_norm(a: np.ndarray) -> float:
    """Operator norm of a matrix, unchecked: its largest singular value,
    ``sqrt`` of the largest eigenvalue of the Gram matrix ``a* a`` or
    ``a a*``, whichever is the smaller; 0 for an empty block (a corner at
    rank 0 or n) and for zero.

    ``a`` is first scaled, exactly, by the power of two ``2^e`` just above
    its largest entry (``e`` clipped to [-1020, 1023], so that ``2^e`` and
    its inverse are floats), so that entries near the ends of the float
    range neither overflow nor underflow in the Gram matrix.  The top
    eigenvalue of the Gram matrix is well conditioned, so the norm keeps an
    error of a few ``max(m, n) eps`` relative, as from an SVD, at a fraction
    of its cost for tall blocks.  Every caller takes this one route."""
    top = np.abs(a).max(initial=0.0)
    if top == 0.0:
        return 0.0
    e = min(max(math.frexp(top)[1], -1020), 1023)
    b = a * 2.0 ** -e
    gram = adj(b) @ b if b.shape[0] >= b.shape[1] else b @ adj(b)
    return math.sqrt(np.linalg.eigvalsh(gram)[-1]) * 2.0 ** e


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return _op_norm(as_matrix(a))


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues ascending and orthonormal eigenvectors such that
    ``V @ diag(w) @ V.conj().T`` reconstructs the input.

    Raises
    ------
    NotHermitian
        If ``a`` deviates from its adjoint by more than ``tol.eq_tol``.
    """
    a = as_matrix(a, square=True)
    if not _is_hermitian(a, tol.eq_tol):
        raise NotHermitian("matrix is not Hermitian within eq_tol")
    w, v = np.linalg.eigh(herm(a))
    return HermitianEig(w, v)


def func_calc(f: Callable[[float], complex], a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix by spectral mapping.

    Computes ``V @ diag(f(w_i)) @ V*``.  The function may be vectorized or a
    plain scalar callable; it must be defined on the whole spectrum.

    Raises
    ------
    DomainError
        If ``f`` raises or returns a non-finite value at an eigenvalue.
    """
    w, v = hermitian_eig(a, tol)
    try:
        fw = np.asarray(f(w))
        if fw.shape != w.shape:
            raise TypeError
    except DomainError:
        raise
    except Exception:
        vals = []
        for x in w:
            try:
                vals.append(f(float(x)))
            except Exception as exc:
                raise DomainError(f"function undefined at eigenvalue {x}") from exc
        fw = np.asarray(vals)
    if not np.all(np.isfinite(np.atleast_1d(fw).astype(complex).view(float))):
        raise DomainError("function returned a non-finite value on the spectrum")
    out = spectral(v, fw)
    if np.isrealobj(fw) or np.abs(fw.imag).max() == 0.0:
        out = herm(out)
    return out


def polar(a) -> tuple[np.ndarray, np.ndarray]:
    """Right polar decomposition a = u @ pos with pos = (a* a)^(1/2).

    ``u`` is unitary for square input (exactly the polar unitary when ``a``
    is invertible); ``pos`` is Hermitian positive semidefinite.
    """
    a = as_matrix(a, square=True)
    u_svd, s, vh = np.linalg.svd(a)
    u = u_svd @ vh
    pos = herm(adj(vh) @ (s[:, None] * vh))
    return u, pos


# Higham, SIAM J. Matrix Anal. Appl. 26 (2005): the [m/m] Pade degrees,
# each with the 1-norm up to which its approximant alone has a backward
# error below the unit roundoff, and their coefficients
# b_j = (2m - j)! / (j! (m - j)!), so that b_m = 1
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068), (13, 5.371920351148152))
_PADE = {m: tuple(float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
                  for j in range(m + 1))
         for m, _ in _THETA}
# below degree 13, the odd and the even coefficients as the rows of one
# matrix, applied to the stacked even powers of ``a`` at once
_PADE_ODD_EVEN = {m: np.array([b[1::2], b[0::2]]) for m, b in _PADE.items() if m < 13}


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for complex ``a`` by the [m/m] Pade approximant
    ``(V - U)^{-1} (V + U)`` of the lowest degree whose theta_m bounds the
    1-norm; above theta_13, of ``a / 2^s`` with 1-norm at most theta_13,
    then ``s`` squarings."""
    norm = np.abs(a).sum(axis=0).max()
    m = next((m for m, theta in _THETA if norm <= theta), 13)
    theta13 = _THETA[-1][1]
    s = math.ceil(math.log2(norm / theta13)) if norm > theta13 else 0
    a = a * 2.0 ** -s
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    if m < 13:
        k = m // 2 + 1
        powers = np.empty((k, *a.shape), dtype=complex)
        powers[0] = ident
        powers[1] = a2
        for j in range(2, k):
            np.matmul(powers[j - 1], a2, out=powers[j])
        rows = _PADE_ODD_EVEN[m] @ powers.view(float).reshape(k, -1)
        odd, v = rows.view(complex).reshape(2, *a.shape)
        u = a @ odd
    else:
        b = _PADE[13]
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def expm(a) -> np.ndarray:
    """Matrix exponential.

    Hermitian and anti-Hermitian arguments go through the spectral
    decomposition; anything else through the Pade approximant of degree
    3, 5, 7, 9 or 13 chosen from the 1-norm, with scaling and squaring
    above theta_13 (Higham 2005).
    """
    a = as_matrix(a, square=True)
    scale = max(1.0, np.abs(a).max())
    dev = 1e-13 * scale
    if np.abs(a - adj(a)).max() <= dev:
        w, v = np.linalg.eigh(herm(a))
        return herm(spectral(v, np.exp(w)))
    if np.abs(a + adj(a)).max() <= dev:
        # a = i h with h Hermitian; exp(a) is unitary
        w, v = np.linalg.eigh(herm(-1j * a))
        return spectral(v, np.exp(1j * w))
    return _pade_expm(a)


def log_unitary(u, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Principal logarithm of a unitary matrix.

    The result is anti-Hermitian with spectrum in the open interval
    (-i pi, i pi).  Inputs with an eigenvalue within ``eq_tol`` of -1 are
    rejected rather than nudged off the branch cut.

    The middle of the widest angular gap between the eigenvalues is turned
    onto -1, ``c = e^{-i phi} u``, so that the Hermitian Cayley transform
    ``h = i (1 + c)^{-1} (1 - c)`` has norm at most ``cot(gap / 4)``; its
    eigenvalues ``w`` give the angles ``2 arctan(w) + phi``.

    Raises
    ------
    InvalidInput
        If ``u`` is not unitary within ``eq_tol``.
    BranchCut
        If some eigenvalue lies within ``eq_tol`` of -1.
    """
    u = as_matrix(u, square=True)
    ident = np.eye(u.shape[0])
    if np.abs(adj(u) @ u - ident).max() > tol.eq_tol:
        raise InvalidInput("matrix is not unitary within eq_tol")
    lam = np.linalg.eigvals(u)
    if np.abs(lam + 1.0).min() <= tol.eq_tol:
        raise BranchCut("eigenvalue within eq_tol of -1; principal log undefined")
    angles = np.sort(np.angle(lam))
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    top = np.argmax(gaps)
    phi = angles[top] + gaps[top] / 2 - np.pi
    c = np.exp(-1j * phi) * u
    w, v = np.linalg.eigh(herm(1j * np.linalg.solve(ident + c, ident - c)))
    theta = np.pi - np.mod(np.pi - (2 * np.arctan(w) + phi), 2 * np.pi)
    out = spectral(v, 1j * theta)
    return (out - adj(out)) / 2


def _posdef_func(f, a, tol: Tolerance) -> np.ndarray:
    w, v = hermitian_eig(a, tol)
    if w.min() <= tol.eq_tol:
        raise NotPositive("matrix is not positive definite within eq_tol")
    return herm(spectral(v, f(w)))


def log_posdef(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Principal logarithm of a positive definite Hermitian matrix."""
    return _posdef_func(np.log, a, tol)


def sqrt_posdef(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Positive square root of a positive definite Hermitian matrix."""
    return _posdef_func(np.sqrt, a, tol)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a positive semidefinite matrix, clipping rounding noise.

    Unlike :func:`sqrt_posdef` this accepts singular input; it is meant for
    corner elements such as compressions that vanish on a complement.
    """
    w, v = np.linalg.eigh(herm(a))
    return herm(spectral(v, np.sqrt(np.clip(w, 0.0, None))))


def svd_range_projection(a, rtol: float = 1e-11) -> np.ndarray:
    """Orthogonal projection onto the column space of ``a``, via SVD.

    Singular values below ``rtol`` times the largest are treated as zero.
    Used as the independent oracle for range computations.
    """
    a = as_matrix(a)
    u, s, _ = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], a.shape[0]), dtype=complex)
    k = int(np.sum(s > rtol * s[0]))
    uk = u[:, :k]
    return uk @ adj(uk)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary matrix (QR of a complex Ginibre draw)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_invertible(
    n: int,
    rng: np.random.Generator,
    smin: float = 0.5,
    smax: float = 2.0,
) -> np.ndarray:
    """Random invertible matrix with singular values in [smin, smax].

    Keeping the condition number bounded makes residual-based assertions
    meaningful at 64-bit precision.
    """
    u = random_unitary(n, rng)
    v = random_unitary(n, rng)
    s = rng.uniform(smin, smax, size=n)
    return (u * s) @ adj(v)
