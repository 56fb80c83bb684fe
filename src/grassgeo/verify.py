"""Property suites over random instances, with machine-readable reports.

Every closed-form identity of the geometry is checked against independent
constructions on seeded random instances across the configured dimensions.
Each property reports the maximum residual seen; a property passes when
that residual stays below its tolerance.  All randomness is derived from
the single configuration seed through a counter-based splitter keyed by
(stream, dimension, trial), where each property has a fixed stream key, so
reports are reproducible byte for byte.

One driver runs the trials of every property.  Adding a property takes one
instance function, which draws one instance from the generator it is given
and returns that instance's residual, and one row in ``REGISTRY``.

The instances of a property are independent, so the driver evaluates the
first of their contiguous chunks itself and shares the others out, through
one queue, among children forked by ``os.fork`` across the CPUs of the
process's affinity mask; a child on a faster CPU takes more chunks.
Reports match a one-CPU run byte for byte.
With one CPU, or without ``os.fork``, the run is serial.  Callers should be
single-threaded, since a fork copies only the calling thread.  The
children's memory is not counted in the caller's ``ru_maxrss``.

Path lengths enter in two forms.  ``geodesic-minimality`` and
``cone-path-minimality`` compare each perturbed path with its geodesic as
integrals of the speed, free of discretization.  ``geodesic-arc-length``
and ``cone-geodesic-length`` measure the geodesic's polyline of 2000
samples, since that polyline is what they test.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import disk as dk
from . import grassmann as gr
from . import linalg as la
from . import moebius as mo
from . import projective as pj
from .errors import GrassgeoError, InvalidInput, OutOfRange
from .linalg import Tolerance

__all__ = ["RunConfig", "PropertyResult", "Report", "run_all", "report_to_json", "report_to_csv"]

DEFAULT_DIMS = (2, 3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a verification run.

    ``trials`` overrides every property's default trial count when set;
    left at None, each property uses the count its statement calls for.
    """

    seed: int = 0
    dims: tuple = DEFAULT_DIMS
    trials: int | None = None
    eq_tol: float = 1e-9
    geo_tol: float = 1e-6

    def __post_init__(self):
        # kept as the ints the count checks return, so that numpy integers
        # reach the JSON report as numbers
        object.__setattr__(self, "seed", la._as_count(self.seed, 0, "seed"))
        if self.trials is not None:
            object.__setattr__(self, "trials", la._as_count(self.trials, 1, "trials"))
        try:
            dims = tuple(la._as_count(d, 2, "dims entry") for d in self.dims)
        except TypeError:
            raise InvalidInput("dims must be a sequence of integers") from None
        if not dims:
            raise InvalidInput("dims must not be empty")
        object.__setattr__(self, "dims", dims)
        Tolerance(self.eq_tol, self.geo_tol)

    @property
    def tol(self) -> Tolerance:
        return Tolerance(self.eq_tol, self.geo_tol)


@dataclass
class PropertyResult:
    name: str
    statement: str
    trials: int
    dims: tuple
    max_residual: float
    tolerance: float
    passed: bool
    error: str = ""


@dataclass
class Report:
    config: dict
    properties: list = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.properties)


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------


def _rng(cfg: RunConfig, stream: str, dim: int, trial: int) -> np.random.Generator:
    key = zlib.crc32(stream.encode())
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, key, dim, trial)))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def _rand_proj(n: int, rng: np.random.Generator, tol: Tolerance) -> pj.Projection:
    rank = int(rng.integers(1, n))
    return pj.random_projection(n, rank, _seed(rng), tol)


def _rand_point(p: pj.Projection, rng: np.random.Generator, tol: Tolerance) -> pj.ProjectivePoint:
    g = la.random_invertible(p.dim, rng)
    return pj.classify(g @ p.mat, p, tol)


def _rand_point_unitary(p: pj.Projection, rng: np.random.Generator,
                        tol: Tolerance) -> pj.ProjectivePoint:
    """Random point through the unitary orbit; reaches every point of the
    component and keeps the canonicalization trivial."""
    u = la.random_unitary(p.dim, rng)
    return pj.classify(u @ p.mat, p, tol)


def _point_at_angle(q: pj.Projection, p: pj.Projection, theta: float,
                    rng: np.random.Generator, tol: Tolerance) -> pj.ProjectivePoint:
    """The point over ``p`` whose range lies at spherical distance theta
    from ``q``, along a random geodesic."""
    z = gr.random_tangent(q, rng, theta)
    return pj.point_from_projection(gr.geodesic(q, z, 1.0, tol), p)


def _corner_invertible(p: pj.Projection, rng: np.random.Generator) -> np.ndarray:
    """Random element of the corner pAp, invertible there."""
    b = p.range_basis
    return b @ la.random_invertible(p.rank, rng) @ b.conj().T


# ---------------------------------------------------------------------------
# property instances; each draws one instance from ``rng`` and returns its
# residual
# ---------------------------------------------------------------------------


def _worst(residuals) -> float:
    """The largest of 0.0 and ``residuals``; a NaN wins, where ``max`` would drop it."""
    worst = 0.0
    for r in residuals:
        if r > worst or r != r:
            worst = r
    return worst


def _func_calc_spectrum(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    a = la.herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w, _ = la.hermitian_eig(a, tol)
    fa = la.func_calc(np.cos, a, tol)
    fw, _ = la.hermitian_eig(fa, tol)
    return float(np.abs(np.sort(np.cos(w)) - fw).max())


def _polar_residual(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    a = la.random_invertible(n, rng, 0.3, 3.0)
    u, pos = la.polar(a)
    return _worst((la._op_norm(a - u @ pos) / (1.0 + la._op_norm(a)),
                   la._op_norm(u.conj().T @ u - np.eye(n))))


def _log_exp_roundtrip(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = g - g.conj().T
    z *= rng.uniform(0.05, np.pi - 0.1) / la._op_norm(z)
    back = la.log_unitary(la.expm(z), tol)
    return float(np.abs(back - z).max())


def _op_norm_laws(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, v = la.random_unitary(n, rng), la.random_unitary(n, rng)
    return _worst((la.op_norm(a @ b) - la.op_norm(a) * la.op_norm(b),
                   abs(la.op_norm(u @ a @ v) - la.op_norm(a))))


def _class_map_well_defined(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    g = la.random_invertible(n, rng)
    h = _corner_invertible(p, rng)
    lhs = pj.classify(g @ p.mat @ h, p, tol)
    rhs = pj.classify(g @ p.mat, p, tol)
    return la._op_norm(lhs.range.mat - rhs.range.mat)


def _classify_idempotent(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    v = _rand_point(p, rng, tol).rep.mat
    again = pj.classify(v, p, tol).rep.mat
    return float(np.abs(again - v).max())


def _rank_preserved(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    m = _rand_point(p, rng, tol)
    # a partial isometry has singular values 0 and 1 only: count the 1s
    rank = int(np.sum(np.linalg.svd(m.rep.mat, compute_uv=False) > 0.5))
    return _worst((abs(float(np.trace(m.range.mat).real) - p.rank),
                   0.0 if rank == p.rank else 1.0))


def _unitary_extension(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    g = la.random_invertible(n, rng)
    v = pj.unitary_extension(g, p, tol)
    lhs = pj.classify(v @ p.mat, p, tol)
    rhs = pj.classify(g @ p.mat, p, tol)
    return _worst((la._op_norm(v.conj().T @ v - np.eye(n)),
                   la._op_norm(lhs.range.mat - rhs.range.mat)))


def _sin_identity(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    m = _rand_point_unitary(p, rng, tol)
    theta = np.arcsin(0.95) * rng.uniform(1e-3, 1.0)
    nn = _point_at_angle(m.range, m.context, theta, rng, tol)
    return abs(gr.d_chordal(m, nn, tol) - np.sin(theta))


def _geodesic_roundtrip(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    z = gr.random_tangent(p, rng, rng.uniform(1e-3, np.pi / 2 - 0.05))
    q = gr.geodesic(p, z, 1.0, tol)
    back = gr.geodesic_log(p, q, tol)
    q2 = gr.geodesic(p, back, 1.0, tol)
    return _worst((float(np.abs(back.mat - z.mat).max()),
                   float(np.abs(q2.mat - q.mat).max())))


def _minimality_instance(n: int, rng: np.random.Generator, tol: Tolerance, paths: int):
    """Base projection, geodesic tangent and ``paths`` perturbation tangents."""
    p = _rand_proj(n, rng, tol)
    z = gr.random_tangent(p, rng, rng.uniform(0.2, np.pi / 2 - 0.05))
    ws = [gr.random_tangent(p, rng, rng.uniform(0.05, 0.5)) for _ in range(paths)]
    return p, z, ws


def _geodesic_arc_length(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p, z, _ = _minimality_instance(n, rng, tol, 0)
    length = gr.curve_length(gr.geodesic_curve(p, z, 2000), tol)
    q = gr.geodesic(p, z, 1.0, tol)
    return abs(length - np.arcsin(min(1.0, la._op_norm(p.mat - q.mat))))


def _geodesic_minimality(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p, z, ws = _minimality_instance(n, rng, tol, 20)
    geo_len, *pert = gr._path_integrals(*gr._corners(p, z.mat, [w.mat for w in ws]),
                                        gr._GRASSMANN)
    return _worst(geo_len - length for length in pert)


def _sin_triangle(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    r = _rand_proj(n, rng, tol)
    t1 = rng.uniform(0.05, np.pi / 4 - 0.05)
    t2 = rng.uniform(0.05, np.pi / 4 - 0.05)
    s = gr.geodesic(r, gr.random_tangent(r, rng, t1), 1.0, tol)
    w = gr.geodesic(s, gr.random_tangent(s, rng, t2), 1.0, tol)
    return la._op_norm(r.mat - w.mat) - np.sin(t1 + t2)


def _projectivity_action(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    q = _rand_proj(n, rng, tol)
    g = la.random_invertible(n, rng)
    h = la.random_invertible(n, rng)
    lhs = gr.projectivity(g, gr.projectivity(h, q, tol), tol)
    rhs = gr.projectivity(g @ h, q, tol)
    return la._op_norm(lhs.mat - rhs.mat)


def _chordal_unitary_invariance(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    m, nn = _rand_point(p, rng, tol), _rand_point(p, rng, tol)
    u = la.random_unitary(n, rng)
    um = pj.classify(u @ m.rep.mat, p, tol)
    un = pj.classify(u @ nn.rep.mat, p, tol)
    return abs(gr.d_chordal(um, un, tol) - gr.d_chordal(m, nn, tol))


def _range_formula(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    q = _rand_proj(n, rng, tol)
    g = la.random_invertible(n, rng, 0.25, 4.0)
    direct = gr.projectivity(g, q, tol)
    oracle = la.svd_range_projection(g @ q.mat)
    return la._op_norm(direct.mat - oracle)


def _finiteness_characterizations(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    finite = bool(rng.uniform() < 0.5)
    if finite:
        theta = rng.uniform(1e-3, np.pi / 2 - 2e-3)
    else:
        theta = np.pi / 2
    m = _point_at_angle(p, p, theta, rng, tol)
    by_corner = pj.corner_min_sv(m.rep.mat, p) > tol.eq_tol
    by_chordal = la._op_norm(p.mat - m.range.mat) < 1.0 - tol.eq_tol
    try:
        base = pj.classify(p.mat, p, tol)
        by_spherical = gr.d_spherical(m, base, tol) < np.pi / 2
    except OutOfRange:
        by_spherical = False
    return 0.0 if by_corner == by_chordal == by_spherical == finite else 1.0


def _chart_roundtrip(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    x = mo.random_hp_vector(p, rng, rng.uniform(0.05, 3.0))
    back = mo.chart_inv(mo.chart(x, tol), tol)
    theta = rng.uniform(1e-3, np.pi / 2 - 0.05)
    m = _point_at_angle(p, p, theta, rng, tol)
    again = mo.chart(mo.chart_inv(m, tol), tol)
    return _worst((float(np.abs(back.mat - x.mat).max()),
                   la._op_norm(again.range.mat - m.range.mat)))


def _chart_tan_identity(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    base = pj.classify(p.mat, p, tol)
    theta = rng.uniform(1e-3, 1.4)
    m = _point_at_angle(p, p, theta, rng, tol)
    return abs(mo.d_chart(m, base, tol) - np.tan(gr.d_spherical(m, base, tol)))


def _moebius_identity(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    b = mo.random_hp_vector(p, rng, rng.uniform(0.05, 2.0))
    ident = mo.MoebiusMap(np.eye(n, dtype=complex), p, tol)
    return float(np.abs(mo.moebius_apply(ident, b, tol).mat - b.mat).max())


def _moebius_instance(n: int, rng: np.random.Generator, tol: Tolerance):
    """Random (g, h, b) with every needed Moebius domain satisfied."""
    p = _rand_proj(n, rng, tol)
    for _ in range(200):
        g_small = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h_small = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = mo.MoebiusMap(la.expm(0.3 * g_small / la._op_norm(g_small) * n**0.5), p, tol)
        h = mo.MoebiusMap(la.expm(0.3 * h_small / la._op_norm(h_small) * n**0.5), p, tol)
        gh = mo.MoebiusMap(g.g @ h.g, p, tol)
        b = mo.random_hp_vector(p, rng, rng.uniform(0.01, 0.5))
        if not (mo.moebius_domain(h, b, tol) and mo.moebius_domain(gh, b, tol)):
            continue
        hb = mo.moebius_apply(h, b, tol)
        if mo.moebius_domain(g, hb, tol):
            return p, g, h, gh, b, hb
    raise GrassgeoError("could not find a nested Moebius domain instance")


def _moebius_composition(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    _, g, h, gh, b, hb = _moebius_instance(n, rng, tol)
    lhs = mo.moebius_apply(g, hb, tol)
    rhs = mo.moebius_apply(gh, b, tol)
    return la._op_norm(lhs.mat - rhs.mat)


def _moebius_projectivity(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p, g, _, _, b, _ = _moebius_instance(n, rng, tol)
    image = gr.projectivity(g.g, mo.chart(b, tol).range, tol)
    image_point = pj.point_from_projection(image, p)
    finite_image = la._op_norm(p.mat - image.mat) < 1.0 - tol.eq_tol
    if mo.moebius_domain(g, b, tol) != finite_image:
        return 1.0
    via_chart = mo.chart_inv(image_point, tol)
    direct = mo.moebius_apply(g, b, tol)
    return float(np.abs(via_chart.mat - direct.mat).max())


def _transition_instance(n: int, rng: np.random.Generator, tol: Tolerance):
    q = _rand_proj(n, rng, tol)
    r = gr.geodesic(q, gr.random_tangent(q, rng, rng.uniform(0.05, 0.6)), 1.0, tol)
    s = gr.geodesic(q, gr.random_tangent(q, rng, rng.uniform(0.05, 0.6)), 1.0, tol)
    x = mo.random_hp_vector(r, rng, rng.uniform(0.01, 0.3))
    return q, r, s, x


def _transition_formula(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    q, r, _, x = _transition_instance(n, rng, tol)
    moved = mo.chart_transition(q, r, x, tol)
    target = pj.classify(r.mat + x.mat, r, tol).range
    oracle = mo.chart_inv(pj.point_from_projection(target, q), tol)
    return float(np.abs(moved.mat - oracle.mat).max())


def _transition_cocycle(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    q, r, s, x = _transition_instance(n, rng, tol)
    via_s = mo.chart_transition(q, s, mo.chart_transition(s, r, x, tol), tol)
    direct = mo.chart_transition(q, r, x, tol)
    return float(np.abs(via_s.mat - direct.mat).max())


def _eps_closure(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    eps = p.eps
    u = dk.random_eps_unitary(p, rng).mat
    v = dk.random_eps_unitary(p, rng).mat
    u_inv = eps @ u.conj().T @ eps
    absu = la.psd_sqrt(u.conj().T @ u)
    residuals = [float(np.abs(w.conj().T @ eps @ w - eps).max())
                 for w in (u.conj().T, u_inv, absu, u @ v)]
    residuals.append(float(np.abs(u @ u_inv - np.eye(n)).max()))
    return _worst(residuals)


def _cone_power_stability(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    lam = dk.random_pos_eps_unitary(p, 1.0, _seed(rng))
    powers = (lam.power(t).mat for t in (-1.0, 0.5, 2.0, 0.3))
    return _worst(float(np.abs(lt @ p.eps @ lt - p.eps).max()) for lt in powers)


def _disk_pair(n: int, rng: np.random.Generator, tol: Tolerance):
    """Base projection and two disk points drawn through the positive cone."""
    p = _rand_proj(n, rng, tol)
    mu = dk.random_pos_eps_unitary(p, 1.0, _seed(rng))
    nu = dk.random_pos_eps_unitary(p, 1.0, _seed(rng))
    return p, dk.cone_to_disk(mu, tol), dk.cone_to_disk(nu, tol)


def _double_non_euclidean(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    _, m, nn = _disk_pair(n, rng, tol)
    return abs(2 * dk.d_non_euclidean(m, nn, tol) - dk.d_cone(m, nn, tol))


def _pseudochordal_chart(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p, m, _ = _disk_pair(n, rng, tol)
    base = dk.base_disk_point(p, tol)
    return abs(dk.d_pseudo_chordal(m, base, tol) - mo.d_chart(m.point, base.point, tol))


def _eps_invariance(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p, m, nn = _disk_pair(n, rng, tol)
    u = dk.random_eps_unitary(p, rng)
    um, un = dk.eps_action(u, m, tol), dk.eps_action(u, nn, tol)
    return _worst(abs(metric(um, un, tol) - metric(m, nn, tol))
                  for metric in (dk.rho, dk.d_pseudo_chordal, dk.d_non_euclidean, dk.d_cone))


def _cone_geodesic_closure(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p, m, nn = _disk_pair(n, rng, tol)
    gams = (dk.eps_geodesic(m.lam, nn.lam, float(t), tol).mat for t in np.linspace(0.0, 1.0, 50))
    return _worst(float(np.abs(gam @ p.eps @ gam - p.eps).max()) for gam in gams)


def _cone_geodesic_additivity(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    _, m, nn = _disk_pair(n, rng, tol)
    mu, nu = m.lam, nn.lam
    total = dk.d_cone(mu, nu)
    residuals = [abs(dk.d_cone(nu, dk.eps_geodesic(mu, nu, t, tol)) - t * total)
                 for t in (0.25, 0.5, 0.75)]
    mid = dk.eps_geodesic(mu, nu, 0.5, tol)
    residuals += [abs(dk.d_cone(mid, mu) - 0.5 * total),
                  abs(dk.d_cone(mid, nu) - 0.5 * total),
                  float(np.abs(dk.eps_geodesic(mu, nu, 0.0, tol).mat - nu.mat).max()),
                  float(np.abs(dk.eps_geodesic(mu, nu, 1.0, tol).mat - mu.mat).max())]
    return _worst(residuals)


def _cone_geodesic_length(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    _, m, nn = _disk_pair(n, rng, tol)
    [steps] = dk._cone_path_steps(m.lam, nn.lam, [], 2000)
    return abs(steps.sum() - dk.d_cone(m, nn))


def _cone_minimality(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    _, m, nn = _disk_pair(n, rng, tol)
    hs = []
    for _ in range(5):
        h = la.herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        hs.append(h * (rng.uniform(0.05, 0.4) / la._op_norm(h)))
    geo_len, *pert = dk._cone_path_integrals(m.lam, nn.lam, hs)
    return _worst(geo_len - length for length in pert)


def _disk_characterizations(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    inside = bool(rng.uniform() < 0.5)
    margin = 1e-3
    if inside:
        theta = rng.uniform(1e-3, np.pi / 4 - margin)
    else:
        theta = rng.uniform(np.pi / 4 + margin, np.pi / 2 - 0.01)
    m = _point_at_angle(p, p, theta, rng, tol)
    base = pj.classify(p.mat, p, tol)
    by_chart = dk.in_disk(m, tol)
    by_chordal = gr.d_chordal(m, base, tol) < np.sqrt(2) / 2
    by_spherical = gr.d_spherical(m, base, tol) < np.pi / 4
    return 0.0 if by_chart == by_chordal == by_spherical == inside else 1.0


def _disk_roundtrip(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    _, m, _ = _disk_pair(n, rng, tol)
    lam2 = dk.disk_to_cone(m, tol)
    again = dk.cone_to_disk(lam2, tol)
    return _worst((float(np.abs(lam2.mat - m.lam.mat).max()),
                   la._op_norm(again.point.range.mat - m.point.range.mat)))


def _rho_symmetry(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p, m, nn = _disk_pair(n, rng, tol)
    r1, r2 = dk.rho(m, nn, tol), dk.rho(nn, m, tol)
    # rho reduces eps nu^{1/2} p to nu^{-1/2} p; the unreduced n x n product
    # through eps is the independent route
    alt = la._op_norm(p.comp @ m.lam.sqrt.conj().T @ p.eps @ nn.lam.sqrt @ p.mat)
    return _worst((abs(r1 - r2), abs(r1 - alt)))


def _cone_block_structure(n: int, rng: np.random.Generator, tol: Tolerance) -> float:
    p = _rand_proj(n, rng, tol)
    lam = dk.random_pos_eps_unitary(p, 1.2, _seed(rng))
    b, bc = p.range_basis, p.null_basis
    x = lam.xparam.mat
    xb = bc.conj().T @ x @ b
    w, v = np.linalg.eigh(la.herm(xb.conj().T @ xb))
    s = np.sqrt(np.clip(w, 0.0, None))
    cosh_blk = la.spectral(v, np.cosh(s))
    sinhc_vals = np.where(s > 1e-8, np.sinh(s) / np.where(s > 0, s, 1.0), 1.0 + s * s / 6)
    sinhc = la.spectral(v, sinhc_vals)
    residuals = [float(np.abs(b.conj().T @ lam.mat @ b - cosh_blk).max()),
                 float(np.abs(bc.conj().T @ lam.mat @ b - xb @ sinhc).max())]
    # corner norm of any eps-unitary equals sinh of its positive part's corner
    u = dk.random_eps_unitary(p, rng)
    absu = dk.PositiveEpsUnitary(la.psd_sqrt(u.mat.conj().T @ u.mat), p, tol)
    expect = np.sinh(absu.xparam.norm)
    u_inv = p.eps @ u.mat.conj().T @ p.eps
    residuals += [abs(la._op_norm(p.comp @ wmat @ p.mat) - expect)
                  for wmat in (u.mat, u_inv, u.mat.conj().T)]
    return _worst(residuals)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Property:
    """One identity of the registry.

    ``stream`` keys the random draws of every instance.  With ``per_dim``
    set, each dimension runs ``trials`` instances; otherwise ``trials``
    instances in all cycle through the dimensions.
    """

    name: str
    statement: str
    stream: str
    default_trials: int
    per_dim: bool
    tolerance: Callable[[RunConfig], float]
    instance: Callable[[int, np.random.Generator, Tolerance], float]


REGISTRY = (
    Property("chart-roundtrip", "chart and chart_inv invert each other on their domains",
             "chart-roundtrip", 200, False, lambda c: c.geo_tol, _chart_roundtrip),
    Property("chart-tan-identity", "chart metric to the base equals tan of the spherical distance",
             "chart-tan", 500, False, lambda c: 1e-9, _chart_tan_identity),
    Property("chart-transition-cocycle", "chart transitions compose along triple overlaps",
             "transition-cocycle", 200, False, lambda c: 1e-7, _transition_cocycle),
    Property("chart-transition-formula", "closed-form chart transition matches the chart composition",
             "transition-formula", 200, False, lambda c: 1e-8, _transition_formula),
    Property("chordal-spherical-sin-identity", "chordal distance equals sin of the spherical distance",
             "sin-identity", 500, True, lambda c: 1e-10, _sin_identity),
    Property("chordal-unitary-invariance", "chordal distance is invariant under the unitary action",
             "chordal-invariance", 200, False, lambda c: c.eq_tol, _chordal_unitary_invariance),
    Property("class-map-well-defined", "canonical ranges ignore right corner-invertible factors",
             "class-map", 200, False, lambda c: c.eq_tol, _class_map_well_defined),
    Property("classify-idempotent", "classify returns partial isometries unchanged",
             "classify-idempotent", 200, False, lambda c: 0.0, _classify_idempotent),
    Property("cone-block-structure", "positive cone elements have cosh/sinh corner blocks",
             "cone-blocks", 100, False, lambda c: c.geo_tol, _cone_block_structure),
    Property("cone-geodesic-additivity", "cone distance grows linearly along cone geodesics",
             "cone-additivity", 20, False, lambda c: 1e-8, _cone_geodesic_additivity),
    Property("cone-geodesic-closure", "cone geodesics stay inside the positive cone",
             "cone-closure", 20, False, lambda c: 1e-9, _cone_geodesic_closure),
    Property("cone-geodesic-length", "discretized cone geodesic length equals the cone distance",
             "cone-length", 10, False, lambda c: 1e-4, _cone_geodesic_length),
    Property("cone-path-minimality", "perturbed cone paths are never shorter than the geodesic",
             "cone-minimality", 10, False, lambda c: 1e-6, _cone_minimality),
    Property("cone-power-stability", "real powers preserve the positive cone",
             "cone-powers", 200, False, lambda c: c.eq_tol, _cone_power_stability),
    Property("disk-double-non-euclidean", "twice the non-Euclidean distance equals the cone distance",
             "double-en", 500, True, lambda c: 1e-8, _double_non_euclidean),
    Property("disk-map-roundtrip", "the disk and cone coordinates invert each other",
             "disk-roundtrip", 200, False, lambda c: 1e-8, _disk_roundtrip),
    Property("disk-membership-characterizations", "chart, chordal and spherical disk tests agree",
             "disk-membership", 1000, False, lambda c: 0.5, _disk_characterizations),
    Property("eps-invariance", "all four disk metrics are invariant under the isometry action",
             "eps-invariance", 100, False, lambda c: 1e-8, _eps_invariance),
    Property("eps-unitary-closure", "adjoints, inverses, moduli and products stay eps-unitary",
             "eps-closure", 200, False, lambda c: c.eq_tol, _eps_closure),
    Property("func-calc-spectral-mapping", "functional calculus maps the spectrum pointwise",
             "func-calc", 200, False, lambda c: c.eq_tol, _func_calc_spectrum),
    Property("geodesic-arc-length", "discretized geodesic length equals arcsin of the chordal gap",
             "minimality", 100, False, lambda c: 1e-4, _geodesic_arc_length),
    Property("geodesic-log-roundtrip", "geodesic and its log invert each other below distance 1",
             "geodesic-roundtrip", 500, True, lambda c: 1e-8, _geodesic_roundtrip),
    Property("geodesic-minimality", "perturbed paths are never shorter than the geodesic",
             "minimality", 100, False, lambda c: 1e-6, _geodesic_minimality),
    Property("moebius-composition", "Moebius maps compose like their matrices",
             "moebius-composition", 200, False, lambda c: 1e-8, _moebius_composition),
    Property("moebius-identity", "the identity matrix induces the identity Moebius map",
             "moebius-identity", 50, False, lambda c: 1e-12, _moebius_identity),
    Property("moebius-projectivity-consistency", "Moebius maps agree with projectivities in the chart",
             "moebius-projectivity", 200, False, lambda c: 1e-8, _moebius_projectivity),
    Property("operator-norm-laws", "operator norm is submultiplicative and unitarily invariant",
             "op-norm", 200, False, lambda c: c.eq_tol, _op_norm_laws),
    Property("point-finiteness-characterizations", "corner, chordal and spherical finiteness agree",
             "finiteness", 500, False, lambda c: 0.5, _finiteness_characterizations),
    Property("polar-decomposition-residual", "polar factors reconstruct the matrix with unitary part",
             "polar", 200, False, lambda c: c.eq_tol, _polar_residual),
    Property("projectivity-group-action", "projectivities compose like their matrices",
             "projectivity-action", 200, False, lambda c: c.geo_tol, _projectivity_action),
    Property("pseudo-chordal-chart-identity", "pseudo-chordal distance to the center equals the chart norm",
             "dpc-chart", 500, False, lambda c: 1e-9, _pseudochordal_chart),
    Property("range-projection-formula", "algebraic range projection matches the SVD oracle",
             "range-formula", 300, False, lambda c: 1e-8, _range_formula),
    Property("range-rank-preserved", "canonical ranges have the rank of the base projection",
             "rank-preserved", 200, False, lambda c: c.eq_tol, _rank_preserved),
    Property("rho-symmetry", "the corner pairing is symmetric and reduces through the form",
             "rho-symmetry", 200, False, lambda c: 1e-10, _rho_symmetry),
    Property("sin-triangle-inequality", "chordal gaps obey the sine triangle bound",
             "sin-triangle", 200, False, lambda c: 1e-10, _sin_triangle),
    Property("unitary-extension-class", "unitary extensions are unitary and preserve the class",
             "unitary-extension", 200, False, lambda c: c.eq_tol, _unitary_extension),
    Property("unitary-log-roundtrip", "the principal unitary log inverts the exponential",
             "unitary-log", 200, False, lambda c: c.geo_tol, _log_exp_roundtrip),
)


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _ChildError(Exception):
    """The ``Type: message`` text of an instance's error in a forked child."""


# A property's keys are cut into at most this many contiguous chunks, so the
# queue of chunk indices, 4 bytes each, fits in one page of its pipe: writing
# it never blocks, and then closing it ends the queue in EOF.
_MAX_CHUNKS = 1024


def _queued(queue: int):
    """The chunk indices read from the pipe ``queue``, 4 bytes each, until EOF."""
    while token := os.read(queue, 4):
        yield int.from_bytes(token, "little")


def _chunks_worst(prop: Property, cfg: RunConfig, keys: list, size: int, chunks,
                  queue: int | None) -> tuple:
    """Worst residual over the instances of ``chunks``, chunk ``c`` being
    ``keys[c * size:(c + 1) * size]``, and the index and exception of the
    first of them that raises, or None when none does.  At that first
    failure the pipe ``queue``, if given, is emptied: the queue hands out
    chunks in increasing order, so none left in it can change the report."""
    tol = cfg.tol
    residuals = []
    for c in chunks:
        for k in range(c * size, min((c + 1) * size, len(keys))):
            n, i = keys[k]
            try:
                residuals.append(prop.instance(n, _rng(cfg, prop.stream, n, i), tol))
            except Exception as exc:  # noqa: BLE001 - the earliest one is raised for the property
                if queue is not None:
                    while os.read(queue, 4 * _MAX_CHUNKS):
                        pass
                return float(_worst(residuals)), (k, exc)
    return float(_worst(residuals)), None


def _fork_worker(prop: Property, cfg: RunConfig, keys: list, size: int, queue: int):
    """Fork a child that takes chunks from ``queue`` until it is empty,
    writes their pickled ``_chunks_worst``, its error as a ``_ChildError``,
    to a pipe and exits; returns its pid and the read end of the pipe."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            worst, failure = _chunks_worst(prop, cfg, keys, size, _queued(queue), queue)
            if failure is not None:
                k, exc = failure
                failure = k, _ChildError(f"{type(exc).__name__}: {exc}")
            with os.fdopen(write, "wb") as pipe:
                pipe.write(pickle.dumps((worst, failure)))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _worst_residual(prop: Property, cfg: RunConfig, trials: int) -> float:
    """Worst residual of ``prop`` over its instances, each drawn from its own
    (stream, dimension, trial) generator; ``trials`` counts per dimension
    when ``prop.per_dim`` is set and in all otherwise.

    The ordered instances are cut into at most 1024 contiguous chunks.
    This process evaluates the first chunk, while ``W`` forked children,
    ``W`` the CPUs of the affinity mask (at most one per other chunk), take
    the others from a queue, one pipe that holds their indices in
    increasing order, until it is empty, so a child on a faster CPU takes
    more of them.  This process's share is the same in every run, so a
    tracer or profiler attached to it sees the same calls each time.  A
    worker stops at its first failing instance and empties the queue.
    Every instance below the first failing one is evaluated; a NaN in any
    worker wins, and the error of the first failing instance is raised
    (from a child as a ``_ChildError`` with its text), so reports match a
    one-CPU run byte for byte.  A child that exits without reporting
    raises ``ChildProcessError`` ahead of every instance's error.  With
    one CPU, one chunk, or without ``os.fork``, this process evaluates
    every chunk and nothing is forked.  A fork copies only the calling
    thread, so callers should be single-threaded.  The children's memory
    is not counted in this process's ``ru_maxrss``.  Every child is reaped
    before this returns or raises; on an exception here, such as an
    interrupt, the children are killed first.
    """
    if prop.per_dim:
        keys = [(n, i) for n in cfg.dims for i in range(trials)]
    else:
        keys = [(cfg.dims[i % len(cfg.dims)], i) for i in range(trials)]
    size = -(-len(keys) // _MAX_CHUNKS)
    count = -(-len(keys) // size)
    cpus = _cpu_count() if hasattr(os, "fork") else 1
    forks = min(cpus, count - 1) if cpus > 1 else 0
    children, queue = {}, None
    try:
        if forks:
            queue, feed = os.pipe()
            os.write(feed, b"".join(c.to_bytes(4, "little") for c in range(1, count)))
            os.close(feed)
            for w in range(1, forks + 1):
                pid, pipe = _fork_worker(prop, cfg, keys, size, queue)
                children[pid] = w, pipe
        results = [_chunks_worst(prop, cfg, keys, size, (0,) if forks else range(count), queue)]
        for pid, (w, pipe) in list(children.items()):
            data = pipe.read()
            pipe.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            results.append(pickle.loads(data) if data else (0.0, (-1, ChildProcessError(
                f"trial worker {w} of {forks} exited with status {status} before reporting"))))
    finally:
        if queue is not None:
            os.close(queue)
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return _worst(worst for worst, _ in results)


def run_property(prop: Property, cfg: RunConfig) -> PropertyResult:
    trials = cfg.trials if cfg.trials is not None else prop.default_trials
    tolerance = float(prop.tolerance(cfg))
    try:
        residual = float(_worst_residual(prop, cfg, trials))
        error = ""
    except Exception as exc:  # noqa: BLE001 - a failing suite must not stop the report
        residual = float("inf")
        error = str(exc) if isinstance(exc, _ChildError) else f"{type(exc).__name__}: {exc}"
    passed = bool(np.isfinite(residual) and residual <= tolerance)
    return PropertyResult(
        name=prop.name,
        statement=prop.statement,
        trials=trials,
        dims=tuple(cfg.dims),
        max_residual=residual,
        tolerance=tolerance,
        passed=passed,
        error=error,
    )


def run_all(cfg: RunConfig, names: tuple | None = None) -> Report:
    """Run every registered property (or a named subset) and assemble a report."""
    report = Report(config={
        "seed": cfg.seed,
        "dims": list(cfg.dims),
        "trials": cfg.trials,
        "eq_tol": cfg.eq_tol,
        "geo_tol": cfg.geo_tol,
    })
    for prop in sorted(REGISTRY, key=lambda pr: pr.name):
        if names is not None and prop.name not in names:
            continue
        report.properties.append(run_property(prop, cfg))
    return report


def report_to_json(report: Report) -> str:
    obj = {
        "config": report.config,
        "overall_pass": report.overall_pass,
        "properties": [
            {
                "name": r.name,
                "statement": r.statement,
                "trials": r.trials,
                "dims": list(r.dims),
                "max_residual": r.max_residual,
                "tolerance": r.tolerance,
                "pass": r.passed,
                "error": r.error,
            }
            for r in report.properties
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: Report) -> str:
    lines = ["name,trials,max_residual,tolerance,pass,error"]
    for r in report.properties:
        lines.append(
            f"{r.name},{r.trials},{r.max_residual!r},{r.tolerance!r},{int(r.passed)},{r.error}"
        )
    return "\n".join(lines) + "\n"
