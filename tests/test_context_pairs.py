"""Every public function that takes two objects over a context decides
"same context" the one way of ``projective._check_context``: the same
projection object, or the same shape with entries within eq_tol.

Objects over a projection turned 1e-7 away, over an unrelated projection
of the same rank, or over a projection of another dimension raise
``InvalidInput`` (``InvalidTangent`` for a tangent); objects over an equal
copy of the context are accepted and give the same bits as over the one
object.
"""

import numpy as np
import pytest

from grassgeo import cli
from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import moebius as mo
from grassgeo import projective as pj
from grassgeo import serialize as se
from grassgeo.errors import InvalidInput, InvalidTangent

TS = np.array([0.0, 0.3, 1.0])


def contexts():
    """The context ``p``, an equal copy, and three that differ from it by
    more than eq_tol: turned by 1e-7, unrelated, and of another dimension.
    ``p`` and its copy are built alike, so objects over them have the same
    bits."""
    p = pj.Projection(pj.random_projection(5, 2, 7).mat)
    near = gr.geodesic(p, gr.random_tangent(p, np.random.default_rng(0), 1e-7), 1.0)
    assert 1e-8 < np.abs(near.mat - p.mat).max() < 1e-6
    return p, {"copy": pj.Projection(p.mat.copy()), "near": near,
               "far": pj.random_projection(5, 2, 8),
               "other-dimension": pj.random_projection(6, 2, 0)}


def point(ctx, seed):
    return pj.random_point_near(ctx, 0.5, seed)


def cone(ctx, seed):
    return dk.random_pos_eps_unitary(ctx, 1.0, seed)


def disk_point(ctx, seed):
    return dk.cone_to_disk(cone(ctx, seed))


def tangent(ctx, seed):
    return gr.random_tangent(ctx, np.random.default_rng(seed), 0.5)


def coordinate(ctx, seed):
    return mo.random_hp_vector(ctx, np.random.default_rng(seed), 0.3)


def moebius_map(ctx):
    g = np.random.default_rng(ctx.dim).standard_normal((ctx.dim, ctx.dim))
    return mo.MoebiusMap(np.eye(ctx.dim) + 0.1 * g / np.linalg.norm(g, 2), ctx)


def perturbation(ctx):
    h = np.random.default_rng(ctx.dim).standard_normal((ctx.dim, ctx.dim))
    return 0.3 * (h + h.T)


# each pair: a call with its first object over ``a`` and its second over ``b``
PAIRS = {
    "class_equal": lambda a, b: pj.class_equal(point(a, 1), point(b, 2)),
    "d_chordal": lambda a, b: gr.d_chordal(point(a, 1), point(b, 2)),
    "d_spherical": lambda a, b: gr.d_spherical(point(a, 1), point(b, 2)),
    "d_chart": lambda a, b: mo.d_chart(point(a, 1), point(b, 2)),
    "rho": lambda a, b: dk.rho(disk_point(a, 1), disk_point(b, 2)),
    "d_pseudo_chordal": lambda a, b: dk.d_pseudo_chordal(disk_point(a, 1), disk_point(b, 2)),
    "d_non_euclidean": lambda a, b: dk.d_non_euclidean(disk_point(a, 1), disk_point(b, 2)),
    "d_cone-disk": lambda a, b: dk.d_cone(disk_point(a, 1), disk_point(b, 2)),
    "d_cone-cone": lambda a, b: dk.d_cone(cone(a, 1), cone(b, 2)),
    "DiskPoint": lambda a, b: dk.DiskPoint(disk_point(a, 1).point, cone(b, 1)),
    "eps_geodesic": lambda a, b: dk.eps_geodesic(cone(a, 1), cone(b, 2), 0.3),
    "eps_geodesic_samples": lambda a, b: dk.eps_geodesic_samples(cone(a, 1), cone(b, 2), TS),
    "eps_geodesic_points": lambda a, b: dk._eps_geodesic_points(cone(a, 1), cone(b, 2), TS),
    "cone_perturbed_path": lambda a, b: dk.cone_perturbed_path(cone(a, 1), cone(b, 2),
                                                               perturbation(a), TS),
    "cone_path_steps": lambda a, b: list(dk._cone_path_steps(cone(a, 1), cone(b, 2),
                                                             [perturbation(a)], 20)),
    "cone_path_integrals": lambda a, b: dk._cone_path_integrals(cone(a, 1), cone(b, 2),
                                                                [perturbation(a)]),
    "moebius_apply": lambda a, b: mo.moebius_apply(moebius_map(a), coordinate(b, 1)),
    "moebius_domain": lambda a, b: mo.moebius_domain(moebius_map(a), coordinate(b, 1)),
    "chart_transition": lambda a, b: mo.chart_transition(point(a, 1).range, a, coordinate(b, 2)),
}

# each call: a function at the base ``a`` taking tangents, one of them at ``b``
TANGENT_PAIRS = {
    "geodesic": lambda a, b: gr.geodesic(a, tangent(b, 1), 0.5),
    "geodesic_curve": lambda a, b: gr.geodesic_curve(a, tangent(b, 1), 20).sample(TS),
    "perturbed_curve-z": lambda a, b: gr.perturbed_curve(a, tangent(b, 1), tangent(a, 2),
                                                         20).sample(TS),
    "perturbed_curve-w": lambda a, b: gr.perturbed_curve(a, tangent(a, 1), tangent(b, 2),
                                                         20).sample(TS),
    "tangent_path_lengths-z": lambda a, b: gr.tangent_path_lengths(a, tangent(b, 1),
                                                                   [tangent(a, 2)], 20),
    "tangent_path_lengths-w": lambda a, b: gr.tangent_path_lengths(a, tangent(a, 1),
                                                                   [tangent(b, 2)], 20),
}

CASES = ([(name, call, InvalidInput) for name, call in PAIRS.items()]
         + [(name, call, InvalidTangent) for name, call in TANGENT_PAIRS.items()])
IDS = [name for name, _, _ in CASES]


def arrays(out) -> list:
    """The arrays and numbers a result carries, in a fixed order."""
    if isinstance(out, (tuple, list)):
        return [a for item in out for a in arrays(item)]
    if isinstance(out, dk.DiskPoint):
        return arrays(out.point) + [out.lam.mat]
    if isinstance(out, pj.ProjectivePoint):
        return [out.rep.mat, out.range.mat]
    if hasattr(out, "mat"):
        return [out.mat]
    return [np.asarray(out)]


@pytest.mark.parametrize("name, call, error", CASES, ids=IDS)
@pytest.mark.parametrize("other", ["near", "far", "other-dimension"])
def test_mixed_contexts_raise(name, call, error, other):
    p, others = contexts()
    with pytest.raises(error):
        call(p, others[other])


@pytest.mark.parametrize("name, call, error", CASES, ids=IDS)
def test_copied_context_is_accepted(name, call, error):
    p, others = contexts()
    shared, copied = arrays(call(p, p)), arrays(call(p, others["copy"]))
    assert len(shared) == len(copied)
    for a, b in zip(shared, copied):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("metric", ["chordal", "spherical", "dk", "dpc", "en", "dplus"])
def test_cli_pairs_over_mixed_contexts(metric, tmp_path):
    # each point file carries its own context: equal copies are accepted,
    # contexts 1e-7 apart are an input error (exit code 2)
    p, others = contexts()
    files = {}
    for label, ctx, seed in (("a", p, 1), ("b", p, 2), ("near", others["near"], 2)):
        files[label] = str(tmp_path / f"{label}.json")
        se.save_obj(se.point_to_obj(point(ctx, seed)), files[label])
    assert cli.main(["dist", "--metric", metric, "--output", str(tmp_path / "out.txt"),
                     files["a"], files["b"]]) == 0
    assert cli.main(["dist", "--metric", metric, files["a"], files["near"]]) == 2
