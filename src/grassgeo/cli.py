"""Command line front end.

Subcommands: verify, dist, geodesic, length, moebius, chart, disk-dist,
disk-geodesic, random.  All matrix I/O uses the JSON formats of
:mod:`grassgeo.serialize`.  Exit codes form a stable contract:

    0  success (for verify: every property passed)
    1  verify found a failing property
    2  input error (bad arguments, malformed files, unwritable output)
    3  OutOfRange          (metric outside its closed-form regime)
    4  NotFinitePoint      (chart preconditions violated)
    5  NotInDisk           (disk preconditions violated)
    6  OutsideDomain       (Moebius or transition domain violated)
    7  NotInvertible       (an invertible matrix was required)
    8  any other computational error
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import disk as dk
from . import grassmann as gr
from . import moebius as mo
from . import projective as pj
from . import serialize as se
from . import verify as vf
from .errors import (
    GrassgeoError,
    InvalidInput,
    NotFinitePoint,
    NotInDisk,
    NotInvertible,
    OutOfRange,
    OutsideDomain,
)
from .linalg import Tolerance

_EXIT_CODES = (
    (InvalidInput, 2),
    (OutOfRange, 3),
    (NotFinitePoint, 4),
    (NotInDisk, 5),
    (OutsideDomain, 6),
    (NotInvertible, 7),
)

_CSV_NOTE = (
    "CSV tables have the fixed columns t, cumulative_length, then the matrix "
    "entries flattened row-major as re_i_j, im_i_j."
)


def _env_seed() -> int:
    raw = os.environ.get("GRASSGEO_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidInput(f"GRASSGEO_SEED must be an integer, got {raw!r}") from exc


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--eq-tol", type=float, default=1e-9,
                    help="tolerance for algebraic identity checks (default 1e-9)")
    sp.add_argument("--geo-tol", type=float, default=1e-6,
                    help="tolerance for geometric checks (default 1e-6)")
    sp.add_argument("--seed", type=int, default=None,
                    help="random seed (default: GRASSGEO_SEED env var, else 0)")
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    help="output format for tables and reports")
    sp.add_argument("--output", default=None,
                    help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassgeo",
        description="Metrics, geodesics and Moebius maps of matrix projective spaces.",
        epilog=_CSV_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run every property suite and write a report")
    _add_common(sp)
    sp.add_argument("--dims", default="2,3,4,5,6,7,8",
                    help="comma-separated dimensions (default 2..8)")
    sp.add_argument("--trials", type=int, default=None,
                    help="override the per-property trial counts")

    sp = sub.add_parser("dist", help="distance between two points in a chosen metric")
    _add_common(sp)
    sp.add_argument("--metric", required=True,
                    choices=("chordal", "spherical", "dk", "dpc", "en", "dplus"))
    sp.add_argument("--context", default=None,
                    help="projection JSON providing the context for projection-kind inputs "
                         "(default: the first input when both are projections)")
    sp.add_argument("first")
    sp.add_argument("second")

    sp = sub.add_parser("geodesic", help="sample the geodesic between two points")
    _add_common(sp)
    sp.add_argument("--space", choices=("grassmann", "cone"), default="grassmann")
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--context", default=None)
    sp.add_argument("first")
    sp.add_argument("second")

    sp = sub.add_parser("length", help="discretized geodesic length between two points")
    _add_common(sp)
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--context", default=None)
    sp.add_argument("first")
    sp.add_argument("second")

    sp = sub.add_parser("moebius", help="apply a Moebius map and report its domain status")
    _add_common(sp)
    sp.add_argument("--context", required=True, help="projection JSON fixing the chart")
    sp.add_argument("matrix", help="matrix JSON of the invertible element")
    sp.add_argument("argument", help="matrix JSON of the chart coordinate")

    sp = sub.add_parser("chart", help="convert between chart coordinates and points")
    _add_common(sp)
    sp.add_argument("--context", required=True, help="projection JSON fixing the chart")
    sp.add_argument("--inverse", action="store_true",
                    help="convert a point to its chart coordinate instead")
    sp.add_argument("input")

    sp = sub.add_parser("disk-dist", help="all four disk metrics between two points")
    _add_common(sp)
    sp.add_argument("--context", default=None)
    sp.add_argument("first")
    sp.add_argument("second")

    sp = sub.add_parser("disk-geodesic", help="sample the disk geodesic between two points")
    _add_common(sp)
    sp.set_defaults(space="disk")
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--context", default=None)
    sp.add_argument("first")
    sp.add_argument("second")

    sp = sub.add_parser("random", help="generate random instances as JSON")
    _add_common(sp)
    sp.add_argument("--kind", required=True,
                    choices=("projection", "point", "tangent", "hpvector",
                             "pos-eps-unitary", "invertible", "unitary"))
    sp.add_argument("--dim", type=int, default=4)
    sp.add_argument("--rank", type=int, default=None, help="default: max(1, dim // 2)")
    sp.add_argument("--radius", type=float, default=0.5,
                    help="chordal radius for random points")
    sp.add_argument("--scale", type=float, default=1.0,
                    help="norm scale for tangents, coordinates and cone elements")
    sp.add_argument("--context", default=None,
                    help="projection JSON to use as the context instead of a "
                         "seeded random one (points, tangents, coordinates, "
                         "cone elements)")
    return parser


def _tol(args) -> Tolerance:
    return Tolerance(args.eq_tol, args.geo_tol)


def _seed(args) -> int:
    return args.seed if args.seed is not None else _env_seed()


def _write(args, text: str):
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write {args.output}: {exc}") from exc


def _load_points(args, tol: Tolerance):
    first = se.load_obj(args.first)
    second = se.load_obj(args.second)
    context = None
    if getattr(args, "context", None):
        context = se.projection_from_obj(se.load_obj(args.context), tol)
    elif first.get("kind") == "projection":
        context = se.projection_from_obj(first, tol)
    m = se.point_from_obj(first, context, tol)
    n = se.point_from_obj(second, context or m.context, tol)
    gr._check_context(m, n, tol)
    return m, n


def _fmt(value: float) -> str:
    return f"{value:.12f}"


def _table_text(args, rows, mats, header_extra: dict) -> str:
    n = mats.shape[-1]
    if args.format == "csv":
        cols = ["t", "cumulative_length"]
        for i in range(n):
            for j in range(n):
                cols += [f"re_{i}_{j}", f"im_{i}_{j}"]
        row = ",".join(["%.12g", "%.12g"] + ["%.17g"] * (2 * n * n))
        flat = np.ascontiguousarray(mats, dtype=complex).reshape(len(mats), -1).view(float)
        lines = [",".join(cols)]
        lines += [row % (t, cum, *vals) for (t, cum), vals in zip(rows, flat.tolist())]
        return "\n".join(lines) + "\n"
    payload = dict(header_extra)
    payload["rows"] = [
        {"t": t, "cumulative_length": cum, "matrix": se.matrix_to_obj(mat)}
        for (t, cum), mat in zip(rows, mats)
    ]
    return se.dumps(payload)


def _cmd_verify(args) -> int:
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError as exc:
        raise InvalidInput(f"cannot parse dims {args.dims!r}") from exc
    cfg = vf.RunConfig(seed=_seed(args), dims=dims, trials=args.trials,
                       eq_tol=args.eq_tol, geo_tol=args.geo_tol)
    report = vf.run_all(cfg)
    for rec in report.properties:
        status = "pass" if rec.passed else "FAIL"
        print(f"{status}  {rec.name}  max_residual={rec.max_residual:.3e}"
              f"  tolerance={rec.tolerance:.1e}", file=sys.stderr)
    text = vf.report_to_json(report) if args.format == "json" else vf.report_to_csv(report)
    _write(args, text)
    return 0 if report.overall_pass else 1


def _cmd_dist(args) -> int:
    tol = _tol(args)
    m, n = _load_points(args, tol)
    if args.metric == "chordal":
        value = gr.d_chordal(m, n, tol)
    elif args.metric == "spherical":
        value = gr.d_spherical(m, n, tol)
    elif args.metric == "dk":
        value = mo.d_chart(m, n, tol)
    else:
        dm, dn = dk.to_disk_point(m, tol), dk.to_disk_point(n, tol)
        value = {
            "dpc": dk.d_pseudo_chordal,
            "en": dk.d_non_euclidean,
            "dplus": dk.d_cone,
        }[args.metric](dm, dn, tol)
    _write(args, _fmt(value) + "\n")
    return 0


def _geodesic_table(args, space: str) -> tuple:
    """Rows (t, cumulative length), sampled matrices and closed-form distance
    of a geodesic; ``disk`` samples the ``cone`` geodesic's disk points.
    The lengths come from the small-side step kernel of each geometry, not
    from the sampled matrices."""
    tol = _tol(args)
    if args.samples < 2:
        raise InvalidInput("samples must be at least 2")
    m, n = _load_points(args, tol)
    ts = np.linspace(0.0, 1.0, args.samples)
    if space == "grassmann":
        z = gr.geodesic_log(m.range, n.range, tol)
        [steps] = gr._path_steps(*gr._corners(m.range, z.mat, []), args.samples, gr._GRASSMANN)
        mats = gr.geodesic_curve(m.range, z, args.samples).sample(ts)
        closed = gr.d_spherical(m, n, tol)
    else:
        start, end = dk.disk_to_cone(m, tol), dk.disk_to_cone(n, tol)
        [steps] = dk._cone_path_steps(end, start, [], args.samples)
        closed = dk.d_cone(start, end)
        sampler = dk._eps_geodesic_points if space == "disk" else dk.eps_geodesic_samples
        mats = sampler(end, start, ts)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    return list(zip(ts.tolist(), cum.tolist())), mats, closed


def _cmd_geodesic(args) -> int:
    rows, mats, closed = _geodesic_table(args, args.space)
    text = _table_text(args, rows, mats,
                       {"space": args.space, "closed_form_distance": closed})
    _write(args, text)
    return 0


def _cmd_length(args) -> int:
    tol = _tol(args)
    if args.samples < 2:
        raise InvalidInput("samples must be at least 2")
    m, n = _load_points(args, tol)
    z = gr.geodesic_log(m.range, n.range, tol)
    _write(args, _fmt(gr.tangent_path_lengths(m.range, z, [], args.samples)[0]) + "\n")
    return 0


def _cmd_moebius(args) -> int:
    tol = _tol(args)
    p = se.projection_from_obj(se.load_obj(args.context), tol)
    g = mo.MoebiusMap(se.matrix_from_obj(se.load_obj(args.matrix)), p, tol)
    b = mo.HpVector(se.matrix_from_obj(se.load_obj(args.argument)), p, tol)
    try:
        out = mo.moebius_apply(g, b, tol)
    except OutsideDomain:
        _write(args, '{"in_domain": false, "result": null}\n')
        return 6
    _write(args, se.dumps({"in_domain": True, "result": se.matrix_to_obj(out.mat)}))
    return 0


def _cmd_chart(args) -> int:
    tol = _tol(args)
    p = se.projection_from_obj(se.load_obj(args.context), tol)
    obj = se.load_obj(args.input)
    if args.inverse:
        point = se.point_from_obj(obj, p, tol)
        x = mo.chart_inv(point, tol)
        _write(args, se.dumps(se.matrix_to_obj(x.mat)))
    else:
        x = mo.HpVector(se.matrix_from_obj(obj), p, tol)
        point = mo.chart(x, tol)
        _write(args, se.dumps(se.point_to_obj(point)))
    return 0


def _cmd_disk_dist(args) -> int:
    tol = _tol(args)
    m, n = _load_points(args, tol)
    dm, dn = dk.to_disk_point(m, tol), dk.to_disk_point(n, tol)
    values = {
        "rho": dk.rho(dm, dn, tol),
        "dpc": dk.d_pseudo_chordal(dm, dn, tol),
        "en": dk.d_non_euclidean(dm, dn, tol),
        "dplus": dk.d_cone(dm, dn, tol),
    }
    if args.format == "csv":
        text = "metric,value\n" + "".join(f"{k},{_fmt(v)}\n" for k, v in values.items())
    else:
        text = se.dumps({k: float(_fmt(v)) for k, v in values.items()})
    _write(args, text)
    return 0


def _cmd_random(args) -> int:
    tol = _tol(args)
    seed = _seed(args)
    n = args.dim
    if n < 1:
        raise InvalidInput(f"dimension must be at least 1, got {n}")
    rank = args.rank if args.rank is not None else max(1, n // 2)
    rng = np.random.default_rng(seed)
    from . import linalg as la

    def context_projection():
        if args.context:
            return se.projection_from_obj(se.load_obj(args.context), tol)
        return pj.random_projection(n, rank, seed, tol)

    if args.kind == "projection":
        q = pj.random_projection(n, rank, seed, tol)
        obj = se.projection_to_obj(q)
    elif args.kind == "point":
        m = pj.random_point_near(context_projection(), args.radius, seed + 1, tol)
        obj = se.point_to_obj(m)
    elif args.kind == "invertible":
        obj = se.matrix_to_obj(la.random_invertible(n, rng))
    elif args.kind == "unitary":
        obj = se.matrix_to_obj(la.random_unitary(n, rng))
    else:
        p = context_projection()
        ctx = se.matrix_to_obj(p.mat)
        if args.kind == "tangent":
            z = gr.random_tangent(p, rng, args.scale)
            obj = {"kind": "tangent", "matrix": se.matrix_to_obj(z.mat), "context": ctx}
        elif args.kind == "hpvector":
            x = mo.random_hp_vector(p, rng, args.scale)
            obj = {"kind": "hpvector", "matrix": se.matrix_to_obj(x.mat), "context": ctx}
        else:
            lam = dk.random_pos_eps_unitary(p, args.scale, seed + 1, tol)
            obj = {"kind": "pos_eps_unitary", "matrix": se.matrix_to_obj(lam.mat),
                   "context": ctx}
    _write(args, se.dumps(obj))
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "dist": _cmd_dist,
    "geodesic": _cmd_geodesic,
    "length": _cmd_length,
    "moebius": _cmd_moebius,
    "chart": _cmd_chart,
    "disk-dist": _cmd_disk_dist,
    "disk-geodesic": _cmd_geodesic,
    "random": _cmd_random,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except GrassgeoError as exc:
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                return code
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 8
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
