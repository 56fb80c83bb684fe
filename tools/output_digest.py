"""Per-function SHA-256 digests of raw library outputs over a fixed sweep.

Every function is run on seeded instances at each dimension of ``--dims``:
every rank for n <= 8, ranks 0, 1, 2, n/2, n-1 and n above.  The bytes of
each result (arrays with shape and dtype, floats by ``repr``, the type and
message of a raised exception) are hashed in order, one digest per
function.  Refactors that must keep outputs bit for bit compare two runs:

    diff <(python tools/output_digest.py --src ../parent/src) \
         <(python tools/output_digest.py)

Where the digests differ, ``--values FILE`` stores every record's raw value
or raised exception, and ``--compare OLD NEW`` compares two such files
record by record: per function, the records, how many are bit-identical,
the largest move relative to the record's largest entry, and the records
that switch between a value and an exception:

    python tools/output_digest.py --src ../parent/src --values old.pkl
    python tools/output_digest.py --values new.pkl
    python tools/output_digest.py --compare old.pkl new.pkl

The sweep draws its tangents, chart coordinates and nearby points with
norms of its own (``np.linalg.norm(., 2)``), so that a rounding change in
the package's norm kernel moves only the records of the functions that
call it.
"""

from __future__ import annotations

import argparse
import hashlib
import pickle
import sys
from pathlib import Path

import numpy as np

T_GRID = (-0.5, 0.0, 0.3, 1.0, 2.0)


def ranks(n: int):
    if n <= 8:
        return range(n + 1)
    return sorted({0, 1, 2, n // 2, n - 1, n})


def encode(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(encode(v) for v in value) + b")"
    return repr(value).encode()


def entries(value) -> np.ndarray:
    """The numbers of a raw value, flattened into one complex array."""
    if isinstance(value, (tuple, list)):
        parts = [entries(v) for v in value]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)
    return np.ravel(np.asarray(value, dtype=complex))


class Digests:
    """Per-function digests of the records; with ``keep``, also the list
    ``values`` of ``(name, bytes, entries)`` for a value and
    ``(name, message, None)`` for a raised exception."""

    def __init__(self, keep: bool = False):
        self.hashes = {}
        self.counts = {}
        self.values = [] if keep else None

    def record(self, name, fn, *args):
        """Run ``fn(*args)``, hash its raw output under ``name`` and return
        it, or None when it raised (hashed as exception type and message)."""
        try:
            out = fn(*args)
        except Exception as exc:
            message, out = f"{type(exc).__name__}: {exc}", None
            data, kept = message.encode(), (name, message, None)
        else:
            value = raw(out)
            data = encode(value)
            kept = (name, data, entries(value)) if self.values is not None else None
        h = self.hashes.setdefault(name, hashlib.sha256())
        h.update(len(data).to_bytes(8, "little") + data)
        self.counts[name] = self.counts.get(name, 0) + 1
        if self.values is not None:
            self.values.append(kept)
        return out


def raw(out):
    """The arrays and numbers an object result carries."""
    if hasattr(out, "rep") and hasattr(out, "range"):
        return (out.rep.mat, out.range.mat, out.range.rank)
    if hasattr(out, "point") and hasattr(out, "lam"):
        return (out.point.rep.mat, out.point.range.mat, out.lam.mat)
    if hasattr(out, "mat"):
        return out.mat
    if hasattr(out, "g"):
        return out.g
    return out


def norm2(a: np.ndarray) -> float:
    """Operator norm from numpy's SVD, not from the package's norm kernel."""
    return float(np.linalg.norm(a, 2))


def corner(p, rng: np.random.Generator) -> np.ndarray:
    """A random corner ``(1-p) M p``, drawn as the package's samplers draw it."""
    n = p.dim
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return p.comp @ m @ p.mat


def tangent(gg, p, rng: np.random.Generator, norm: float):
    """A random tangent at ``p`` of operator norm ``norm``."""
    x = corner(p, rng)
    z = x - x.conj().T
    zn = norm2(z)
    return gg.TangentVector(z * (norm / zn) if zn else np.zeros_like(z), p)


def hp_vector(gg, p, rng: np.random.Generator, norm: float):
    """A random chart coordinate at ``p`` of operator norm ``norm``."""
    x = corner(p, rng)
    xn = norm2(x)
    return gg.HpVector(x * (norm / xn) if xn else np.zeros_like(x), p)


def point_near(gg, p, radius: float, seed: int):
    """A random point within chordal distance ``radius`` of ``[p]``."""
    rng = np.random.default_rng(seed)
    x = corner(p, rng)
    z = x - x.conj().T
    zn = norm2(z)
    if zn == 0.0:
        return gg.classify(p.mat, p)
    theta = np.arcsin(radius) * (1.0 - rng.uniform())
    return gg.classify(gg.linalg.expm(z * (theta / zn)) @ p.mat, p)


def pos_eps_unitary(gg, p, scale: float, seed: int):
    """A random cone element ``exp(x + x*)`` with corner norm at most ``scale``."""
    rng = np.random.default_rng(seed)
    magnitude = scale * (1.0 - rng.uniform())
    return gg.PositiveEpsUnitary.from_xparam(hp_vector(gg, p, rng, magnitude))


def sweep(gg, dims, rec: Digests):
    for n in dims:
        # the two general kernels, from a generator of their own: exp of
        # non-normal matrices of 1-norm 1e-3 to 30, and the log of unitaries
        # with spread and clustered angles and a top angle up to pi - 1e-8
        kernel_rng = np.random.default_rng(1000 * n + 999)
        for norm in (1e-3, 0.1, 1.0, 5.0, 30.0):
            a = kernel_rng.standard_normal((n, n)) + 1j * kernel_rng.standard_normal((n, n))
            rec.record("expm", gg.linalg.expm, a * (norm / np.abs(a).sum(axis=0).max()))
        for top in (None, "cluster", np.pi - 1e-3, np.pi - 1e-6, np.pi - 1e-8, np.pi - 1e-10):
            v = gg.linalg.random_unitary(n, kernel_rng)
            theta = kernel_rng.uniform(-3.0, 3.0, size=n)
            if top == "cluster":
                theta[: n // 2 + 1] = 0.3 + 1e-9 * kernel_rng.standard_normal(n // 2 + 1)
            elif top is not None:
                theta[0] = top
            rec.record("log_unitary", gg.linalg.log_unitary, (v * np.exp(1j * theta)) @ v.conj().T)
        for k in ranks(n):
            seed = 1000 * n + k
            rng = np.random.default_rng(seed)
            p = gg.random_projection(n, k, seed)
            g = gg.linalg.random_invertible(n, rng)
            u = gg.linalg.random_unitary(n, rng)
            a = g @ p.mat
            deficient = a.copy()
            if k:
                deficient = deficient @ (np.eye(n) - np.outer(p.range_basis[:, 0],
                                                              p.range_basis[:, 0].conj()))
            for elem in (a, u @ p.mat, deficient):
                rec.record("in_lp", gg.in_lp, elem, p)
                rec.record("classify", gg.classify, elem, p)
                rec.record("corner_min_sv", gg.projective.corner_min_sv, elem, p)
                rec.record("corner_inverse", gg.projective.corner_inverse, elem, p)
            # members whose corner Gram matrix b* a*a b has smallest
            # eigenvalue 10^e, from eq_tol up to where rounding matters
            gram_rng = np.random.default_rng(seed + 7)
            for e in (-9.0, -8.5, -8.0, -7.5, -7.0) if k else ():
                lam = np.concatenate([[10.0 ** e], gram_rng.uniform(0.5, 2.0, size=k - 1)])
                v = gg.linalg.random_unitary(k, gram_rng)
                bv = p.range_basis @ v
                elem = u @ (bv * np.sqrt(lam)) @ bv.conj().T
                rec.record("in_lp", gg.in_lp, elem, p)
                rec.record("classify", gg.classify, elem, p)

            m = point_near(gg, p, 0.9, seed + 1) if k not in (0, n) else gg.classify(p.mat, p)
            far = None
            if 0 < k <= n - k:
                far = gg.point_from_projection(gg.Projection(
                    p.null_basis[:, :k] @ p.null_basis[:, :k].conj().T), p)
            for point in (m, far):
                if point is not None:
                    x = rec.record("chart_inv", gg.chart_inv, point)
                    if x is not None:
                        rec.record("chart", gg.chart, x)
                        rec.record("d_chart", gg.d_chart, point, gg.classify(p.mat, p))
            # pair metrics in both orders; d_chart also on a pair whose
            # points share one context object and on one whose second point
            # carries an equal copy of it
            base = gg.classify(p.mat, p)
            twin = gg.classify(m.rep.mat, gg.Projection(p.mat.copy()))
            for first, second in ((m, base), (base, m), (far, m), (m, far)):
                if first is not None and second is not None:
                    rec.record("d_chordal", gg.d_chordal, first, second)
                    rec.record("d_spherical", gg.d_spherical, first, second)
            rec.record("d_chart", gg.d_chart, m, base)
            rec.record("d_chart", gg.d_chart, base, twin)

            b = hp_vector(gg, p, rng, 0.5)
            zero = gg.HpVector(np.zeros((n, n), dtype=complex), p)
            maps = [rec.record("MoebiusMap", gg.MoebiusMap, g, p),
                    rec.record("MoebiusMap", gg.MoebiusMap, a if 0 < k < n else 0 * g, p)]
            if 0 < k < n:
                e, f = p.range_basis[:, 0], p.null_basis[:, 0]
                maps.append(gg.MoebiusMap(np.eye(n) - np.outer(e - f, (e - f).conj()), p))
            for mm in maps:
                if mm is not None:
                    for arg in (b, zero):
                        rec.record("moebius_domain", gg.moebius_domain, mm, arg)
                        rec.record("moebius_apply", gg.moebius_apply, mm, arg)

            q = m.range
            rec.record("chart_transition", gg.chart_transition, q, p, b)
            rec.record("chart_transition", gg.chart_transition, p, p, zero)
            rec.record("chart_transition", gg.chart_transition, p, q,
                       gg.HpVector(np.zeros((n, n), dtype=complex), q))
            rec.record("projectivity", gg.projectivity, g, p)
            rec.record("projectivity", gg.projectivity, deficient, p)
            rec.record("unitary_extension", gg.unitary_extension, g, p)

            mu = pos_eps_unitary(gg, p, 1.0, seed + 2)
            nu = pos_eps_unitary(gg, p, 0.5, seed + 3)
            for t in T_GRID:
                rec.record("eps_geodesic", gg.eps_geodesic, mu, nu, t)
            samples = rec.record("eps_geodesic_samples", gg.disk.eps_geodesic_samples,
                                 mu, nu, np.array(T_GRID))
            rec.record("cone_to_disk", gg.cone_to_disk, mu)
            # a perturbation with every block, and its block-diagonal part,
            # whose path is the geodesic
            cone_rng = np.random.default_rng(seed + 9)
            h = cone_rng.standard_normal((n, n)) + 1j * cone_rng.standard_normal((n, n))
            h = 0.2 * (h + h.conj().T) / np.linalg.norm(h + h.conj().T, 2)
            stacks = [samples]
            for pert in (h, p.mat @ h @ p.mat + p.comp @ h @ p.comp):
                stacks.append(rec.record("cone_perturbed_path", gg.disk.cone_perturbed_path,
                                         mu, nu, pert, np.array(T_GRID)))
            for stack in stacks:
                rec.record("cone_polyline_steps", gg.disk.cone_polyline_steps, stack)
            # the same on a grid that spans several blocks of samples above n = 8
            grid = np.linspace(0.0, 1.0, 200)
            stacks = [rec.record("eps_geodesic_samples", gg.disk.eps_geodesic_samples,
                                 mu, nu, grid),
                      rec.record("cone_perturbed_path", gg.disk.cone_perturbed_path,
                                 mu, nu, h, grid)]
            for stack in stacks:
                if stack is not None:
                    rec.record("cone_polyline_steps", gg.disk.cone_polyline_steps, stack)

            # the last angle puts the chordal distance within eq_tol of 1
            # for 0 < k < n, so the pair is out of range
            tangent_rng = np.random.default_rng(seed + 4)
            for theta in (1e-6, 0.5, 1.5, np.pi / 2 - 1e-6):
                q = gg.geodesic(p, tangent(gg, p, tangent_rng, theta), 1.0)
                rec.record("geodesic_log", gg.geodesic_log, p, q)
            # largest angle pi/2 - delta, chordal distance cos(delta); it
            # reaches 1 - eq_tol at delta ~ 4.47e-5
            for delta in (1e-3, 1e-4, 5e-5, 4e-5, 1e-5, 1e-7):
                z = tangent(gg, p, tangent_rng, np.pi / 2 - delta)
                rec.record("geodesic_log", gg.geodesic_log, p, gg.geodesic(p, z, 1.0))

            curve_rng = np.random.default_rng(seed + 5)
            z = tangent(gg, p, curve_rng, 1.2)
            for t in T_GRID:
                rec.record("geodesic", gg.geodesic, p, z, t)
            rec.record("geodesic_curve", gg.geodesic_curve(p, z).sample, np.array(T_GRID))
            ws = [tangent(gg, p, curve_rng, 0.3) for _ in range(2)]
            rec.record("tangent_path_lengths", gg.tangent_path_lengths, p, z, ws, 50)
            # the curve engines over several blocks of samples: the sampled
            # stack, its chordal steps and the lengths of the sampled curves
            resolution = 2000 if n <= 8 else 200
            curves = (gg.geodesic_curve(p, z, resolution),
                      gg.perturbed_curve(p, z, ws[0], resolution))
            stack = rec.record("perturbed_curve", curves[1].sample,
                               np.linspace(0.0, 1.0, resolution))
            rec.record("chordal_steps", gg.grassmann.chordal_steps, stack)
            for curve in curves:
                rec.record("curve_length", gg.curve_length, curve)
            # short geodesics at full resolution, and perturbations that
            # leave the span of [a_z, a_w] rank-deficient
            path_rng = np.random.default_rng(seed + 8)
            for norm in (1e-4, 1e-3):
                z = tangent(gg, p, path_rng, norm)
                ws = [tangent(gg, p, path_rng, norm / 2)]
                rec.record("tangent_path_lengths", gg.tangent_path_lengths, p, z, ws, 2000)
            z = tangent(gg, p, path_rng, 1.2)
            ws = [gg.TangentVector(0 * z.mat, p), gg.TangentVector(2 * z.mat, p)]
            rec.record("tangent_path_lengths", gg.tangent_path_lengths, p, z, ws, 50)
            # long paths on a small side of at least 3, with more
            # interpolation nodes than samples, so the moved bases are
            # computed at the samples themselves
            if min(k, n - k) >= 3:
                long_rng = np.random.default_rng(seed + 10)
                z = tangent(gg, p, long_rng, 30.0)
                ws = [gg.TangentVector(0 * z.mat, p), tangent(gg, p, long_rng, 15.0)]
                rec.record("tangent_path_lengths", gg.tangent_path_lengths, p, z, ws, 50)

            # chart radii from the center to past the rim; corner norms
            # 2 artanh(r) reach 14.5 at 1 - 1e-6 and 20.7 at 1 - 2e-9, just
            # inside the membership threshold (chart norm 1 - eq_tol), and
            # 1 - 7e-10 lies just outside it
            disk_rng = np.random.default_rng(seed + 6)
            points = [m, far, gg.cone_to_disk(mu).point]
            points += [gg.chart(hp_vector(gg, p, disk_rng, r))
                       for r in (1e-8, 0.5, 0.9, 0.999, 0.9995, 0.9999, 1 - 1e-6, 1.5,
                                 1 - 2e-9, 1 - 7e-10)]
            disk_points = []
            for point in points:
                if point is not None:
                    rec.record("disk_to_cone", gg.disk_to_cone, point)
                    disk_points.append(rec.record("to_disk_point", gg.to_disk_point, point))

            # cone distances to the center, which lose the positivity of the
            # relative spectrum near the rim; the stacked disk points of the
            # cone geodesic; and cone elements of corner norm 21 (inside),
            # 22 and 30 (outside the disk), from a generator of their own
            center = gg.base_disk_point(p)
            for dp in disk_points:
                if dp is not None:
                    rec.record("d_cone", gg.d_cone, dp, center)
                    rec.record("d_cone", gg.d_cone, center, dp)
            # the corner pairing and its two metrics, to the center and
            # between consecutive disk points, in both orders
            members = [dp for dp in disk_points if dp is not None]
            pairs = [(dp, center) for dp in members] + list(zip(members, members[1:]))
            for first, second in pairs:
                for pair in ((first, second), (second, first)):
                    rec.record("rho", gg.rho, *pair)
                    rec.record("d_pseudo_chordal", gg.d_pseudo_chordal, *pair)
                    rec.record("d_non_euclidean", gg.d_non_euclidean, *pair)
            # looked up inside the record, so that a tree without the
            # function hashes the AttributeError
            for times in (np.array(T_GRID), np.linspace(0.0, 1.0, 200)):
                rec.record("eps_geodesic_points",
                           lambda: gg.disk._eps_geodesic_points(mu, nu, times))
            decision_rng = np.random.default_rng(seed + 11)
            for sigma in (21.0, 22.0, 30.0):
                x = hp_vector(gg, p, decision_rng, sigma)
                rec.record("cone_to_disk", gg.cone_to_disk, gg.PositiveEpsUnitary.from_xparam(x))

            # the cone steps that the package measures for itself, on the
            # small side, for the geodesic, a perturbation with every block
            # and its block-diagonal part; from a generator of their own
            steps_rng = np.random.default_rng(seed + 12)
            lam = pos_eps_unitary(gg, p, 1.5, seed + 13)
            kappa = pos_eps_unitary(gg, p, 1.5, seed + 14)
            h = steps_rng.standard_normal((n, n)) + 1j * steps_rng.standard_normal((n, n))
            hs = [h, p.mat @ h @ p.mat + p.comp @ h @ p.comp]
            for samples in (2, 50, 2000) if n <= 8 else (2, 50):
                rec.record("cone_path_steps",
                           lambda: list(gg.disk._cone_path_steps(lam, kappa, hs, samples)))
            # and the same paths' lengths as integrals of the cone speed
            rec.record("cone_path_integrals",
                       lambda: gg.disk._cone_path_integrals(lam, kappa, hs))

    # exp of non-normal matrices at 1-norms just below and just above each
    # theta_m of Higham (2005), where the Pade degree (or, above theta_13,
    # the number of squarings) switches; last, so that the records above
    # keep their places for --compare
    for n in dims:
        switch_rng = np.random.default_rng(1000 * n + 998)
        for theta in (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                      2.097847961257068, 5.371920351148152):
            for side in (1 - 1e-6, 1 + 1e-6):
                a = switch_rng.standard_normal((n, n)) + 1j * switch_rng.standard_normal((n, n))
                a *= theta * side / np.abs(a).sum(axis=0).max()
                rec.record("expm", gg.linalg.expm, a)


def compare(old: list, new: list) -> list[str]:
    """Per function: records, bit-identical records, the largest move of a
    value relative to its largest entry in ``old``, and the records that
    switch from a value to an exception and back."""
    names = list(dict.fromkeys(name for name, _, _ in old + new))
    lines = [f"{'function':22s} {'records':>7s} {'identical':>9s} {'max_move':>9s} "
             f"{'to_raise':>8s} {'to_value':>8s}"]
    for name in names:
        olds = [(data, vals) for key, data, vals in old if key == name]
        news = [(data, vals) for key, data, vals in new if key == name]
        same = to_raise = to_value = 0
        worst = 0.0
        for (a, va), (b, vb) in zip(olds, news):
            if a == b:
                same += 1
            elif va is not None and vb is None:
                to_raise += 1
            elif va is None and vb is not None:
                to_value += 1
            elif va is not None:
                scale = np.abs(va).max(initial=0.0) or 1.0
                move = np.abs(va - vb).max(initial=0.0) / scale if va.shape == vb.shape else np.inf
                worst = max(worst, move if np.isfinite(move) else np.inf)
        count = f"{len(olds)}" if len(olds) == len(news) else f"{len(olds)}/{len(news)}"
        lines.append(f"{name:22s} {count:>7s} {same:9d} {worst:9.2e} {to_raise:8d} {to_value:8d}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the grassgeo package (default: this checkout's src)")
    ap.add_argument("--dims", default="2,3,4,5,6,7,8,16,32,64",
                    help="comma-separated dimensions (default 2..8,16,32,64)")
    ap.add_argument("--values", metavar="FILE",
                    help="also store every record's raw value or exception in FILE")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two files of --values record by record and exit")
    args = ap.parse_args(argv)
    if args.compare:
        old, new = (pickle.loads(Path(f).read_bytes()) for f in args.compare)
        print("\n".join(compare(old, new)))
        return 0
    sys.path.insert(0, args.src)
    import grassgeo as gg

    rec = Digests(keep=args.values is not None)
    sweep(gg, [int(d) for d in args.dims.split(",")], rec)
    for name in sorted(rec.hashes):
        print(f"{name:22s} {rec.counts[name]:5d} {rec.hashes[name].hexdigest()}")
    if args.values:
        Path(args.values).write_bytes(pickle.dumps(rec.values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
