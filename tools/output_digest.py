"""Per-function SHA-256 digests of raw library outputs over a fixed sweep.

Every function is run on seeded instances at each dimension of ``--dims``:
every rank for n <= 8, ranks 0, 1, 2, n/2, n-1 and n above.  The bytes of
each result (arrays with shape and dtype, floats by ``repr``, the type and
message of a raised exception) are hashed in order, one digest per
function.  Refactors that must keep outputs bit for bit compare two runs:

    diff <(python tools/output_digest.py --src ../parent/src) \
         <(python tools/output_digest.py)
"""

from __future__ import annotations

import argparse
import hashlib
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


class Digests:
    def __init__(self):
        self.hashes = {}
        self.counts = {}

    def record(self, name, fn, *args):
        """Run ``fn(*args)``, hash its raw output under ``name`` and return
        it, or None when it raised (hashed as exception type and message)."""
        try:
            out = fn(*args)
        except Exception as exc:
            data, out = f"{type(exc).__name__}: {exc}".encode(), None
        else:
            data = encode(raw(out))
        h = self.hashes.setdefault(name, hashlib.sha256())
        h.update(len(data).to_bytes(8, "little") + data)
        self.counts[name] = self.counts.get(name, 0) + 1
        return out


def raw(out):
    """The arrays and numbers an object result carries."""
    if hasattr(out, "rep") and hasattr(out, "range"):
        return (out.rep.mat, out.range.mat, out.range.rank)
    if hasattr(out, "point") and hasattr(out, "lam"):
        return (out.point.rep.mat, out.point.range.mat, out.lam.mat)
    if hasattr(out, "mat"):
        return out.mat
    return out


def sweep(gg, dims, rec: Digests):
    for n in dims:
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

            m = gg.random_point_near(p, 0.9, seed + 1) if k not in (0, n) else gg.classify(p.mat, p)
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

            b = gg.random_hp_vector(p, rng, 0.5)
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

            mu = gg.random_pos_eps_unitary(p, 1.0, seed + 2)
            nu = gg.random_pos_eps_unitary(p, 0.5, seed + 3)
            for t in T_GRID:
                rec.record("eps_geodesic", gg.eps_geodesic, mu, nu, t)
            rec.record("eps_geodesic_samples", gg.disk.eps_geodesic_samples, mu, nu, np.array(T_GRID))
            rec.record("cone_to_disk", gg.cone_to_disk, mu)

            # the last angle puts the chordal distance within eq_tol of 1
            # for 0 < k < n, so the pair is out of range
            tangent_rng = np.random.default_rng(seed + 4)
            for theta in (1e-6, 0.5, 1.5, np.pi / 2 - 1e-6):
                q = gg.geodesic(p, gg.random_tangent(p, tangent_rng, theta), 1.0)
                rec.record("geodesic_log", gg.geodesic_log, p, q)
            # largest angle pi/2 - delta, chordal distance cos(delta); it
            # reaches 1 - eq_tol at delta ~ 4.47e-5
            for delta in (1e-3, 1e-4, 5e-5, 4e-5, 1e-5, 1e-7):
                z = gg.random_tangent(p, tangent_rng, np.pi / 2 - delta)
                rec.record("geodesic_log", gg.geodesic_log, p, gg.geodesic(p, z, 1.0))

            curve_rng = np.random.default_rng(seed + 5)
            z = gg.random_tangent(p, curve_rng, 1.2)
            for t in T_GRID:
                rec.record("geodesic", gg.geodesic, p, z, t)
            rec.record("geodesic_curve", gg.geodesic_curve(p, z).sample, np.array(T_GRID))
            ws = [gg.random_tangent(p, curve_rng, 0.3) for _ in range(2)]
            rec.record("tangent_path_lengths", gg.tangent_path_lengths, p, z, ws, 50)
            # short geodesics at full resolution, and perturbations that
            # leave the span of [a_z, a_w] rank-deficient
            path_rng = np.random.default_rng(seed + 8)
            for norm in (1e-4, 1e-3):
                z = gg.random_tangent(p, path_rng, norm)
                ws = [gg.random_tangent(p, path_rng, norm / 2)]
                rec.record("tangent_path_lengths", gg.tangent_path_lengths, p, z, ws, 2000)
            z = gg.random_tangent(p, path_rng, 1.2)
            ws = [gg.TangentVector(0 * z.mat, p), gg.TangentVector(2 * z.mat, p)]
            rec.record("tangent_path_lengths", gg.tangent_path_lengths, p, z, ws, 50)

            # chart radii from the center to past the rim; corner norms
            # 2 artanh(r) reach 8, where cone elements fail their checks
            disk_rng = np.random.default_rng(seed + 6)
            points = [m, far, gg.cone_to_disk(mu).point]
            points += [gg.chart(gg.random_hp_vector(p, disk_rng, r))
                       for r in (1e-8, 0.5, 0.9, 0.999, 0.9995, 0.9999, 1 - 1e-6, 1.5)]
            for point in points:
                if point is not None:
                    rec.record("disk_to_cone", gg.disk_to_cone, point)
                    rec.record("to_disk_point", gg.to_disk_point, point)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the grassgeo package (default: this checkout's src)")
    ap.add_argument("--dims", default="2,3,4,5,6,7,8,16,32,64",
                    help="comma-separated dimensions (default 2..8,16,32,64)")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import grassgeo as gg

    rec = Digests()
    sweep(gg, [int(d) for d in args.dims.split(",")], rec)
    for name in sorted(rec.hashes):
        print(f"{name:22s} {rec.counts[name]:5d} {rec.hashes[name].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
