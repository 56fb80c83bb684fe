"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs a
fixed unit of work, a *round*, as often as the run allows.  ``round`` only
calls the program and times it; ``check`` judges the round's outputs
afterwards, so the checks are neither timed nor traced.  Every workload is
a closed loop with one caller.

* ``verify-desk``: one in-process ``run_all`` over all 37 properties at
  dims 2-8 with their documented trial counts.  Its unit operation is one
  property.
* ``library-large``: a library session at n = 16, 32 and 64 on objects built
  once in ``setup``: all-pair metric and geodesic queries (the unit
  operation), ``tangent_path_lengths`` at 2000 samples and the cone curve
  engines.
* ``cli-session``: the README session as ``grassgeo`` subprocesses on files
  generated with the library: short commands on n = 6 files (the unit
  operation) and table commands at n = 16 and 64.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# Checks use the kernels as loaded here, before any tracing wraps them.
from numpy.linalg import norm as _np_norm

from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import linalg as la
from grassgeo import moebius as mo
from grassgeo import projective as pj
from grassgeo import serialize as se
from grassgeo import verify as vf

clock = time.perf_counter


def _opn(a) -> float:
    return float(_np_norm(a, 2))


def _rel_close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


@dataclass
class Round:
    """Timings and raw outputs of one round of a workload."""

    wall: float = 0.0
    op_lat: list = field(default_factory=list)    # unit operations, seconds
    bulk_lat: list = field(default_factory=list)  # curve calls / table commands
    bytes_out: int = 0
    child_rss_kb: int = 0                         # largest child process, cli-session
    outputs: list = field(default_factory=list)   # raw results, dropped once checked
    detail: dict = field(default_factory=dict)    # small per-round record kept for the report
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# verify-desk
# ---------------------------------------------------------------------------


# The 37 properties of the registry at the seed commit, in report order.
PROPERTIES = (
    "chart-roundtrip", "chart-tan-identity", "chart-transition-cocycle",
    "chart-transition-formula", "chordal-spherical-sin-identity",
    "chordal-unitary-invariance", "class-map-well-defined", "classify-idempotent",
    "cone-block-structure", "cone-geodesic-additivity", "cone-geodesic-closure",
    "cone-geodesic-length", "cone-path-minimality", "cone-power-stability",
    "disk-double-non-euclidean", "disk-map-roundtrip",
    "disk-membership-characterizations", "eps-invariance", "eps-unitary-closure",
    "func-calc-spectral-mapping", "geodesic-arc-length", "geodesic-log-roundtrip",
    "geodesic-minimality", "moebius-composition", "moebius-identity",
    "moebius-projectivity-consistency", "operator-norm-laws",
    "point-finiteness-characterizations", "polar-decomposition-residual",
    "projectivity-group-action", "pseudo-chordal-chart-identity",
    "range-projection-formula", "range-rank-preserved", "rho-symmetry",
    "sin-triangle-inequality", "unitary-extension-class", "unitary-log-roundtrip",
)


class VerifyDesk:
    name = "verify-desk"
    why = "the full property registry at dims 2-8: validation and Python overhead on small fresh objects"

    def __init__(self, root: str, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        self.cfg = vf.RunConfig(seed=self.seed)

    def close(self):
        pass

    def round(self, tracer=None) -> Round:
        """``run_all`` over every property, one property per call so that
        each is timed on its own."""
        rnd = Round()
        t_round = clock()
        for name in PROPERTIES:
            idx = tracer.enter(tracer.intern(f"verify.{name}")) if tracer else -1
            t0 = clock()
            report = vf.run_all(self.cfg, names=(name,))
            rnd.detail[name] = clock() - t0
            if tracer:
                tracer.exit(idx, not report.overall_pass)
            rnd.outputs.append((name, report))
        rnd.wall = clock() - t_round
        rnd.op_lat = list(rnd.detail.values())
        return rnd

    def check(self, rnd: Round):
        rnd.attempted = len(rnd.outputs)
        for name, report in rnd.outputs:
            results = report.properties
            r = results[0] if len(results) == 1 else None
            if r is None or r.name != name:
                why = f"{len(results)} results"
            elif not (report.overall_pass and r.passed and not r.error
                      and np.isfinite(r.max_residual) and r.max_residual <= r.tolerance):
                why = f"residual {r.max_residual!r} tolerance {r.tolerance!r} {r.error}"
            else:
                continue
            rnd.failed += 1
            rnd.errors.append(f"{name}: {why}")


# ---------------------------------------------------------------------------
# library-large
# ---------------------------------------------------------------------------


RADIUS = 0.6  # chordal radius of random points around the context: pairs stay below 1


@dataclass
class _Context:
    n: int
    p: object
    points: list
    disks: list
    z: object
    ws: list
    h: np.ndarray
    ts: np.ndarray


class LibraryLarge:
    name = "library-large"
    why = "long-lived objects at n=16,32,64: kernel-bound queries and curve engines that reuse cached per-object data"
    sizes = (16, 32, 64)
    pool = 6                          # points and disk points per size
    curve_samples = 2000              # tangent_path_lengths resolution
    paths = {16: 20, 32: 6, 64: 1}    # perturbed companions per size
    cone_samples = 200

    def __init__(self, root: str, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        self.contexts = []
        for n in self.sizes:
            rng = np.random.default_rng([self.seed, n])

            def draw():
                return int(rng.integers(0, 2**62))

            p = pj.random_projection(n, n // 4, draw())
            points = [pj.random_point_near(p, RADIUS, draw()) for _ in range(self.pool)]
            disks = [dk.cone_to_disk(dk.random_pos_eps_unitary(p, 1.0, draw()))
                     for _ in range(self.pool)]
            z = gr.random_tangent(p, rng, rng.uniform(0.2, np.pi / 2 - 0.05))
            ws = [gr.random_tangent(p, rng, rng.uniform(0.05, 0.5)) for _ in range(self.paths[n])]
            h = la.herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            h *= rng.uniform(0.05, 0.4) / _opn(h)
            ts = np.linspace(0.0, 1.0, self.cone_samples)
            self.contexts.append(_Context(n, p, points, disks, z, ws, h, ts))

    def close(self):
        pass

    def round(self, tracer=None) -> Round:
        rnd = Round()
        out = rnd.outputs

        def call(lat, key, fn, *args):
            t0 = clock()
            try:
                value, err = fn(*args), None
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
                value, err = None, f"{type(exc).__name__}: {exc}"
            lat.append(clock() - t0)
            out.append((key, value, err))
            return value

        t_round = clock()
        for c in self.contexts:
            pairs = [(i, j) for i in range(self.pool) for j in range(self.pool) if i != j]
            for i, j in pairs:
                a, b = c.points[i], c.points[j]
                call(rnd.op_lat, ("d_chordal", c.n, i, j), gr.d_chordal, a, b)
                call(rnd.op_lat, ("d_spherical", c.n, i, j), gr.d_spherical, a, b)
                call(rnd.op_lat, ("d_chart", c.n, i, j), mo.d_chart, a, b)
                z = call(rnd.op_lat, ("geodesic_log", c.n, i, j), gr.geodesic_log, a.range, b.range)
                if z is not None:
                    call(rnd.op_lat, ("geodesic", c.n, i, j), gr.geodesic, a.range, z, 0.5)
            for i, j in pairs:
                a, b = c.disks[i], c.disks[j]
                call(rnd.op_lat, ("d_pseudo_chordal", c.n, i, j), dk.d_pseudo_chordal, a, b)
                call(rnd.op_lat, ("d_non_euclidean", c.n, i, j), dk.d_non_euclidean, a, b)
                call(rnd.op_lat, ("d_cone", c.n, i, j), dk.d_cone, a, b)
            call(rnd.bulk_lat, ("tangent_path_lengths", c.n, 0, 0), gr.tangent_path_lengths,
                 c.p, c.z, c.ws, self.curve_samples)
            mu, nu = c.disks[0].lam, c.disks[1].lam
            samples = call(rnd.bulk_lat, ("eps_geodesic_samples", c.n, 0, 1),
                           dk.eps_geodesic_samples, mu, nu, c.ts)
            if samples is not None:
                call(rnd.bulk_lat, ("cone_length_geodesic", c.n, 0, 1),
                     dk.cone_polyline_length, samples)
            path = call(rnd.bulk_lat, ("cone_perturbed_path", c.n, 0, 1),
                        dk.cone_perturbed_path, mu, nu, c.h, c.ts)
            if path is not None:
                call(rnd.bulk_lat, ("cone_length_perturbed", c.n, 0, 1),
                     dk.cone_polyline_length, path)
        rnd.wall = clock() - t_round
        return rnd

    def check(self, rnd: Round):
        values = {key: value for key, value, _ in rnd.outputs}
        ctx = {c.n: c for c in self.contexts}
        rnd.attempted = len(rnd.outputs)
        for key, value, err in rnd.outputs:
            kind, n, i, j = key
            why = err or self._judge(kind, n, i, j, value, values, ctx[n])
            if why:
                rnd.failed += 1
                rnd.errors.append(f"{kind} n={n} ({i},{j}): {why}")

    def _judge(self, kind, n, i, j, value, values, c) -> str:
        """Empty when the output of one call passes its cross-checks."""
        def sym(tol=1e-10):
            other = values.get((kind, n, j, i))
            if other is None or abs(value - other) > tol:
                return f"asymmetric: {value!r} vs {other!r}"
            return ""

        if kind in ("d_chordal", "d_chart", "d_cone"):
            return sym()
        if kind == "d_spherical":
            dc = values.get(("d_chordal", n, i, j))
            if dc is None or abs(dc - np.sin(value)) > 1e-10:
                return f"d_c = {dc!r} but sin d_r = {np.sin(value)!r}"
            return sym()
        if kind == "d_pseudo_chordal":
            if not 0.0 <= value < 1.0:
                return f"outside [0, 1): {value!r}"
            return sym()
        if kind == "d_non_euclidean":
            dcone = values.get(("d_cone", n, i, j))
            if dcone is None or not _rel_close(2 * value, dcone, 1e-8):
                return f"2 d_en = {2 * value!r} but d_cone = {dcone!r}"
            return sym()
        if kind == "geodesic_log":
            dr = values.get(("d_spherical", n, i, j))
            if dr is None or abs(_opn(value.mat) - dr) > 1e-8:
                return f"||z|| = {_opn(value.mat)!r} but d_r = {dr!r}"
            return ""
        if kind == "geodesic":
            dr = values.get(("d_spherical", n, i, j))
            if dr is None:
                return "no spherical distance to compare with"
            half = np.sin(dr / 2)
            for end in (c.points[i], c.points[j]):
                got = _opn(value.mat - end.range.mat)
                if abs(got - half) > 1e-8:
                    return f"midpoint at chordal {got!r} from an end, expected {half!r}"
            return ""
        if kind == "tangent_path_lengths":
            geo, pert = value
            steps = self.curve_samples - 1
            exact = steps * np.sin(_opn(c.z.mat) / steps)
            if not _rel_close(geo, exact, 1e-6):
                return f"geodesic length {geo!r}, expected {exact!r}"
            if len(pert) != len(c.ws) or np.min(pert) < geo - 1e-6:
                return f"a perturbed path is shorter than the geodesic: {np.min(pert)!r} < {geo!r}"
            return ""
        if kind == "eps_geodesic_samples":
            if value.shape != (self.cone_samples, n, n):
                return f"shape {value.shape}"
            return ""
        if kind in ("cone_length_geodesic", "cone_length_perturbed"):
            dcone = values.get(("d_cone", n, i, j))
            if dcone is None:
                return "no cone distance to compare with"
            if kind == "cone_length_geodesic" and not _rel_close(value, dcone, 1e-8):
                return f"polyline length {value!r} but d_cone = {dcone!r}"
            if value < dcone - 1e-6:
                return f"polyline length {value!r} below d_cone = {dcone!r}"
            return ""
        if kind == "cone_perturbed_path":
            if value.shape != (self.cone_samples, n, n):
                return f"shape {value.shape}"
            return ""
        return f"unknown operation {kind}"


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


DIST_METRICS = ("chordal", "spherical", "dk", "dpc", "en", "dplus")


class CliSession:
    name = "cli-session"
    why = "grassgeo subprocesses: short commands bound by start-up and import, table commands bound by JSON/CSV encoding"
    short_dim = 6
    table_samples = {16: 100, 64: 20}

    def __init__(self, root: str, seed: int, workdir: str):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _save(self, name: str, obj: dict):
        se.save_obj(obj, self._path(name))

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        expected = {}
        commands = []  # (key, args, output file or None)
        for n in (self.short_dim,) + tuple(self.table_samples):
            rng = np.random.default_rng([self.seed, n])

            def draw():
                return int(rng.integers(0, 2**62))

            rank = n // 2 if n == self.short_dim else n // 4
            p = pj.random_projection(n, rank, draw())
            a = pj.random_point_near(p, RADIUS, draw())
            b = pj.random_point_near(p, RADIUS, draw())
            self._save(f"p{n}.json", se.projection_to_obj(p))
            self._save(f"a{n}.json", se.point_to_obj(a))
            self._save(f"b{n}.json", se.point_to_obj(b))
            files = [f"a{n}.json", f"b{n}.json"]
            if n == self.short_dim:
                da, db = dk.to_disk_point(a), dk.to_disk_point(b)
                disk = {"rho": dk.rho(da, db), "dpc": dk.d_pseudo_chordal(da, db),
                        "en": dk.d_non_euclidean(da, db), "dplus": dk.d_cone(da, db)}
                dists = {"chordal": gr.d_chordal(a, b), "spherical": gr.d_spherical(a, b),
                         "dk": mo.d_chart(a, b), "dpc": disk["dpc"], "en": disk["en"],
                         "dplus": disk["dplus"]}
                for metric in DIST_METRICS:
                    commands.append((("dist", metric), ["dist", "--metric", metric, *files], None))
                    expected[("dist", metric)] = dists[metric]
                x = mo.random_hp_vector(p, rng, 0.5)
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                g = np.eye(n) + 0.2 * g / _opn(g)
                self._save("x.json", se.matrix_to_obj(x.mat))
                self._save("g.json", se.matrix_to_obj(g))
                pf = f"p{n}.json"
                commands.append((("chart",), ["chart", "--context", pf, "x.json"], None))
                expected[("chart",)] = mo.chart(x).rep.mat
                commands.append((("chart-inverse",), ["chart", "--inverse", "--context", pf,
                                                      files[0]], None))
                expected[("chart-inverse",)] = mo.chart_inv(a).mat
                commands.append((("moebius",), ["moebius", "--context", pf, "g.json", "x.json"],
                                 None))
                expected[("moebius",)] = mo.moebius_apply(mo.MoebiusMap(g, p), x).mat
                commands.append((("disk-dist",), ["disk-dist", *files], None))
                expected[("disk-dist",)] = disk
                continue
            samples = self.table_samples[n]
            lam_a, lam_b = dk.disk_to_cone(a), dk.disk_to_cone(b)
            d_r, d_plus = gr.d_spherical(a, b), dk.d_cone(lam_a, lam_b)
            steps = samples - 1
            start = {"grassmann": a.range.mat, "cone": lam_a.mat, "disk": a.range.mat}
            final = {"grassmann": steps * np.sin(d_r / steps), "cone": d_plus, "disk": d_plus}
            closed = {"grassmann": d_r, "cone": d_plus, "disk": d_plus}
            tables = [(space, fmt) for space in ("grassmann", "cone") for fmt in ("json", "csv")]
            tables.append(("disk", "json"))
            for space, fmt in tables:
                key = ("table", n, space, fmt)
                out = f"table-{n}-{space}.{fmt}"
                cmd = ["geodesic", "--space", space] if space != "disk" else ["disk-geodesic"]
                cmd += ["--samples", str(samples), "--format", fmt, "--output", out, *files]
                commands.append((key, cmd, out))
                expected[key] = (start[space], final[space], closed[space], samples)
        self.commands = commands
        self.expected = expected

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def check_install(self):
        """Confirm that the subprocesses import the package under test."""
        res = subprocess.run(
            [sys.executable, "-c", "import grassgeo.cli; print(grassgeo.cli.__file__)"],
            capture_output=True, text=True, env=self.env, cwd=self.workdir, timeout=120)
        want = os.path.realpath(os.path.join(self.root, "src", "grassgeo"))
        got = os.path.realpath(os.path.dirname(res.stdout.strip() or "."))
        if res.returncode != 0 or got != want:
            raise RuntimeError(f"grassgeo.cli does not import from {want}: {res.stderr.strip()}")

    def round(self, tracer=None) -> Round:
        rnd = Round()
        shim = os.path.join(self.root, "perfbench", "cli_shim.py")
        spans = self._path("spans.json")
        t_round = clock()
        for key, args, out in self.commands:
            if tracer is None:
                argv = [sys.executable, "-m", "grassgeo.cli", *args]
            else:
                argv = [sys.executable, shim, spans, *args]
                idx = tracer.enter(tracer.intern("bench.command"))
            code, stdout, stderr, dt, rss_kb = self._spawn(argv)
            if tracer is not None:
                tracer.exit(idx, code != 0)
                with open(spans, encoding="utf-8") as fh:
                    tracer.absorb(json.load(fh), idx)
            (rnd.op_lat if out is None else rnd.bulk_lat).append(dt)
            rnd.child_rss_kb = max(rnd.child_rss_kb, rss_kb)
            rnd.bytes_out += len(stdout) if out is None else os.path.getsize(self._path(out))
            rnd.outputs.append((key, code, stdout.decode(), stderr.decode(), out))
        rnd.wall = clock() - t_round
        return rnd

    def _spawn(self, argv):
        """Run one command to completion.

        Returns the exit code, its output, the seconds from start to exit and
        the child's peak resident memory in KiB (from ``wait4``).
        """
        paths = self._path("stdout.bin"), self._path("stderr.bin")
        with open(paths[0], "wb") as out, open(paths[1], "wb") as err:
            t0 = clock()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            timer = threading.Timer(150.0, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            dt = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(paths[0], "rb") as out, open(paths[1], "rb") as err:
            return proc.returncode, out.read(), err.read(), dt, usage.ru_maxrss

    def check(self, rnd: Round):
        rnd.attempted = len(rnd.outputs)
        for key, code, stdout, stderr, out in rnd.outputs:
            why = f"exit code {code}: {stderr.strip()[-200:]}" if code != 0 else ""
            if not why:
                try:
                    why = self._judge(key, stdout, out)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    why = f"unreadable output: {type(exc).__name__}: {exc}"
            if why:
                rnd.failed += 1
                rnd.errors.append(f"{' '.join(map(str, key))}: {why}")

    def _judge(self, key, stdout: str, out) -> str:
        want = self.expected[key]
        if key[0] == "dist":
            got = float(stdout)
            return "" if abs(got - want) <= 1e-9 else f"{got!r} != {want!r}"
        if key[0] in ("chart", "chart-inverse", "moebius"):
            obj = json.loads(stdout)
            if key[0] == "moebius":
                if not obj["in_domain"]:
                    return "reported outside the Moebius domain"
                obj = obj["result"]
            elif key[0] == "chart":
                obj = obj["rep"]
            got = se.matrix_from_obj(obj)
            err = float(np.abs(got - want).max())
            return "" if err <= 1e-9 else f"matrix differs by {err!r}"
        if key[0] == "disk-dist":
            got = json.loads(stdout)
            for name, value in want.items():
                if abs(got[name] - value) > 1e-9:
                    return f"{name} = {got[name]!r}, expected {value!r}"
            if not _rel_close(2 * got["en"], got["dplus"], 1e-8):
                return f"2 en = {2 * got['en']!r} but dplus = {got['dplus']!r}"
            return ""
        start, final, closed, samples = want
        n = key[1]
        path = self._path(out)
        if key[3] == "json":
            with open(path, encoding="utf-8") as fh:
                table = json.load(fh)
            rows = table["rows"]
            if not _rel_close(table["closed_form_distance"], closed, 1e-9):
                return f"closed form {table['closed_form_distance']!r}, expected {closed!r}"
            first = se.matrix_from_obj(rows[0]["matrix"])
            ts = [rows[0]["t"], rows[-1]["t"]]
            last_len = rows[-1]["cumulative_length"]
            count = len(rows)
        else:
            with open(path, encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                body = list(reader)
            if header[:2] != ["t", "cumulative_length"] or len(header) != 2 + 2 * n * n:
                return "unexpected CSV header"
            vals = np.array(body[0][2:], dtype=float)
            first = (vals[0::2] + 1j * vals[1::2]).reshape(n, n)
            ts = [float(body[0][0]), float(body[-1][0])]
            last_len = float(body[-1][1])
            count = len(body)
        if count != samples or ts != [0.0, 1.0]:
            return f"{count} rows over t in {ts}, expected {samples} over [0, 1]"
        err = float(np.abs(first - start).max())
        if err > 1e-9:
            return f"first sample differs from the start point by {err!r}"
        if not _rel_close(last_len, final, 1e-8):
            return f"cumulative length {last_len!r}, expected {final!r}"
        return ""


WORKLOADS = {w.name: w for w in (VerifyDesk, LibraryLarge, CliSession)}
