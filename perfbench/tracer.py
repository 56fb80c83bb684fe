"""Span tracer for the benchmark's traced run.

Spans are recorded at layer boundaries by wrapping the public functions and
classes of the ``grassgeo`` modules, the ``numpy.linalg``/``scipy.linalg``
entry points the package calls (the ``lapack.*`` layer) and the ``json``
encoder (``serialize.json_encode``).  Wrapping happens from outside the
package: every module namespace that binds a wrapped object gets the
wrapper, because several modules import functions such as ``op_norm`` and
``classify`` by name.  ``Tracer.install`` returns a function that restores
every original binding.

Each span stores its name, start, end, parent span and whether the call
raised.  Spans live in flat arrays in memory and are written out once, at
the end of the run.  Self time is a span's duration minus the durations of
its direct children, so the self times of all spans sum to the duration of
the root span.

This module imports nothing heavy at load time, so a traced CLI command can
time ``import grassgeo.cli`` with it already loaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (home module, public names) per traced layer; classes are traced through
# their ``__init__``.  Data containers (tolerances, configs, reports) are
# left alone.
LAYERS = {
    "linalg": ("grassgeo.linalg", (
        "as_matrix", "herm", "op_norm", "hermitian_eig", "func_calc", "polar",
        "expm", "log_unitary", "log_posdef", "sqrt_posdef", "psd_sqrt",
        "svd_range_projection", "random_unitary", "random_invertible",
    )),
    "projective": ("grassgeo.projective", (
        "Projection", "PartialIsometry", "ProjectivePoint", "in_lp", "classify",
        "class_equal", "point_from_projection", "unitary_extension",
        "random_projection", "random_point_near", "corner_compress",
        "corner_min_sv", "corner_inverse",
    )),
    "grassmann": ("grassgeo.grassmann", (
        "TangentVector", "d_chordal", "d_spherical", "geodesic", "geodesic_log",
        "curve_length", "projectivity", "geodesic_curve", "perturbed_curve",
        "tangent_path_lengths", "random_tangent",
    )),
    "moebius": ("grassgeo.moebius", (
        "HpVector", "MoebiusMap", "chart", "chart_inv", "d_chart",
        "moebius_domain", "moebius_apply", "chart_transition", "random_hp_vector",
    )),
    "disk": ("grassgeo.disk", (
        "EpsSymmetry", "EpsUnitary", "PositiveEpsUnitary", "DiskPoint",
        "is_eps_unitary", "random_pos_eps_unitary", "random_eps_unitary",
        "cone_to_disk", "disk_to_cone", "to_disk_point", "base_disk_point", "rho",
        "d_pseudo_chordal", "d_non_euclidean", "d_cone", "eps_geodesic",
        "eps_geodesic_samples", "cone_polyline_length", "cone_perturbed_path",
        "eps_action", "in_disk",
    )),
    "serialize": ("grassgeo.serialize", (
        "matrix_to_obj", "matrix_from_obj", "projection_to_obj", "point_to_obj",
        "load_obj", "save_obj", "point_from_obj", "projection_from_obj",
    )),
    "verify": ("grassgeo.verify", ("run_all", "report_to_json", "report_to_csv")),
}

# (module, attribute, span name) of the dense kernels below the package.
# ``numpy.linalg.norm`` is traced only for the spectral norm (ord=2).
KERNELS = (
    ("numpy.linalg", "eigh", "lapack.eigh"),
    ("numpy.linalg", "eigvalsh", "lapack.eigvalsh"),
    ("numpy.linalg", "svd", "lapack.svd"),
    ("numpy.linalg", "inv", "lapack.inv_solve"),
    ("numpy.linalg", "solve", "lapack.inv_solve"),
    ("numpy.linalg", "norm", "lapack.norm2"),
    ("scipy.linalg", "expm", "lapack.expm_logm"),
    ("scipy.linalg", "schur", "lapack.expm_logm"),
)

ENCODERS = (
    ("json", "dumps", "serialize.json_encode"),
    ("json", "dump", "serialize.json_encode"),
)


def _n3(a) -> int:
    """Operation count of a dense factorization of ``a``: per matrix of
    shape (m, k) it is m * k * min(m, k), so n**3 for a square matrix,
    summed over a stack."""
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        return 0
    m, k = shape[-2], shape[-1]
    batch = 1
    for d in shape[:-2]:
        batch *= d
    return batch * m * k * min(m, k)


class Tracer:
    """In-memory span recorder."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed = array("b")
        self.n3 = array("q")
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int, n3: int = 0) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.failed.append(0)
        self.n3.append(n3)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def exit(self, idx: int, failed: bool = False):
        self.end[idx] = self.clock()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def wrap(self, name: str, fn, n3=None):
        nid = self.intern(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid, n3(args[0]) if n3 is not None and args else 0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                exit_(idx, True)
                raise
            exit_(idx)
            return out

        return traced

    def _wrap_norm(self, fn):
        spectral = self.wrap("lapack.norm2", fn, _n3)

        @functools.wraps(fn)
        def norm(x, ord=None, *args, **kwargs):
            if ord == 2 and not args and kwargs.get("axis") is None:
                return spectral(x, ord)
            return fn(x, ord, *args, **kwargs)

        return norm

    def absorb(self, child: dict, parent_idx: int):
        """Append the spans of a traced child process below ``parent_idx``.

        ``perf_counter`` reads the system-wide monotonic clock, so child
        timestamps are comparable with this process's.
        """
        ids = [self.intern(n) for n in child["names"]]
        base = len(self.start)
        for nid, s, e, par, f, w in zip(child["name_id"], child["start"], child["end"],
                                        child["parent"], child["failed"], child["n3"]):
            self.name_id.append(ids[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(parent_idx if par < 0 else base + par)
            self.failed.append(f)
            self.n3.append(w)

    # -- wrapping ----------------------------------------------------------

    def install(self):
        """Wrap every traced name in every namespace that binds it.

        Returns a function that puts all original objects back.
        """
        undo = []
        bound = [m for k, m in list(sys.modules.items())
                 if m is not None and (k == "grassgeo" or k.startswith("grassgeo."))]
        for layer, (modname, names) in LAYERS.items():
            home = importlib.import_module(modname)
            for attr in names:
                obj = getattr(home, attr)
                span = f"{layer}.{attr}"
                if isinstance(obj, type):
                    init = obj.__dict__["__init__"]
                    obj.__init__ = self.wrap(span, init)
                    undo.append((obj, "__init__", init))
                    continue
                wrapper = self.wrap(span, obj)
                for mod in bound:
                    for key, val in list(vars(mod).items()):
                        if val is obj:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, obj))
        for modname, attr, span in KERNELS + ENCODERS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            if attr == "norm":
                wrapper = self._wrap_norm(fn)
            else:
                wrapper = self.wrap(span, fn, _n3 if span.startswith("lapack.") else None)
            setattr(mod, attr, wrapper)
            undo.append((mod, attr, fn))

        def restore():
            for target, key, val in reversed(undo):
                setattr(target, key, val)
            undo.clear()

        return restore

    # -- results -----------------------------------------------------------

    def as_dict(self) -> dict:
        """Spans as plain lists, for writing out or sending to a parent."""
        return {
            "names": list(self.names),
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "failed": self.failed.tolist(),
            "n3": self.n3.tolist(),
        }

    def save_child(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh)

    def save(self, path: str):
        """Write every span (name, start, end, parent, failed, n3) as .npz."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            failed=np.frombuffer(self.failed, dtype=np.int8),
            n3=np.frombuffer(self.n3, dtype=np.int64),
        )

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, fails, n3."""
        import numpy as np

        k = len(self.names)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_s = dur - child
        n3 = np.zeros(k, dtype=np.int64)
        np.add.at(n3, nid, np.frombuffer(self.n3, dtype=np.int64))
        calls = np.bincount(nid, minlength=k)
        fails = np.bincount(nid, weights=np.frombuffer(self.failed, dtype=np.int8), minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_s, minlength=k)
        return {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i]),
                   "fails": int(fails[i]), "n3": int(n3[i])}
            for i, name in enumerate(self.names)
        }
