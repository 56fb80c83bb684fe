"""Self-test of the benchmark's tracing.

Usage (from the repository root): python3 perfbench/selftest.py

Runs small versions of the three workloads through the same round and
tracer code as ``run.py --trace 1`` and checks that

* while installed, no grassgeo module binds an unwrapped traced function,
  and ``restore`` puts back every original object (module bindings, class
  ``__init__`` methods, numpy/scipy/json entry points);
* two traced runs at one seed record identical ``calls`` per span name and
  identical ``lapack.*`` operation counts;
* the self times of all spans sum to the traced wall time (the root span);
* tracing changes no result, and a call that raises is recorded as failed.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import importlib
import os
import sys

import run  # fixes the BLAS thread count before numpy is imported

run.import_package()

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from grassgeo import errors, grassmann  # noqa: E402
from grassgeo import verify as vf  # noqa: E402

SEED = 11
FAILURES = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


class MiniVerify(wl.VerifyDesk):
    def setup(self):
        self.cfg = vf.RunConfig(seed=self.seed, dims=(2, 3), trials=2)


class MiniLibrary(wl.LibraryLarge):
    sizes = (4, 8)
    pool = 3
    curve_samples = 200
    paths = {4: 2, 8: 1}
    cone_samples = 50


class MiniCli(wl.CliSession):
    table_samples = {8: 30}

    def setup(self):
        super().setup()
        keep = {("dist", "spherical"), ("disk-dist",), ("table", 8, "grassmann", "csv"),
                ("table", 8, "disk", "json")}
        self.commands = [c for c in self.commands if c[0] in keep]


def bindings() -> dict:
    """Identity snapshot of everything the tracer may rebind."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "grassgeo" or name.startswith("grassgeo."):
            for key, val in vars(mod).items():
                snap[(name, key)] = val
    for _, (modname, names) in tr.LAYERS.items():
        home = importlib.import_module(modname)
        for attr in names:
            obj = getattr(home, attr)
            if isinstance(obj, type):
                snap[(modname, attr, "__init__")] = obj.__dict__["__init__"]
    for modname, attr, _ in tr.KERNELS + tr.ENCODERS:
        snap[(modname, attr)] = getattr(importlib.import_module(modname), attr)
    return snap


def check_install_restore():
    before = bindings()
    traced_fns = []
    for _, (modname, names) in tr.LAYERS.items():
        home = importlib.import_module(modname)
        traced_fns += [getattr(home, a) for a in names if not isinstance(getattr(home, a), type)]
    tracer = tr.Tracer()
    restore = tracer.install()
    try:
        during = bindings()
        stale = [k for k, v in during.items()
                 if len(k) == 2 and k[0].startswith("grassgeo") and any(v is f for f in traced_fns)]
        expect(not stale, f"every namespace binds the wrapper while installed ({len(stale)} stale)")
        expect(grassmann.op_norm is not before[("grassgeo.linalg", "op_norm")],
               "op_norm imported by name into grassmann is wrapped")
        try:
            grassmann.d_spherical(*_far_pair())
            raised = False
        except errors.OutOfRange:
            raised = True
    finally:
        restore()
    summary = tracer.summary()
    expect(raised and summary.get("grassmann.d_spherical", {}).get("fails") == 1,
           "a call that raises passes the exception on and is recorded as failed")
    after = bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    expect(not changed, f"restore puts back every original ({len(changed)} differ)")


def _far_pair():
    from grassgeo import projective as pj

    p = pj.Projection(np.diag([1.0, 0.0]).astype(complex))
    q = pj.Projection(np.diag([0.0, 1.0]).astype(complex))
    return pj.point_from_projection(p, p), pj.point_from_projection(q, p)


def traced_run(cls, workdir: str):
    """One plain and one traced round on fresh objects, as run.py does."""
    w = cls(run.ROOT, SEED, workdir)
    try:
        w.setup()
        plain = w.round()
        tracer = tr.Tracer()
        restore = tracer.install()
        root = tracer.enter(tracer.intern("bench.round"))
        try:
            traced = w.round(tracer)
        finally:
            tracer.exit(root)
            restore()
        w.check(plain)
        w.check(traced)
    finally:
        w.close()
    return tracer, root, plain, traced


def check_workload(cls):
    name = cls.__mro__[1].name
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    runs = [traced_run(cls, workdir) for _ in range(2)]
    (t1, root1, plain1, traced1), (t2, _, _, _) = runs
    s1, s2 = t1.summary(), t2.summary()
    expect(plain1.failed == 0 and traced1.failed == 0 and traced1.attempted > 0,
           f"{name}: outputs pass their checks, traced and untraced")
    calls1 = {k: v["calls"] for k, v in s1.items()}
    calls2 = {k: v["calls"] for k, v in s2.items()}
    expect(calls1 == calls2, f"{name}: calls repeat exactly across two traced runs")
    n3_1 = {k: v["n3"] for k, v in s1.items() if k.startswith("lapack.")}
    n3_2 = {k: v["n3"] for k, v in s2.items() if k.startswith("lapack.")}
    expect(n3_1 == n3_2 and sum(n3_1.values()) > 0,
           f"{name}: lapack n3 counts repeat exactly and are non-zero")
    wall = t1.end[root1] - t1.start[root1]
    total_self = sum(v["self_s"] for v in s1.values())
    expect(abs(total_self - wall) <= 1e-9 * max(1.0, wall),
           f"{name}: self times sum to the traced wall time ({total_self:.9f} vs {wall:.9f} s)")
    start, end = np.frombuffer(t1.start), np.frombuffer(t1.end)
    parent = np.frombuffer(t1.parent, dtype=np.int32)
    inner = parent >= 0
    nested = (np.all(end >= start) and np.all(start[inner] >= start[parent[inner]])
              and np.all(end[inner] <= end[parent[inner]]))
    expect(bool(nested), f"{name}: every span lies inside its parent span")
    if name == "verify-desk":
        res_plain = [rep.properties[0].max_residual for _, rep in plain1.outputs]
        res_traced = [rep.properties[0].max_residual for _, rep in traced1.outputs]
        expect(res_plain == res_traced, f"{name}: tracing leaves every residual unchanged")
        expect(all(s1.get(f"verify.{p}", {}).get("calls") == 1 for p in wl.PROPERTIES),
               f"{name}: one span per property")


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    check_install_restore()
    for cls in (MiniVerify, MiniLibrary, MiniCli):
        check_workload(cls)
    print("selftest " + ("FAILED" if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
