"""grassgeo benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload {verify-desk,library-large,cli-session}
                             --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory; nothing needs
to be installed.  BLAS runs with one thread in this process and in every
process it starts.

With ``--trace 0`` the run sets the workload up from the seed, then repeats
rounds of fixed work until ``--seconds`` have passed (at least one round),
checks every output and prints the end-to-end metrics.  ``setup_s`` is the
median over several fresh processes of the time from process start to the
end of set-up.  With ``--trace 1`` it runs one plain round and one traced
round and prints the per-layer metrics (calls, self time and operation
counts per traced function, per-property times, failures per module) and
the tracing overhead.  The traced round's spans are written to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list the environment and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
)

# Traced functions reported as per-layer metrics, by layer.
REPORTED = (
    ("projective", ("Projection", "PartialIsometry", "ProjectivePoint", "classify",
                    "point_from_projection")),
    ("linalg", ("expm", "log_unitary", "polar", "op_norm", "func_calc", "psd_sqrt")),
    ("grassmann", ("d_chordal", "d_spherical", "geodesic", "geodesic_log", "curve_length",
                   "tangent_path_lengths")),
    ("moebius", ("HpVector", "chart_inv", "moebius_apply", "chart_transition")),
    ("disk", ("PositiveEpsUnitary", "cone_to_disk", "disk_to_cone", "rho", "d_cone",
              "eps_geodesic_samples", "cone_polyline_length", "cone_perturbed_path")),
    ("serialize", ("matrix_to_obj", "matrix_from_obj", "json_encode")),
)
KERNELS = ("eigh", "eigvalsh", "svd", "inv_solve", "norm2", "expm_logm")
MODULES = ("linalg", "projective", "grassmann", "moebius", "disk", "serialize", "cli",
           "verify", "lapack")


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    import workloads

    out = []
    for layer, names in REPORTED:
        for name in names:
            out += [(f"{layer}.{name}.calls", "count"), (f"{layer}.{name}.self_s", "s")]
    for name in KERNELS:
        out += [(f"lapack.{name}.calls", "count"), (f"lapack.{name}.n3", "count")]
    out += [("serialize.bytes_out", "B"), ("cli.import_s", "s"), ("cli.main.self_s", "s")]
    out += [(f"verify.{name}.s", "s") for name in workloads.PROPERTIES]
    out += [(f"{module}.fails", "count") for module in MODULES]
    out += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_commit(root: str):
    """The checked-out commit, read from .git without running git; None
    outside a repository."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError, AttributeError):
            return None

    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def import_package():
    """Import grassgeo from src/ next to the benchmark, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import grassgeo
    except ImportError as exc:
        raise SystemExit(f"cannot import grassgeo from {src}: {exc}")
    where = os.path.realpath(os.path.dirname(grassgeo.__file__))
    if where != os.path.realpath(os.path.join(src, "grassgeo")):
        raise SystemExit(f"grassgeo was imported from {where}, not from {src}")


def measure_setup(args) -> list:
    """Seconds from process start to the end of set-up, once per fresh process."""
    samples = []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "READY" or code != 0:
            raise SystemExit(f"set-up process failed with exit code {code}")
    return samples


def make_workload(args):
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    return cls(ROOT, args.seed, os.path.join(OUT, f"work-{os.getpid()}"))


def end_to_end(workload, rounds, setup) -> tuple:
    ops = [x for r in rounds for x in r.op_lat]
    bulk = [x for r in rounds for x in r.bulk_lat]
    rss_kb = max(r.child_rss_kb for r in rounds) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall for r in rounds),
        "peak_rss_mb": rss_kb / 1024.0,
        "op_p50_ms": 1e3 * percentile(ops, 50),
    }
    # the metrics under their workload-specific names, with sample counts
    detail = {"rounds": (len(rounds), "count"), "setup_samples": (len(setup), "count")}
    if workload.name == "library-large":
        detail.update({
            "query_p50_us": (1e6 * percentile(ops, 50), "us"),
            "query_p99_us": (1e6 * percentile(ops, 99), "us"),
            "query_samples": (len(ops), "count"),
            "curve_call_p50_ms": (1e3 * percentile(bulk, 50), "ms"),
            "curve_call_samples": (len(bulk), "count"),
        })
    elif workload.name == "cli-session":
        detail.update({
            "cmd_p50_ms": (1e3 * percentile(ops, 50), "ms"),
            "cmd_p90_ms": (1e3 * percentile(ops, 90), "ms"),
            "cmd_samples": (len(ops), "count"),
            "table_cmd_p50_s": (percentile(bulk, 50), "s"),
            "table_cmd_samples": (len(bulk), "count"),
            "bytes_out_per_round": (rounds[0].bytes_out, "B"),
        })
    else:
        detail.update({
            "property_p50_ms": (1e3 * percentile(ops, 50), "ms"),
            "property_p90_ms": (1e3 * percentile(ops, 90), "ms"),
            "property_samples": (len(ops), "count"),
        })
    return metrics, detail


def per_layer(summary: dict, traced, plain, spans: int) -> dict:
    import workloads

    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    metrics = {}
    for layer, names in REPORTED:
        for name in names:
            metrics[f"{layer}.{name}.calls"] = stat(f"{layer}.{name}", "calls")
            metrics[f"{layer}.{name}.self_s"] = stat(f"{layer}.{name}", "self_s")
    for name in KERNELS:
        metrics[f"lapack.{name}.calls"] = stat(f"lapack.{name}", "calls")
        metrics[f"lapack.{name}.n3"] = stat(f"lapack.{name}", "n3")
    metrics["serialize.bytes_out"] = traced.bytes_out
    metrics["cli.import_s"] = stat("cli.import", "self_s")
    metrics["cli.main.self_s"] = stat("cli.main", "self_s")
    for name in workloads.PROPERTIES:
        metrics[f"verify.{name}.s"] = stat(f"verify.{name}", "incl_s")
    for module in MODULES:
        metrics[f"{module}.fails"] = sum(v["fails"] for k, v in summary.items()
                                         if k.startswith(module + "."))
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    metrics["trace.spans"] = spans
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grassgeo benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("verify-desk", "library-large", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    os.makedirs(OUT, exist_ok=True)
    workload = make_workload(args)
    if args.setup_only:
        try:
            workload.setup()
            print("READY", flush=True)
        finally:
            workload.close()
        return 0

    env = environment(args.seed)
    setup = [] if args.trace else measure_setup(args)
    try:
        workload.setup()
        if hasattr(workload, "check_install"):
            workload.check_install()
        if args.trace:
            from tracer import Tracer

            plain = workload.round()
            tracer = Tracer()
            restore = tracer.install()
            root = tracer.enter(tracer.intern("bench.round"))
            try:
                traced = workload.round(tracer)
            finally:
                tracer.exit(root)
                restore()
            rounds = [plain, traced]
            for rnd in rounds:
                workload.check(rnd)
        else:
            rounds = []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                rnd = workload.round()
                workload.check(rnd)
                rnd.outputs = []  # keep memory flat over the rounds
                rounds.append(rnd)
    finally:
        workload.close()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        summary = tracer.summary()
        tracer.save(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
        values = per_layer(summary, traced, plain, len(tracer.start))
        units = dict(per_layer_metrics())
        detail = {}
    else:
        summary = {}
        values, detail = end_to_end(workload, rounds, setup)
        units = dict(END_TO_END)
    detail["fail_frac"] = (failed / attempted if attempted else 1.0, "ratio")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "attempted": attempted, "failed": failed,
              "metrics": metrics, "detail": {k: {"value": v, "unit": u}
                                             for k, (v, u) in detail.items()},
              "errors": [e for r in rounds for e in r.errors][:50],
              "span_summary": summary}
    if args.workload == "verify-desk":
        record["property_s"] = [r.detail for r in rounds]
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for err in record["errors"][:20]:
        print(f"FAILED {err}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in detail.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
