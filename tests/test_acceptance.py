"""Acceptance suite: every criterion at its stated tolerance and scale.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output) and asserts both the residual bounds and the runtime
budget of its criterion.  Dimensions 2 through 8, 64-bit floats.
"""

import subprocess
import sys
import time

import numpy as np

from grassgeo import grassmann as gr
from grassgeo import projective as pj
from grassgeo import verify as vf

CFG = vf.RunConfig(seed=2024)


def worst(name, trials):
    """Worst residual of registered property ``name`` over ``trials`` instances of CFG."""
    prop = next(p for p in vf.REGISTRY if p.name == name)
    return vf._worst_residual(prop, CFG, trials)


def run_criterion(number, title, budget, parts_fn):
    start = time.perf_counter()
    parts = parts_fn()
    elapsed = time.perf_counter() - start
    ok = all(res <= tol for _, res, tol in parts) and elapsed < budget
    detail = "; ".join(f"{label} {res:.3e} (tol {tol:.1e})" for label, res, tol in parts)
    print(f"ACCEPTANCE {number:>2} [{'PASS' if ok else 'FAIL'}] {title}: "
          f"{detail}; {elapsed:.1f}s / {budget}s")
    for label, res, tol in parts:
        assert res <= tol, f"criterion {number}: {label} residual {res} > {tol}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_chordal_is_sine_of_spherical():
    run_criterion(1, "d_c = sin(d_r) on 500 pairs per dimension", 5, lambda: [
        ("identity", worst("chordal-spherical-sin-identity", 500), 1e-10),
    ])


def test_criterion_02_geodesic_existence_uniqueness():
    run_criterion(2, "geodesic/log round trips on 500 tangents per dimension", 10, lambda: [
        ("roundtrip", worst("geodesic-log-roundtrip", 500), 1e-8),
    ])


def test_criterion_03_geodesic_minimality():
    def parts():
        shortfall = worst("geodesic-minimality", 100)
        arc_gap = worst("geodesic-arc-length", 100)
        # anchor the batched length engine to the plain curve implementation
        rng = np.random.default_rng(2024)
        p = pj.random_projection(6, 3, 2024)
        z = gr.random_tangent(p, rng, 1.1)
        ws = [gr.random_tangent(p, rng, 0.3) for _ in range(3)]
        geo, pert = gr.tangent_path_lengths(p, z, ws, 2000)
        cross = abs(geo - gr.curve_length(gr.geodesic_curve(p, z, 2000)))
        for w, val in zip(ws, pert):
            cross = max(cross, abs(val - gr.curve_length(gr.perturbed_curve(p, z, w, 2000))))
        return [
            ("perturbed shortfall", shortfall, 1e-6),
            ("length vs arcsin", arc_gap, 1e-4),
            ("engine cross-check", cross, 1e-8),
        ]

    run_criterion(3, "minimality over 100 pairs x 20 paths at 2000 samples", 60, parts)


def test_criterion_04_chart_identities():
    run_criterion(4, "finiteness characterizations and d_k = tan(d_r) on 500 points", 10,
                  lambda: [
                      ("characterization agreement",
                       worst("point-finiteness-characterizations", 500), 0.5),
                      ("tan identity", worst("chart-tan-identity", 500), 1e-9),
                  ])


def test_criterion_05_moebius_laws():
    run_criterion(5, "Moebius identity, composition and projectivity consistency", 10,
                  lambda: [
                      ("identity map", worst("moebius-identity", 50), 1e-12),
                      ("composition", worst("moebius-composition", 200), 1e-8),
                      ("projectivity route", worst("moebius-projectivity-consistency", 200), 1e-8),
                  ])


def test_criterion_06_chart_transition():
    run_criterion(6, "chart transition formula and cocycle on 200 overlaps", 10, lambda: [
        ("formula vs oracle", worst("chart-transition-formula", 200), 1e-8),
        ("cocycle", worst("chart-transition-cocycle", 200), 1e-7),
    ])


def test_criterion_07_hyperbolic_identity():
    run_criterion(7, "2 E_n = d_plus on 500 pairs per dimension", 15, lambda: [
        ("double non-Euclidean", worst("disk-double-non-euclidean", 500), 1e-8),
        ("d_pc = d_k at base", worst("pseudo-chordal-chart-identity", 500), 1e-9),
    ])


def test_criterion_08_eps_invariance():
    run_criterion(8, "metric invariance under 100 isometry actions", 10, lambda: [
        ("invariance", worst("eps-invariance", 100), 1e-8),
    ])


def test_criterion_09_cone_geodesics():
    run_criterion(9, "cone geodesic closure, additivity and length", 30, lambda: [
        ("closure (50 t per pair)", worst("cone-geodesic-closure", 20), 1e-9),
        ("additivity/midpoint", worst("cone-geodesic-additivity", 20), 1e-8),
        ("discretized length", worst("cone-geodesic-length", 10), 1e-4),
    ])


def test_criterion_10_range_projection_formula():
    run_criterion(10, "range projection formula vs SVD oracle on 300 draws", 5, lambda: [
        ("formula vs oracle", worst("range-projection-formula", 300), 1e-8),
    ])


def test_full_verify_run(tmp_path):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "grassgeo.cli", "verify",
         "--seed", "2024", "--output", str(out)],
        capture_output=True, text=True, timeout=500,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 180
    print(f"ACCEPTANCE  F [{'PASS' if ok else 'FAIL'}] full verify run: "
          f"exit={proc.returncode}; {elapsed:.1f}s / 180s")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 180
    assert out.exists()
