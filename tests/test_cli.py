import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grassgeo
from grassgeo import cli
from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import moebius as mo
from grassgeo import projective as pj
from grassgeo import serialize as se
from grassgeo.errors import NotPositive

from conftest import read_json, rotation_pair, write_matrix, write_point, write_projection


def plane_projection():
    return pj.Projection(np.diag([1.0, 0.0]).astype(complex))


@pytest.fixture
def rotation_files(tmp_path):
    base, moved = rotation_pair(np.pi / 6)
    return (write_point(tmp_path / "base.json", base),
            write_point(tmp_path / "moved.json", moved))


@pytest.fixture
def hyperbolic_files(tmp_path):
    p = plane_projection()
    x = mo.HpVector(np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex), p)
    lam = dk.PositiveEpsUnitary.from_xparam(x)
    m = dk.cone_to_disk(lam)
    base = dk.base_disk_point(p)
    return (write_point(tmp_path / "base.json", base.point),
            write_point(tmp_path / "hyp.json", m.point))


class TestDist:
    def test_identical_points(self, rotation_files, capsys):
        first, _ = rotation_files
        assert cli.main(["dist", "--metric", "chordal", first, first]) == 0
        assert capsys.readouterr().out.strip() == "0.000000000000"

    def test_rotation_chordal(self, rotation_files, capsys):
        first, second = rotation_files
        assert cli.main(["dist", "--metric", "chordal", first, second]) == 0
        assert capsys.readouterr().out.strip() == "0.500000000000"

    def test_rotation_spherical(self, rotation_files, capsys):
        first, second = rotation_files
        assert cli.main(["dist", "--metric", "spherical", first, second]) == 0
        assert capsys.readouterr().out.strip() == "0.523598775598"

    def test_hyperbolic_non_euclidean(self, hyperbolic_files, capsys):
        base, hyp = hyperbolic_files
        assert cli.main(["dist", "--metric", "en", base, hyp]) == 0
        assert capsys.readouterr().out.strip() == "1.000000000000"

    def test_projection_inputs_use_first_as_context(self, tmp_path, capsys):
        base, moved = rotation_pair(np.pi / 6)
        f1 = write_projection(tmp_path / "p.json", base.range)
        f2 = write_projection(tmp_path / "q.json", moved.range)
        assert cli.main(["dist", "--metric", "spherical", f1, f2]) == 0
        assert capsys.readouterr().out.strip() == "0.523598775598"

    def test_missing_file_is_input_error(self, rotation_files):
        first, _ = rotation_files
        assert cli.main(["dist", "--metric", "chordal", first, "/no/such.json"]) == 2

    def test_out_of_range_exit_code(self, tmp_path):
        base, far = rotation_pair(np.pi / 2)
        f1 = write_point(tmp_path / "a.json", base)
        f2 = write_point(tmp_path / "b.json", far)
        assert cli.main(["dist", "--metric", "spherical", f1, f2]) == 3

    def test_not_finite_exit_code(self, tmp_path):
        base, far = rotation_pair(np.pi / 2)
        f1 = write_point(tmp_path / "a.json", base)
        f2 = write_point(tmp_path / "b.json", far)
        assert cli.main(["dist", "--metric", "dk", f1, f2]) == 4

    def test_not_in_disk_exit_code(self, tmp_path):
        base, outside = rotation_pair(1.2)  # beyond pi/4
        f1 = write_point(tmp_path / "a.json", base)
        f2 = write_point(tmp_path / "b.json", outside)
        assert cli.main(["dist", "--metric", "dpc", f1, f2]) == 5

    def test_context_mismatch_is_input_error(self, tmp_path):
        p1 = pj.random_projection(4, 2, 1)
        p2 = pj.random_projection(4, 2, 2)
        f1 = write_point(tmp_path / "a.json", pj.classify(p1.mat, p1))
        f2 = write_point(tmp_path / "b.json", pj.classify(p2.mat, p2))
        assert cli.main(["dist", "--metric", "chordal", f1, f2]) == 2

    @pytest.mark.parametrize("argv", [
        *(["dist", "--metric", metric] for metric in
          ("chordal", "spherical", "dk", "dpc", "en", "dplus")),
        ["disk-dist"],
        ["geodesic"],
        ["geodesic", "--space", "cone"],
        ["length"],
        ["disk-geodesic"],
    ])
    def test_dimension_mismatch_is_input_error(self, argv, tmp_path, capsys):
        p4, p5 = pj.random_projection(4, 2, 1), pj.random_projection(5, 2, 1)
        f4 = write_point(tmp_path / "a.json", pj.classify(p4.mat, p4))
        f5 = write_point(tmp_path / "b.json", pj.classify(p5.mat, p5))
        assert cli.main([*argv, f4, f5]) == 2
        assert capsys.readouterr().err.startswith("InvalidInput: ")


class TestGeodesicTables:
    def test_two_samples_are_endpoints(self, rotation_files, capsys):
        first, second = rotation_files
        assert cli.main(["geodesic", "--samples", "2", first, second]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["t"] == 0.0
        assert payload["rows"][-1]["t"] == 1.0
        first_mat = se.matrix_from_obj(payload["rows"][0]["matrix"])
        assert np.abs(first_mat - np.diag([1.0, 0.0])).max() < 1e-12
        assert payload["rows"][-1]["cumulative_length"] == pytest.approx(0.5, abs=1e-12)

    def test_dense_sampling_matches_closed_form(self, tmp_path, capsys):
        p = pj.random_projection(5, 2, 3)
        from grassgeo import grassmann as gr
        z = gr.random_tangent(p, np.random.default_rng(1), 0.7)
        q = gr.geodesic(p, z, 1.0)
        f1 = write_point(tmp_path / "a.json", pj.classify(p.mat, p))
        f2 = write_point(tmp_path / "b.json", pj.point_from_projection(q, p))
        assert cli.main(["geodesic", "--samples", "2000", f1, f2]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form_distance"] == pytest.approx(0.7, abs=1e-9)
        assert payload["rows"][-1]["cumulative_length"] == pytest.approx(0.7, abs=1e-4)

    def test_cone_sampling_matches_closed_form(self, hyperbolic_files, capsys):
        base, hyp = hyperbolic_files
        assert cli.main(["geodesic", "--space", "cone", "--samples", "2000",
                         base, hyp]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form_distance"] == pytest.approx(2.0, abs=1e-9)
        assert payload["rows"][-1]["cumulative_length"] == pytest.approx(2.0, abs=1e-4)

    def test_csv_format_columns(self, rotation_files, capsys):
        first, second = rotation_files
        assert cli.main(["geodesic", "--samples", "3", "--format", "csv",
                         first, second]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split(",")[:2] == ["t", "cumulative_length"]
        assert "re_0_0" in lines[0] and "im_1_1" in lines[0]
        assert len(lines) == 4

    def test_length_subcommand(self, rotation_files, capsys):
        first, second = rotation_files
        assert cli.main(["length", "--samples", "2000", first, second]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(np.pi / 6, abs=1e-4)

    @pytest.mark.parametrize("n, k", [(6, 3), (64, 16)])
    def test_length_is_the_exact_polyline(self, tmp_path, capsys, n, k):
        # the steps of a geodesic of spherical length theta on the uniform
        # grid of N samples are all sin(theta / (N - 1)); the value is
        # printed to 12 decimals, hence the half unit in the last place
        p = pj.random_projection(n, k, n)
        theta, samples = 1.3, 2000
        z = gr.random_tangent(p, np.random.default_rng(n), theta)
        first = write_point(tmp_path / "a.json", pj.classify(p.mat, p))
        second = write_point(tmp_path / "b.json",
                             pj.point_from_projection(gr.geodesic(p, z, 1.0), p))
        assert cli.main(["length", "--samples", str(samples), first, second]) == 0
        exact = (samples - 1) * np.sin(theta / (samples - 1))
        assert abs(float(capsys.readouterr().out) - exact) <= 0.5e-12 + 1e-13 * exact

    @pytest.mark.parametrize("space", ["grassmann", "cone", "disk"])
    @pytest.mark.parametrize("n, k", [(6, 3), (16, 12), (64, 16)])
    def test_cumulative_is_the_exact_polyline(self, tmp_path, space, n, k):
        # along a geodesic of length d sampled at N uniform points, step j
        # ends at j sin(d / (N - 1)) (chordal steps) or j d / (N - 1) (cone
        # steps); the tables print the column with repr, so it is judged
        # unrounded, from the rows the tables encode
        p = pj.random_projection(n, k, n)
        samples, rng = 2000, np.random.default_rng(n)
        if space == "grassmann":
            end = pj.point_from_projection(gr.geodesic(p, gr.random_tangent(p, rng, 1.3), 1.0), p)
        else:
            end = dk.cone_to_disk(dk.PositiveEpsUnitary.from_xparam(
                mo.random_hp_vector(p, rng, 2.5))).point
        first = write_point(tmp_path / "a.json", pj.classify(p.mat, p))
        second = write_point(tmp_path / "b.json", end)
        argv = ["disk-geodesic"] if space == "disk" else ["geodesic", "--space", space]
        args = cli.build_parser().parse_args(argv + ["--samples", str(samples), first, second])
        rows, _, d = cli._geodesic_table(args, space)
        j = np.arange(samples)
        exact = j * (np.sin(d / (samples - 1)) if space == "grassmann" else d / (samples - 1))
        assert [t for t, _ in rows] == np.linspace(0.0, 1.0, samples).tolist()
        assert np.abs(np.array([cum for _, cum in rows]) - exact).max() <= 1e-13 * exact[-1]

    def test_length_bad_samples(self, rotation_files):
        first, second = rotation_files
        assert cli.main(["length", "--samples", "1", first, second]) == 2

    def test_bad_samples(self, rotation_files):
        first, second = rotation_files
        assert cli.main(["geodesic", "--samples", "1", first, second]) == 2


class TestDiskCommands:
    def test_disk_dist_reports_all_metrics(self, hyperbolic_files, capsys):
        base, hyp = hyperbolic_files
        assert cli.main(["disk-dist", base, hyp]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rho"] == pytest.approx(np.sinh(1.0), abs=1e-9)
        assert payload["dpc"] == pytest.approx(np.tanh(1.0), abs=1e-9)
        assert payload["en"] == pytest.approx(1.0, abs=1e-9)
        assert payload["dplus"] == pytest.approx(2.0, abs=1e-9)

    def test_disk_geodesic_table(self, hyperbolic_files, capsys):
        base, hyp = hyperbolic_files
        assert cli.main(["disk-geodesic", "--samples", "60", base, hyp]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["space"] == "disk"
        assert len(payload["rows"]) == 60
        start = se.matrix_from_obj(payload["rows"][0]["matrix"])
        assert np.abs(start - np.diag([1.0, 0.0])).max() < 1e-9

    def test_out_of_disk_exit(self, tmp_path):
        base, outside = rotation_pair(1.2)
        f1 = write_point(tmp_path / "a.json", base)
        f2 = write_point(tmp_path / "b.json", outside)
        assert cli.main(["disk-dist", f1, f2]) == 5

    def test_disk_geodesic_near_rim(self, tmp_path, capsys):
        # chart radius 1 - 1e-6, corner norm 14.5: the points are taken
        # from the generator, not from checked cone elements of the samples
        p = pj.random_projection(6, 3, 2)
        target = mo.chart(mo.random_hp_vector(p, np.random.default_rng(2), 1 - 1e-6))
        base = write_point(tmp_path / "base.json", pj.classify(p.mat, p))
        far = write_point(tmp_path / "far.json", target)
        assert cli.main(["disk-geodesic", "--samples", "20", base, far]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        last = se.matrix_from_obj(rows[-1]["matrix"])
        assert np.abs(last - target.range.mat).max() <= 1e-9

    @pytest.mark.parametrize("argv", [["dist", "--metric", "dplus"], ["disk-dist"],
                                      ["geodesic", "--space", "cone", "--samples", "5"]],
                             ids=["dist", "disk-dist", "geodesic"])
    def test_relative_spectrum_not_positive_exit(self, argv, tmp_path, monkeypatch, capsys):
        # near the rim the computed spectrum of nu^{-1/2} mu nu^{-1/2} may
        # have a negative eigenvalue.  The cone distance reads only its top
        # and stays twice the non-Euclidean distance.  The cone geodesic
        # needs all of it and fails instead of writing NaN; rounding alone
        # decides whether the spectrum is lost, so a stub raises instead.
        p = pj.random_projection(6, 3, 7)
        m = mo.chart(mo.random_hp_vector(p, np.random.default_rng(0), 1 - 2e-9))
        base = write_point(tmp_path / "base.json", pj.classify(p.mat, p))
        near = write_point(tmp_path / "near.json", m)
        if argv[0] == "geodesic":
            def not_positive(mu, nu):
                raise NotPositive("relative spectrum of the cone elements is not positive")

            monkeypatch.setattr(dk, "_relative_spectrum", not_positive)
            assert cli.main(argv + [base, near]) == 8
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("NotPositive")
            return
        assert cli.main(argv + [base, near]) == 0
        out = capsys.readouterr().out
        if argv[0] == "dist":
            assert cli.main(["dist", "--metric", "en", base, near]) == 0
            dplus, en = float(out), float(capsys.readouterr().out)
        else:
            payload = json.loads(out)
            dplus, en = payload["dplus"], payload["en"]
        assert abs(dplus - 2 * en) <= 1e-11


def _old_matrix_obj(mat):
    return {"rows": mat.shape[0], "cols": mat.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in mat.ravel()]}


def _old_table_json(header, rows, mats):
    payload = dict(header)
    payload["rows"] = [{"t": t, "cumulative_length": cum, "matrix": _old_matrix_obj(mat)}
                       for (t, cum), mat in zip(rows, mats)]
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _old_table_csv(rows, mats):
    n = mats.shape[-1]
    cols = ["t", "cumulative_length"]
    cols += [f"{part}_{i}_{j}" for i in range(n) for j in range(n) for part in ("re", "im")]
    lines = [",".join(cols)]
    for (t, cum), mat in zip(rows, mats):
        vals = [f"{t:.12g}", f"{cum:.12g}"]
        for z in mat.ravel():
            vals += [f"{z.real:.17g}", f"{z.imag:.17g}"]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


class TestGoldenOutput:
    """Tables and files equal what per-entry encoding with ``json`` writes."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("space, files", [("grassmann", "rotation_files"),
                                              ("cone", "hyperbolic_files")])
    def test_geodesic_table(self, space, files, fmt, request, capsys):
        first, second = request.getfixturevalue(files)
        argv = ["geodesic", "--space", space, "--samples", "7", "--format", fmt, first, second]
        rows, mats, closed = cli._geodesic_table(cli.build_parser().parse_args(argv), space)
        if fmt == "json":
            want = _old_table_json({"space": space, "closed_form_distance": closed}, rows, mats)
        else:
            want = _old_table_csv(rows, mats)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want

    def test_disk_geodesic_table(self, hyperbolic_files, capsys):
        # the points themselves are checked against the per-sample route in
        # test_disk.py::TestGeodesicDiskPoints, the lengths in
        # TestGeodesicTables::test_cumulative_is_the_exact_polyline
        base, hyp = hyperbolic_files
        argv = ["disk-geodesic", "--samples", "6", base, hyp]
        rows, points, closed = cli._geodesic_table(cli.build_parser().parse_args(argv), "disk")
        want = _old_table_json({"space": "disk", "closed_form_distance": closed}, rows, points)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want

    def test_save_obj_bytes(self, rotation_files):
        base, moved = rotation_pair(np.pi / 6)
        for path, point in zip(rotation_files, (base, moved)):
            obj = {"kind": "point", "rep": _old_matrix_obj(point.rep.mat),
                   "context": _old_matrix_obj(point.context.mat)}
            want = json.dumps(obj, indent=1, sort_keys=True) + "\n"
            assert Path(path).read_text(encoding="utf-8") == want

    def test_short_command_layout(self, hyperbolic_files, tmp_path, capsys):
        base, hyp = hyperbolic_files
        ctx = write_projection(tmp_path / "p.json", plane_projection())
        swap = write_matrix(tmp_path / "g.json", np.array([[0.0, 1.0], [1.0, 0.0]]))
        b = write_matrix(tmp_path / "b.json", np.array([[0.0, 0.0], [2.0, 0.0]]))
        zero = write_matrix(tmp_path / "z.json", np.zeros((2, 2)))
        for argv in (["chart", "--context", ctx, b], ["chart", "--context", ctx, "--inverse", hyp],
                     ["moebius", "--context", ctx, swap, b], ["disk-dist", base, hyp],
                     ["random", "--kind", "pos-eps-unitary", "--dim", "3"]):
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            assert out == json.dumps(json.loads(out), indent=1, sort_keys=True) + "\n", argv
        assert cli.main(["moebius", "--context", ctx, swap, zero]) == 6
        want = json.dumps({"in_domain": False, "result": None}, sort_keys=True) + "\n"
        assert capsys.readouterr().out == want


class TestMoebiusAndChart:
    def test_moebius_apply(self, tmp_path, capsys):
        p = plane_projection()
        ctx = write_projection(tmp_path / "p.json", p)
        swap = write_matrix(tmp_path / "g.json", np.array([[0.0, 1.0], [1.0, 0.0]]))
        b = write_matrix(tmp_path / "b.json", np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert cli.main(["moebius", "--context", ctx, swap, b]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["in_domain"] is True
        out = se.matrix_from_obj(payload["result"])
        assert out[1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_moebius_outside_domain(self, tmp_path, capsys):
        p = plane_projection()
        ctx = write_projection(tmp_path / "p.json", p)
        swap = write_matrix(tmp_path / "g.json", np.array([[0.0, 1.0], [1.0, 0.0]]))
        zero = write_matrix(tmp_path / "b.json", np.zeros((2, 2)))
        assert cli.main(["moebius", "--context", ctx, swap, zero]) == 6
        payload = json.loads(capsys.readouterr().out)
        assert payload["in_domain"] is False

    def test_moebius_singular_matrix(self, tmp_path):
        p = plane_projection()
        ctx = write_projection(tmp_path / "p.json", p)
        sing = write_matrix(tmp_path / "g.json", np.diag([1.0, 0.0]))
        b = write_matrix(tmp_path / "b.json", np.zeros((2, 2)))
        assert cli.main(["moebius", "--context", ctx, sing, b]) == 7

    def test_chart_roundtrip(self, tmp_path, capsys):
        p = pj.random_projection(4, 2, 5)
        ctx = write_projection(tmp_path / "p.json", p)
        x = mo.random_hp_vector(p, np.random.default_rng(2), 0.4)
        xfile = write_matrix(tmp_path / "x.json", x.mat)
        assert cli.main(["chart", "--context", ctx, xfile]) == 0
        point_obj = json.loads(capsys.readouterr().out)
        pfile = tmp_path / "point.json"
        se.save_obj(point_obj, str(pfile))
        assert cli.main(["chart", "--context", ctx, "--inverse", str(pfile)]) == 0
        back = se.matrix_from_obj(json.loads(capsys.readouterr().out))
        assert np.abs(back - x.mat).max() < 1e-9


class TestVerifyCommand:
    def test_small_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--trials", "1", "--dims", "2,3",
                         "--seed", "5", "--output", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["overall_pass"] is True
        names = [r["name"] for r in report["properties"]]
        assert names == sorted(names)

    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert cli.main(["verify", "--trials", "1", "--dims", "2",
                             "--seed", "11", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_tolerance_exit_one(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["verify", "--trials", "1", "--dims", "2",
                         "--eq-tol", "1e-30", "--output", str(out)])
        assert code == 1

    def test_unwritable_output(self):
        assert cli.main(["verify", "--trials", "1", "--dims", "2",
                         "--output", "/no/such/dir/report.json"]) == 2

    def test_bad_dims(self):
        assert cli.main(["verify", "--dims", "2,zebra"]) == 2

    def test_csv_report(self, tmp_path):
        out = tmp_path / "report.csv"
        assert cli.main(["verify", "--trials", "1", "--dims", "2", "--seed", "3",
                         "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("name,trials,max_residual")
        assert len(lines) > 30


class TestRandomCommand:
    @pytest.mark.parametrize("kind", ["projection", "point", "tangent", "hpvector",
                                      "pos-eps-unitary", "invertible", "unitary"])
    def test_kinds_emit_valid_json(self, tmp_path, capsys, kind):
        out = tmp_path / "obj.json"
        assert cli.main(["random", "--kind", kind, "--dim", "4", "--seed", "3",
                         "--output", str(out)]) == 0
        obj = read_json(out)
        assert isinstance(obj, dict)
        if kind == "projection":
            q = se.projection_from_obj(obj)
            assert q.rank == 2
        if kind == "point":
            m = se.point_from_obj(obj)
            assert m.range.rank == 2

    @pytest.mark.parametrize("kind", ["projection", "point", "tangent", "hpvector",
                                      "pos-eps-unitary", "invertible", "unitary"])
    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_nonpositive_dim_is_input_error(self, kind, dim, capsys):
        assert cli.main(["random", "--kind", kind, "--dim", dim]) == 2
        assert "dimension must be at least 1" in capsys.readouterr().err

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRASSGEO_SEED", "99")
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["random", "--kind", "projection", "--output", str(f1)]) == 0
        assert cli.main(["random", "--kind", "projection", "--output", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        monkeypatch.setenv("GRASSGEO_SEED", "100")
        f3 = tmp_path / "c.json"
        assert cli.main(["random", "--kind", "projection", "--output", str(f3)]) == 0
        assert f1.read_bytes() != f3.read_bytes()

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("GRASSGEO_SEED", "pineapple")
        assert cli.main(["random", "--kind", "projection"]) == 2

    def test_shared_context_workflow(self, tmp_path, capsys):
        # the documented session: one context, two points, distance, geodesic
        pfile = str(tmp_path / "p.json")
        afile = str(tmp_path / "a.json")
        bfile = str(tmp_path / "b.json")
        assert cli.main(["random", "--kind", "projection", "--dim", "4",
                         "--seed", "7", "--output", pfile]) == 0
        assert cli.main(["random", "--kind", "point", "--context", pfile,
                         "--seed", "1", "--output", afile]) == 0
        assert cli.main(["random", "--kind", "point", "--context", pfile,
                         "--seed", "2", "--output", bfile]) == 0
        assert cli.main(["dist", "--metric", "spherical", afile, bfile]) == 0
        value = float(capsys.readouterr().out)
        assert 0.0 < value < np.pi / 2
        out = tmp_path / "path.csv"
        assert cli.main(["geodesic", "--samples", "500", "--format", "csv",
                         "--output", str(out), afile, bfile]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 501
        final_len = float(lines[-1].split(",")[1])
        assert final_len == pytest.approx(value, abs=1e-3)


# Runs in a fresh interpreter: the short commands, the Grassmann table
# commands, an in-process geodesic_log, the linalg kernel named by the second
# argument (once loaded from scipy on first use) and a small verify run must
# never load scipy.
_SCIPY_FREE_RUN = """
import contextlib, io, json, sys
import numpy as np
import grassgeo, grassgeo.cli
from grassgeo import grassmann, linalg, projective

def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = grassgeo.cli.main(argv)
    assert code == 0, (argv, code)
    assert not scipy_loaded(), argv

for argv in json.loads(sys.argv[1]):
    run(argv)

p = projective.random_projection(4, 2, 1)
q = projective.random_projection(4, 2, 2)
z = grassmann.geodesic_log(p, q)
assert np.abs(grassmann.geodesic(p, z, 1.0).mat - q.mat).max() < 1e-9
if sys.argv[2] == "log_unitary":
    assert np.abs(linalg.log_unitary(q.eps @ p.eps) - 2 * z.mat).max() < 1e-12
else:
    a = np.array([[1.0, 2.0], [0.0, 1.0]])  # 1 + nilpotent, so exp(a) = e a
    assert np.abs(linalg.expm(a) - np.e * a).max() < 1e-12
assert not scipy_loaded()
run(["verify", "--dims", "2,3", "--trials", "2"])
"""


class TestScipyOnDemand:
    # scipy is never demanded: neither kernel that once loaded it on first use
    # does so any more
    @pytest.mark.parametrize("kernel", ["log_unitary", "expm"])
    def test_short_commands_start_without_scipy(self, hyperbolic_files, tmp_path, kernel):
        base, hyp = hyperbolic_files
        p = plane_projection()
        ctx = write_projection(tmp_path / "p.json", p)
        swap = write_matrix(tmp_path / "g.json", np.array([[0.0, 1.0], [1.0, 0.0]]))
        b = write_matrix(tmp_path / "b.json", np.array([[0.0, 0.0], [2.0, 0.0]]))
        argvs = [["dist", "--metric", metric, base, hyp]
                 for metric in ("chordal", "spherical", "dk", "dpc", "en", "dplus")]
        argvs += [["chart", "--context", ctx, b],
                  ["chart", "--context", ctx, "--inverse", hyp],
                  ["moebius", "--context", ctx, swap, b],
                  ["disk-dist", base, hyp],
                  ["geodesic", "--samples", "50", base, hyp],
                  ["geodesic", "--samples", "50", "--format", "csv", base, hyp],
                  ["length", "--samples", "50", base, hyp]]
        src = str(Path(grassgeo.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_FREE_RUN, json.dumps(argvs), kernel],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestScipyFree:
    def test_no_module_imports_scipy(self):
        # every import statement of the package, in function bodies too
        for path in Path(grassgeo.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), path.name
