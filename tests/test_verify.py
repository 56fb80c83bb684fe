import math

import pytest

from grassgeo import verify as vf
from grassgeo.errors import InvalidInput

SMALL = vf.RunConfig(seed=7, dims=(2, 3), trials=2)

# (name, stream, per_dim, default_trials, tolerance at the default RunConfig)
# of every registered property.  Each instance is drawn from the generator
# keyed by (stream, dimension, trial), so changing any entry changes reports.
DRAW_CONTRACT = [
    ("chart-roundtrip", "chart-roundtrip", False, 200, 1e-06),
    ("chart-tan-identity", "chart-tan", False, 500, 1e-09),
    ("chart-transition-cocycle", "transition-cocycle", False, 200, 1e-07),
    ("chart-transition-formula", "transition-formula", False, 200, 1e-08),
    ("chordal-spherical-sin-identity", "sin-identity", True, 500, 1e-10),
    ("chordal-unitary-invariance", "chordal-invariance", False, 200, 1e-09),
    ("class-map-well-defined", "class-map", False, 200, 1e-09),
    ("classify-idempotent", "classify-idempotent", False, 200, 0.0),
    ("cone-block-structure", "cone-blocks", False, 100, 1e-06),
    ("cone-geodesic-additivity", "cone-additivity", False, 20, 1e-08),
    ("cone-geodesic-closure", "cone-closure", False, 20, 1e-09),
    ("cone-geodesic-length", "cone-length", False, 10, 0.0001),
    ("cone-path-minimality", "cone-minimality", False, 10, 1e-06),
    ("cone-power-stability", "cone-powers", False, 200, 1e-09),
    ("disk-double-non-euclidean", "double-en", True, 500, 1e-08),
    ("disk-map-roundtrip", "disk-roundtrip", False, 200, 1e-08),
    ("disk-membership-characterizations", "disk-membership", False, 1000, 0.5),
    ("eps-invariance", "eps-invariance", False, 100, 1e-08),
    ("eps-unitary-closure", "eps-closure", False, 200, 1e-09),
    ("func-calc-spectral-mapping", "func-calc", False, 200, 1e-09),
    ("geodesic-arc-length", "minimality", False, 100, 0.0001),
    ("geodesic-log-roundtrip", "geodesic-roundtrip", True, 500, 1e-08),
    ("geodesic-minimality", "minimality", False, 100, 1e-06),
    ("moebius-composition", "moebius-composition", False, 200, 1e-08),
    ("moebius-identity", "moebius-identity", False, 50, 1e-12),
    ("moebius-projectivity-consistency", "moebius-projectivity", False, 200, 1e-08),
    ("operator-norm-laws", "op-norm", False, 200, 1e-09),
    ("point-finiteness-characterizations", "finiteness", False, 500, 0.5),
    ("polar-decomposition-residual", "polar", False, 200, 1e-09),
    ("projectivity-group-action", "projectivity-action", False, 200, 1e-06),
    ("pseudo-chordal-chart-identity", "dpc-chart", False, 500, 1e-09),
    ("range-projection-formula", "range-formula", False, 300, 1e-08),
    ("range-rank-preserved", "rank-preserved", False, 200, 1e-09),
    ("rho-symmetry", "rho-symmetry", False, 200, 1e-10),
    ("sin-triangle-inequality", "sin-triangle", False, 200, 1e-10),
    ("unitary-extension-class", "unitary-extension", False, 200, 1e-09),
    ("unitary-log-roundtrip", "unitary-log", False, 200, 1e-06),
]


class TestRunConfig:
    def test_defaults(self):
        cfg = vf.RunConfig()
        assert cfg.dims == (2, 3, 4, 5, 6, 7, 8)
        assert cfg.trials is None

    def test_validation(self):
        with pytest.raises(InvalidInput):
            vf.RunConfig(trials=0)
        with pytest.raises(InvalidInput):
            vf.RunConfig(dims=(1, 2))
        with pytest.raises(InvalidInput):
            vf.RunConfig(eq_tol=-1.0)


class TestRunAll:
    def test_small_run_passes(self):
        report = vf.run_all(SMALL)
        assert len(report.properties) == len(vf.REGISTRY)
        failing = [r.name for r in report.properties if not r.passed]
        assert failing == []
        assert report.overall_pass

    def test_records_sorted_by_name(self):
        report = vf.run_all(SMALL)
        names = [r.name for r in report.properties]
        assert names == sorted(names)

    def test_pass_iff_residual_below_tolerance(self):
        report = vf.run_all(SMALL)
        for rec in report.properties:
            assert rec.passed == (rec.max_residual <= rec.tolerance)

    def test_deterministic_report(self):
        a = vf.report_to_json(vf.run_all(SMALL))
        b = vf.report_to_json(vf.run_all(SMALL))
        assert a == b

    def test_seed_changes_residuals(self):
        other = vf.RunConfig(seed=8, dims=(2, 3), trials=2)
        a = vf.report_to_json(vf.run_all(SMALL))
        b = vf.report_to_json(vf.run_all(other))
        assert a != b

    def test_infeasible_tolerance_fails_something(self):
        cfg = vf.RunConfig(seed=7, dims=(2,), trials=1, eq_tol=1e-30)
        report = vf.run_all(cfg)
        assert not report.overall_pass
        assert any(not r.passed for r in report.properties)

    def test_subset_selection(self):
        report = vf.run_all(SMALL, names=("moebius-identity",))
        assert [r.name for r in report.properties] == ["moebius-identity"]
        assert report.properties[0].passed

    def test_csv_report_shape(self):
        report = vf.run_all(SMALL, names=("moebius-identity", "rho-symmetry"))
        text = vf.report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0].startswith("name,")
        assert len(lines) == 3


def test_sin_identity_detects_a_shifted_chordal_distance(monkeypatch):
    # the identity is checked against the angle the instance is built at,
    # so a chordal distance off by 1e-7 fails it
    d_chordal = vf.gr.d_chordal
    monkeypatch.setattr(vf.gr, "d_chordal", lambda m, n, tol: d_chordal(m, n, tol) + 1e-7)
    report = vf.run_all(SMALL, names=("chordal-spherical-sin-identity",))
    assert report.properties[0].max_residual > 9e-8
    assert not report.properties[0].passed


@pytest.mark.parametrize("name, module, kernel", [
    ("geodesic-minimality", vf.gr, "_path_integrals"),
    ("cone-path-minimality", vf.dk, "_cone_path_integrals"),
])
def test_minimality_detects_a_path_shorter_than_the_geodesic(monkeypatch, name, module, kernel):
    # the perturbed lengths are compared with the geodesic's length, not
    # with a bound they obey by construction: one perturbed path measured
    # 1e-5 shorter than the geodesic fails the property
    measure = getattr(module, kernel)

    def shortened(*args):
        geo, *pert = measure(*args)
        return [geo, *pert[:-1], geo - 1e-5]

    assert vf.run_all(SMALL, names=(name,)).properties[0].passed
    monkeypatch.setattr(module, kernel, shortened)
    result = vf.run_all(SMALL, names=(name,)).properties[0]
    assert result.max_residual == pytest.approx(1e-5, rel=1e-9)
    assert not result.passed

def _recorder(per_dim):
    """A property whose instances record (dimension, first draw) and pass."""
    seen = []

    def instance(n, rng, tol):
        seen.append((n, rng.random()))
        return 0.0

    prop = vf.Property("recorder", "records its instances", "recorder-stream", 1, per_dim,
                       lambda c: 0.0, instance)
    return prop, seen


class TestTrialDriver:
    CFG = vf.RunConfig(seed=11, dims=(4, 2, 3), trials=5)

    def first_draw(self, n, i):
        return vf._rng(self.CFG, "recorder-stream", n, i).random()

    def test_per_dim_runs_trials_in_every_dimension(self):
        prop, seen = _recorder(per_dim=True)
        result = vf.run_property(prop, self.CFG)
        assert result.passed and result.trials == 5
        assert seen == [(n, self.first_draw(n, i)) for n in (4, 2, 3) for i in range(5)]

    def test_trials_cycle_through_dimensions(self):
        prop, seen = _recorder(per_dim=False)
        result = vf.run_property(prop, self.CFG)
        assert result.passed and result.trials == 5
        dims = [4, 2, 3, 4, 2]
        assert seen == [(n, self.first_draw(n, i)) for i, n in enumerate(dims)]

    def test_nan_residual_fails_the_property(self):
        residuals = iter([1e-12, float("nan"), 1e-13])
        prop = vf.Property("nan-probe", "one instance residual is NaN", "nan-probe", 3, False,
                           lambda c: 1.0, lambda n, rng, tol: next(residuals))
        result = vf.run_property(prop, vf.RunConfig(dims=(2,)))
        assert math.isnan(result.max_residual)
        assert not result.passed
        assert math.isnan(vf._worst([0.5, float("nan"), 2.0]))


def test_draw_contract():
    cfg = vf.RunConfig()
    rows = [(p.name, p.stream, p.per_dim, p.default_trials, p.tolerance(cfg))
            for p in vf.REGISTRY]
    assert rows == DRAW_CONTRACT
