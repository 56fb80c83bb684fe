import math
import os
import signal
import time

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

def _recorder(per_dim, path):
    """A property whose instances append (dimension, first draw) to the file
    ``path`` and pass; the appends of forked workers land in the same file."""

    def instance(n, rng, tol):
        with open(path, "a") as fh:
            fh.write(f"{n} {rng.random()!r}\n")
        return 0.0

    return vf.Property("recorder", "records its instances", "recorder-stream", 1, per_dim,
                       lambda c: 0.0, instance)


def _recorded(path):
    with open(path) as fh:
        return sorted((int(n), float(x)) for n, x in (line.split() for line in fh))


class TestTrialDriver:
    CFG = vf.RunConfig(seed=11, dims=(4, 2, 3), trials=5)

    def first_draw(self, n, i):
        return vf._rng(self.CFG, "recorder-stream", n, i).random()

    def recorded_runs(self, monkeypatch, tmp_path, per_dim):
        """The draws recorded by a one-worker and by a two-worker run."""
        runs = []
        for count in (1, 2):
            monkeypatch.setattr(vf, "_cpu_count", lambda: count)
            path = tmp_path / f"draws-{count}"
            result = vf.run_property(_recorder(per_dim, path), self.CFG)
            assert result.passed and result.trials == 5
            runs.append(_recorded(path))
        return runs

    def test_per_dim_runs_trials_in_every_dimension(self, monkeypatch, tmp_path):
        # each (dimension, trial) key drawn exactly once, from its own generator
        expected = sorted((n, self.first_draw(n, i)) for n in (4, 2, 3) for i in range(5))
        assert self.recorded_runs(monkeypatch, tmp_path, True) == [expected, expected]

    def test_trials_cycle_through_dimensions(self, monkeypatch, tmp_path):
        dims = [4, 2, 3, 4, 2]
        expected = sorted((n, self.first_draw(n, i)) for i, n in enumerate(dims))
        assert self.recorded_runs(monkeypatch, tmp_path, False) == [expected, expected]

    def test_nan_residual_fails_the_property(self, monkeypatch):
        # the NaN belongs to the key (3, 1), whichever worker evaluates it
        prop = vf.Property("nan-probe", "one instance residual is NaN", "nan-probe", 3, False,
                           lambda c: 1.0, lambda n, rng, tol: math.nan if n == 3 else 1e-12)
        for count in (1, 2, 3):
            monkeypatch.setattr(vf, "_cpu_count", lambda: count)
            result = vf.run_property(prop, vf.RunConfig(dims=(2, 3, 4)))
            assert math.isnan(result.max_residual)
            assert not result.passed
        assert math.isnan(vf._worst([0.5, float("nan"), 2.0]))


def test_draw_contract():
    cfg = vf.RunConfig()
    rows = [(p.name, p.stream, p.per_dim, p.default_trials, p.tolerance(cfg))
            for p in vf.REGISTRY]
    assert rows == DRAW_CONTRACT


def _probe(name, instance, trials=4):
    """A property of ``trials`` instances, trial ``i`` at dimension ``2 + i``,
    and the configuration that runs it."""
    dims = tuple(range(2, 2 + trials))
    prop = vf.Property(name, "a probe of the trial driver", name, trials, False,
                       lambda c: 1.0, instance)
    return prop, vf.RunConfig(dims=dims)


class TestForkedWorkers:
    """The trials shared out among forked workers give the one-worker report."""

    # every case runs at each of these worker counts in turn
    WORKERS = (2, 3)

    @pytest.fixture
    def forked(self, monkeypatch):
        """The pids of the children forked from this process, this process's
        pid, and a function that sets the number of workers; a test that
        waits for more than 60 s raises instead of hanging."""
        pids, fork, parent = [], os.fork, os.getpid()

        def recording():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        def timeout(signum, frame):
            raise TimeoutError("the trial driver waited for more than 60 s")

        def workers(count):
            monkeypatch.setattr(vf, "_cpu_count", lambda: count)

        monkeypatch.setattr(os, "fork", recording)
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            yield pids, parent, workers
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def assert_reaped(pids):
        assert pids
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_reports_are_byte_identical(self, monkeypatch):
        cfg = vf.RunConfig(seed=5, dims=(2, 3, 4), trials=3)
        texts = []
        for count in (1, *self.WORKERS):
            monkeypatch.setattr(vf, "_cpu_count", lambda: count)
            report = vf.run_all(cfg)
            texts.append((vf.report_to_json(report), vf.report_to_csv(report)))
        assert texts[1:] == texts[:1] * len(self.WORKERS)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_earliest_error_is_reported(self, monkeypatch, count):
        # key 3 fails in whichever worker takes it, which may be before key 1
        # fails in another one
        def instance(n, rng, tol):
            if n == 3:
                raise ValueError("trial 1")
            if n == 5:
                raise InvalidInput("trial 3")
            return 0.0

        monkeypatch.setattr(vf, "_cpu_count", lambda: count)
        result = vf.run_property(*_probe("two-errors", instance))
        assert result.error == "ValueError: trial 1"
        assert result.max_residual == math.inf and not result.passed

    def test_nan_in_a_child_wins(self, forked):
        pids, parent, workers = forked
        for count in self.WORKERS:
            workers(count)
            result = vf.run_property(*_probe(
                "child-nan", lambda n, rng, tol: 1e-12 if os.getpid() == parent else math.nan))
            assert math.isnan(result.max_residual) and not result.passed
            self.assert_reaped(pids)

    def test_a_child_that_exits_gives_an_error(self, forked):
        pids, parent, workers = forked

        def instance(n, rng, tol):
            if os.getpid() != parent:
                os._exit(3)
            return 0.0

        for count in self.WORKERS:
            workers(count)
            result = vf.run_property(*_probe("child-exit", instance))
            assert result.error.startswith("ChildProcessError: trial worker ")
            assert f"of {count} exited with status 3" in result.error
            assert not result.passed
            self.assert_reaped(pids)

    def test_no_child_outlives_run_all(self, forked, monkeypatch):
        pids, parent, workers = forked

        def exits(n, rng, tol):
            if os.getpid() != parent:
                os._exit(1)
            return 0.0

        def raises(n, rng, tol):
            raise ValueError("no")

        probes = [_probe("exits", exits)[0], _probe("raises", raises)[0],
                  _probe("passes", lambda n, rng, tol: 0.0)[0]]
        monkeypatch.setattr(vf, "REGISTRY", tuple(probes))
        for count in self.WORKERS:
            workers(count)
            report = vf.run_all(vf.RunConfig(dims=(2, 3, 4, 5)))
            assert [r.passed for r in report.properties] == [False, True, False]
            self.assert_reaped(pids)

    def test_an_interrupt_kills_the_children(self, forked, monkeypatch):
        pids, parent, workers = forked

        def instance(n, rng, tol):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60.0)
            return 0.0

        monkeypatch.setattr(vf, "REGISTRY", (_probe("interrupted", instance)[0],))
        for count in self.WORKERS:
            workers(count)
            start = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                vf.run_all(vf.RunConfig(dims=(2, 3, 4, 5)))
            assert time.monotonic() - start < 30.0
            self.assert_reaped(pids)

    @staticmethod
    def pid_log(path, slow=None):
        """An instance of a property of 40 keys, trial ``i`` at dimension
        ``2 + i``, that appends (pid, dimension) to the file ``path`` and,
        when ``slow`` names a file, makes the worker that evaluates key 1
        sleep 20 ms on each of its keys."""

        def instance(n, rng, tol):
            with open(path, "a") as fh:
                fh.write(f"{os.getpid()} {n}\n")
            if slow is not None:
                if n == 3:
                    slow.write_text(str(os.getpid()))
                if slow.exists() and slow.read_text() == str(os.getpid()):
                    time.sleep(0.02)
            return rng.random()

        return vf.Property("pid-log", "a probe of the work queue", "pid-log", 40, False,
                           lambda c: 1.0, instance), vf.RunConfig(dims=tuple(range(2, 42)))

    @staticmethod
    def logged(path):
        with open(path) as fh:
            return [tuple(map(int, line.split())) for line in fh]

    def test_this_process_evaluates_the_first_chunk_only(self, forked, tmp_path):
        # its share is fixed, so a tracer in this process sees the same calls in every run
        pids, parent, workers = forked
        path = tmp_path / "keys"
        prop, cfg = self.pid_log(path)
        for count in (1, *self.WORKERS):
            workers(count)
            path.write_text("")
            vf.run_property(prop, cfg)
            log = self.logged(path)
            assert sorted(n for _, n in log) == list(range(2, 42))
            mine = [n for pid, n in log if pid == parent]
            assert mine == (list(range(2, 42)) if count == 1 else [2])
        self.assert_reaped(pids)

    def test_a_slow_worker_takes_fewer_chunks(self, forked, tmp_path):
        # with 40 keys a chunk is one key; the child that takes key 1 sleeps
        # 20 ms on each of its keys, so the other children take most of the queue
        pids, parent, workers = forked
        path, slow = tmp_path / "keys", tmp_path / "slow"
        prop, cfg = self.pid_log(path, slow)
        results = []
        for count in (1, *self.WORKERS):
            workers(count)
            path.write_text("")
            slow.unlink(missing_ok=True)
            results.append(vf.run_property(prop, cfg))
            log = self.logged(path)
            assert sorted(n for _, n in log) == list(range(2, 42))
            if count > 1:
                assert sum(pid != int(slow.read_text()) for pid, _ in log) > 20
        assert results[1:] == results[:1] * len(self.WORKERS)
        self.assert_reaped(pids)

    def test_a_failure_empties_the_queue(self, forked, tmp_path):
        # key 1 fails in the child that takes it; every chunk still queued is
        # above it, so the children stop instead of evaluating the other 198
        pids, parent, workers = forked
        path = tmp_path / "keys"

        def instance(n, rng, tol):
            if n == 3:
                raise ValueError("key 1")
            with open(path, "a") as fh:
                fh.write(f"{os.getpid()} {n}\n")
            time.sleep(0.002)
            return 0.0

        prop = vf.Property("early-failure", "a probe of the work queue", "early-failure", 200,
                           False, lambda c: 1.0, instance)
        for count in self.WORKERS:
            workers(count)
            path.write_text("")
            result = vf.run_property(prop, vf.RunConfig(dims=tuple(range(2, 202))))
            assert result.error == "ValueError: key 1"
            assert len(self.logged(path)) < 100
        self.assert_reaped(pids)

    def test_a_child_that_exits_is_reported_before_any_error(self, forked, tmp_path):
        pids, parent, workers = forked
        died = tmp_path / "died"

        def instance(n, rng, tol):
            if os.getpid() != parent:
                died.touch()
                os._exit(3)
            deadline = time.monotonic() + 30.0
            while not died.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            raise ValueError("key 0")

        for count in self.WORKERS:
            workers(count)
            died.unlink(missing_ok=True)
            result = vf.run_property(*_probe("child-exit-first", instance))
            assert "exited with status 3 before reporting" in result.error
        self.assert_reaped(pids)

    def test_the_queue_hands_out_one_chunk_per_read(self):
        # readers of one queue share it chunk by chunk; none reads ahead
        queue, feed = os.pipe()
        os.write(feed, b"".join(c.to_bytes(4, "little") for c in (5, 6, 7)))
        os.close(feed)
        try:
            first, second = vf._queued(queue), vf._queued(queue)
            assert [next(first), next(second), next(first)] == [5, 6, 7]
            assert list(second) == [] and list(first) == []
        finally:
            os.close(queue)

    def test_keys_in_chunks_of_three(self, monkeypatch, tmp_path):
        # 3000 keys make 1000 chunks of 3; key 1501 is the middle of chunk 500
        cfg = vf.RunConfig(seed=3, dims=(2, 3, 4))
        planted = {vf._rng(cfg, "chunked-errors", 3, 1501).random(): ValueError("key 1501"),
                   vf._rng(cfg, "chunked-errors", 4, 2000).random(): InvalidInput("key 2000")}

        def fails(n, rng, tol):
            draw = rng.random()
            if draw in planted:
                raise planted[draw]
            return draw

        path = tmp_path / "draws"

        def records(n, rng, tol):
            draw = rng.random()
            with open(path, "a") as fh:
                fh.write(f"{n} {draw!r}\n")
            return draw

        probes = (vf.Property("chunked", "a probe of the chunks", "chunked", 3000, False,
                              lambda c: 1.0, records),
                  vf.Property("chunked-errors", "a probe of the chunks", "chunked-errors", 3000,
                              False, lambda c: 1.0, fails))
        expected = sorted(((2, 3, 4)[i % 3], vf._rng(cfg, "chunked", (2, 3, 4)[i % 3], i).random())
                          for i in range(3000))
        monkeypatch.setattr(vf, "REGISTRY", probes)
        texts = []
        for count in (1, 2, 3):
            monkeypatch.setattr(vf, "_cpu_count", lambda: count)
            path.write_text("")
            report = vf.run_all(cfg)
            # every key evaluated exactly once, from its own generator
            assert _recorded(path) == expected
            assert report.properties[1].error == "ValueError: key 1501"
            texts.append((vf.report_to_json(report), vf.report_to_csv(report)))
        assert texts[1:] == texts[:1] * 2
