"""The error contract at the public boundary.

Invalid values handed to a public constructor or function raise a
``grassgeo.errors`` class, never numpy's or Python's own exceptions and
never a non-finite result: NaN and infinite entries, empty and non-square
matrices, matrices of the wrong dimension for their context, non-numeric
input, bad stacks, counts and real parameters.  Three checks decide them:
``linalg.as_matrix`` (matrices), ``grassmann._as_stack`` (stacks) and
``linalg._as_count`` (counts), with ``linalg._as_real`` for times, norms
and scales.  Every ``grassgeo`` command given malformed files or arguments
ends with its documented exit code, never with a traceback.

Cost: about 5 s of tier-1 on a 2-CPU box, nearly all of it the CLI sweep.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassgeo
from grassgeo import cli
from grassgeo import disk as dk
from grassgeo import grassmann as gr
from grassgeo import linalg as la
from grassgeo import moebius as mo
from grassgeo import projective as pj
from grassgeo import serialize as se
from grassgeo import verify as vf
from grassgeo.errors import GrassgeoError, InvalidInput, InvalidTangent

P = pj.random_projection(4, 2, 11)
RNG = np.random.default_rng(5)
Z = gr.random_tangent(P, RNG, 0.7)
MU = dk.random_pos_eps_unitary(P, 1.0, 3)
DISK = dk.cone_to_disk(MU)
TS = np.array([0.0, 0.5, 1.0])


NON_NUMERIC = ["abc", [[1.0, 2.0], [3.0]], [["a", "b"], ["c", "d"]], None, {"rows": 4},
               [[1, [2]], [3, 4]], object()]


@st.composite
def bad_matrices(draw, n=4):
    """(kind, value): a malformed stand-in for an n x n matrix over a
    context of dimension n."""
    kind = draw(st.sampled_from(["non-finite", "other-dimension", "non-square", "empty",
                                 "not-2-d", "non-numeric"]))
    if kind == "non-finite":
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan),
                                      complex(1, -np.inf)]))
        a = np.eye(n, dtype=type(value))
        a[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = value
    elif kind == "other-dimension":
        a = np.eye(draw(st.integers(1, 7).filter(lambda m: m != n)))
    elif kind == "non-square":
        rows, cols = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(
            lambda s: s[0] != s[1]))
        a = np.ones((rows, cols))
    elif kind == "empty":
        a = np.zeros(draw(st.sampled_from([(0, 0), (n, 0), (0, n)])))
    elif kind == "not-2-d":
        a = np.ones(draw(st.sampled_from([(), (n,), (1, n, n), (n, n, 1)])))
    else:
        a = draw(st.sampled_from(NON_NUMERIC))
    return kind, a


# every public function or constructor that takes a matrix, with the
# matrix in one slot; those over a context take the context P
MATRIX_TAKERS = {
    "Projection": lambda a: pj.Projection(a),
    "PartialIsometry": lambda a: pj.PartialIsometry(a, P),
    "TangentVector": lambda a: gr.TangentVector(a, P),
    "HpVector": lambda a: mo.HpVector(a, P),
    "MoebiusMap": lambda a: mo.MoebiusMap(a, P),
    "EpsUnitary": lambda a: dk.EpsUnitary(a, P),
    "PositiveEpsUnitary": lambda a: dk.PositiveEpsUnitary(a, P),
    "classify": lambda a: pj.classify(a, P),
    "in_lp": lambda a: pj.in_lp(a, P),
    "unitary_extension": lambda a: pj.unitary_extension(a, P),
    "projectivity": lambda a: gr.projectivity(a, P),
    "is_eps_unitary": lambda a: dk.is_eps_unitary(a, P),
    "eps_action": lambda a: dk.eps_action(a, DISK),
    "cone_perturbed_path": lambda a: dk.cone_perturbed_path(MU, MU, a, TS),
    "op_norm": la.op_norm,
    "hermitian_eig": la.hermitian_eig,
    "func_calc": lambda a: la.func_calc(np.exp, a),
    "polar": la.polar,
    "expm": la.expm,
    "log_unitary": la.log_unitary,
    "log_posdef": la.log_posdef,
    "sqrt_posdef": la.sqrt_posdef,
    "svd_range_projection": la.svd_range_projection,
}
# the matrix takers that have no context, and so accept any dimension
FREE = {"Projection", "op_norm", "hermitian_eig", "func_calc", "polar", "expm",
        "log_unitary", "log_posdef", "sqrt_posdef", "svd_range_projection"}
# ... of which these accept a non-square matrix
RECTANGULAR = {"op_norm", "svd_range_projection"}

# the public names that take no matrix, stack, count or real parameter of
# their own: they take validated objects, whose pairs
# tests/test_context_pairs.py covers, or are data and errors
OBJECTS_ONLY = {
    "ProjectivePoint", "DiskPoint", "EpsSymmetry", "class_equal", "d_chordal",
    "d_spherical", "geodesic_log", "chart", "chart_inv", "d_chart", "moebius_domain",
    "moebius_apply", "chart_transition", "cone_to_disk", "disk_to_cone", "to_disk_point",
    "base_disk_point", "rho", "d_pseudo_chordal", "d_non_euclidean", "d_cone",
    "in_disk", "point_from_projection", "run_all", "Report", "HermitianEig",
}
# public names with a count, a real parameter or times, tested below
SCALAR_TAKERS = {
    "random_projection", "random_point_near", "random_tangent", "random_hp_vector",
    "random_pos_eps_unitary", "geodesic", "eps_geodesic", "Curve", "curve_length",
    "geodesic_curve", "perturbed_curve", "tangent_path_lengths", "Tolerance", "RunConfig",
}


def test_every_public_callable_is_covered():
    names = {name for name in grassgeo.__all__
             if callable(getattr(grassgeo, name))
             and not (isinstance(getattr(grassgeo, name), type)
                      and issubclass(getattr(grassgeo, name), Exception))}
    assert names - (set(MATRIX_TAKERS) | OBJECTS_ONLY | SCALAR_TAKERS) == set()


def raises_package_error(fn, *args):
    """The class ``fn(*args)`` raised, which must be a package error."""
    with pytest.raises(GrassgeoError) as info:
        fn(*args)
    return info.type


@settings(max_examples=60, deadline=None)
@given(bad_matrices())
def test_invalid_matrices_raise_package_errors(case):
    kind, bad = case
    for name, fn in MATRIX_TAKERS.items():
        if (name in FREE and kind == "other-dimension"
                or name in RECTANGULAR and kind == "non-square"):
            continue
        error = raises_package_error(fn, bad)
        # a tangent of the wrong dimension is an invalid tangent; everything
        # else is invalid input
        wrong_dim = kind == "other-dimension" and name == "TangentVector"
        assert error is (InvalidTangent if wrong_dim else InvalidInput), name


def test_unified_dimension_message():
    for name in sorted(set(MATRIX_TAKERS) - FREE):
        with pytest.raises(GrassgeoError, match="matrix and context dimensions differ"):
            MATRIX_TAKERS[name](np.eye(5))


def test_as_matrix_coerces_or_raises_invalid_input():
    for bad in ("abc", [[1.0, 2.0], [3.0]], [[1, [2]], [3, 4]], {"a": 1}, object()):
        with pytest.raises(InvalidInput):
            la.as_matrix(bad)
    assert la.as_matrix([[1, 2], [3, 4]], dim=2).dtype == complex
    with pytest.raises(InvalidTangent, match="dimensions differ"):
        la.as_matrix(np.eye(3), dim=2, error=InvalidTangent)
    # the shape and entry checks keep their class whatever ``error`` is
    with pytest.raises(InvalidInput, match="square"):
        la.as_matrix(np.eye(3, 2), dim=3, error=InvalidTangent)
    with pytest.raises(InvalidInput, match="non-finite"):
        la.as_matrix(np.full((2, 2), np.nan), dim=2, error=InvalidTangent)


# --- stacks ---------------------------------------------------------------

STACK_TAKERS = {
    "chordal_steps": gr.chordal_steps,
    "cone_polyline_steps": dk.cone_polyline_steps,
    "cone_polyline_length": dk.cone_polyline_length,
}


@st.composite
def bad_stacks(draw, n=8):
    """A malformed stand-in for a stack of n x n matrices; at n = 8 a
    stack of more than 256 samples has several blocks of samples."""
    kind = draw(st.sampled_from(["non-finite", "not-3-d", "non-square", "0x0",
                                 "non-numeric"]))
    if kind == "non-finite":
        count = draw(st.integers(1, 600))
        a = np.stack([np.eye(n, dtype=complex)] * count)
        a[draw(st.integers(0, count - 1)), draw(st.integers(0, n - 1)),
          draw(st.integers(0, n - 1))] = draw(st.sampled_from(
              [np.nan, -np.inf, complex(0, np.inf)]))
        return a
    if kind == "not-3-d":
        return np.ones(draw(st.sampled_from([(), (n,), (n, n), (2, 2, n, n)])))
    if kind == "non-square":
        return np.ones((draw(st.integers(0, 4)), n, n + draw(st.sampled_from([-1, 1, 2]))))
    if kind == "0x0":
        return np.zeros((draw(st.integers(0, 4)), 0, 0))
    return draw(st.sampled_from(NON_NUMERIC + [[np.eye(2).tolist(), np.eye(3).tolist()]]))


@settings(max_examples=40, deadline=None)
@given(bad_stacks())
def test_invalid_stacks_raise_invalid_input(bad):
    for name, fn in STACK_TAKERS.items():
        assert raises_package_error(fn, bad) is InvalidInput, name


def test_stacks_of_no_or_one_sample_have_no_steps():
    for fn in (gr.chordal_steps, dk.cone_polyline_steps):
        assert fn(np.zeros((0, 3, 3))).shape == (0,)
        assert fn([np.eye(3)]).shape == (0,)


def test_chordal_steps_checks_its_stack():
    with pytest.raises(InvalidInput, match="stack of square matrices"):
        gr.chordal_steps(P.mat)
    with pytest.raises(InvalidInput, match="stack of square matrices"):
        gr.chordal_steps(np.zeros((3, 4, 5)))
    with pytest.raises(InvalidInput, match="non-finite"):
        gr.chordal_steps(np.stack([P.mat, np.full((4, 4), np.nan), P.mat]))


# --- counts and real parameters -------------------------------------------

NON_INTEGERS = [2.5, 2.0, "3", None, np.float64(3.0), [3]]
NON_FINITE = [np.nan, np.inf, -np.inf, "x", None, 1j]


def resized(curve, resolution):
    """``curve`` with its resolution set after construction."""
    curve.resolution = resolution
    return curve


def count_takers():
    """(callable of one count, least valid count) pairs."""
    curve = gr.geodesic_curve(P, Z)
    return {
        "random_projection-n": (lambda c: pj.random_projection(c, 0, 1), 1),
        "random_projection-rank": (lambda c: pj.random_projection(4, c, 1), 0),
        "Curve": (lambda c: gr.Curve(curve.sample, c), 2),
        "curve_length": (lambda c: gr.curve_length(resized(gr.Curve(curve.sample, 2), c)), 2),
        "geodesic_curve": (lambda c: gr.geodesic_curve(P, Z, c), 2),
        "perturbed_curve": (lambda c: gr.perturbed_curve(P, Z, Z, c), 2),
        "tangent_path_lengths": (lambda c: gr.tangent_path_lengths(P, Z, [], c), 2),
        "RunConfig-trials": (lambda c: vf.RunConfig(trials=c), 1),
        "RunConfig-dims": (lambda c: vf.RunConfig(dims=(3, c)), 2),
        "RunConfig-seed": (lambda c: vf.RunConfig(seed=c), 0),
    }


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(count_takers())),
       st.one_of(st.sampled_from(NON_INTEGERS), st.integers(-5, 1)))
def test_invalid_counts_raise_invalid_input(name, count):
    fn, least = count_takers()[name]
    # None leaves the trial count at each property's own
    if isinstance(count, int) and count >= least or (name, count) == ("RunConfig-trials", None):
        fn(count)
        return
    assert raises_package_error(fn, count) is InvalidInput


def test_numpy_integer_counts_are_accepted():
    assert pj.random_projection(np.int64(4), np.int32(2), 1).rank == 2
    assert gr.Curve(lambda t: P, np.int16(3)).resolution == 3
    cfg = vf.RunConfig(seed=np.int64(3), dims=np.array([2]), trials=np.uint8(1))
    assert (cfg.seed, cfg.dims, cfg.trials) == (3, (2,), 1)
    report = vf.run_all(cfg, names=("operator-norm-laws",))
    assert json.loads(vf.report_to_json(report))["config"]["dims"] == [2]


def real_takers():
    return {
        "geodesic": lambda x: gr.geodesic(P, Z, x),
        "power": lambda x: MU.power(x),
        "eps_geodesic": lambda x: dk.eps_geodesic(MU, MU, x),
        "random_tangent": lambda x: gr.random_tangent(P, np.random.default_rng(0), x),
        "random_hp_vector": lambda x: mo.random_hp_vector(P, np.random.default_rng(0), x),
        "random_pos_eps_unitary": lambda x: dk.random_pos_eps_unitary(P, x, 0),
        "random_point_near": lambda x: pj.random_point_near(P, x, 0),
        "Tolerance-eq": lambda x: la.Tolerance(x, 1e-6),
        "Tolerance-geo": lambda x: la.Tolerance(1e-9, x),
        "RunConfig-tol": lambda x: vf.RunConfig(eq_tol=x),
    }


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(real_takers())), st.sampled_from(NON_FINITE))
def test_invalid_reals_raise_invalid_input(name, value):
    assert raises_package_error(real_takers()[name], value) is InvalidInput


def test_valid_reals_keep_their_bits():
    assert np.isfinite(gr.random_tangent(P, np.random.default_rng(0), -2.0).mat).all()
    assert gr.geodesic(P, Z, 2).mat.tobytes() == gr.geodesic(P, Z, 2.0).mat.tobytes()
    assert MU.power(np.float32(0.5)).mat.tobytes() == MU.power(0.5).mat.tobytes()


def test_run_all_rejects_bad_configurations_up_front():
    for kwargs in ({"dims": (2.5,)}, {"trials": 1.5}, {"dims": ()}, {"dims": 3},
                   {"seed": -1}):
        with pytest.raises(InvalidInput):
            vf.RunConfig(**kwargs)


# --- files ----------------------------------------------------------------


def test_point_objects_without_their_parts():
    mat = se.matrix_to_obj(P.mat)
    for obj in ({"kind": "point"}, {"kind": "point", "rep": mat},
                {"kind": "point", "context": mat}, {"kind": "partial_isometry"},
                {"kind": "point", "rep": 3, "context": mat}):
        with pytest.raises(InvalidInput):
            se.point_from_obj(obj)


@pytest.mark.parametrize("obj", [
    {"rows": 1e400, "cols": 1, "data": [[1.0, 0.0]]},
    {"rows": 1, "cols": 1, "data": 5},
    {"rows": [1], "cols": 1, "data": [[1.0, 0.0]]},
    {"rows": 1, "cols": 1, "data": [[[1.0], [0.0]]]},
    {"rows": 1, "cols": 1, "data": [[None, 0.0]]},
    {"rows": 0, "cols": 0, "data": []},
    {"rows": 2, "cols": 2, "data": [[1.0, 0.0]]},
    [1, 2],
])
def test_malformed_matrix_objects(obj):
    with pytest.raises(InvalidInput):
        se.matrix_from_obj(obj)


# --- the CLI --------------------------------------------------------------


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A context, a point, an invertible matrix and malformed files."""
    d = tmp_path_factory.mktemp("contract")

    def write(name, text):
        (d / name).write_text(text)
        return str(d / name)

    m = pj.random_point_near(P, 0.3, 2)
    good = {"context": write("p.json", se.dumps(se.projection_to_obj(P))),
            "point": write("m.json", se.dumps(se.point_to_obj(m))),
            "matrix": write("g.json", se.dumps(se.matrix_to_obj(np.eye(4))))}
    mat = se.matrix_to_obj(np.eye(4))
    other = se.projection_to_obj(pj.random_projection(3, 1, 1))
    bad = {
        "missing": str(d / "missing.json"),
        "not-json": write("not-json", "{"),
        "array": write("array", "[1, 2]"),
        "no-kind": write("no-kind", json.dumps({"rows": 1})),
        "point-without-parts": write("point-without-parts", json.dumps({"kind": "point"})),
        "point-without-context": write("point-without-context",
                                       json.dumps({"kind": "point", "rep": mat})),
        "nan": write("nan", '{"kind": "projection", "rows": 1, "cols": 1, '
                            '"data": [[NaN, 0.0]]}'),
        "infinite-rows": write("infinite-rows", '{"kind": "projection", "rows": 1e400, '
                                                '"cols": 1, "data": [[1.0, 0.0]]}'),
        "data-number": write("data-number", json.dumps(
            {"kind": "projection", "rows": 1, "cols": 1, "data": 5})),
        "non-square": write("non-square", json.dumps(
            {"kind": "projection", "rows": 1, "cols": 2, "data": [[1, 0], [0, 0]]})),
        "other-dimension": write("other-dimension", json.dumps(other)),
        "not-a-projection": write("not-a-projection", json.dumps(
            {**se.matrix_to_obj(2 * np.eye(4)), "kind": "projection"})),
    }
    return good, bad


def run(argv) -> int:
    """The exit code of ``grassgeo argv``; a traceback fails the test."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def test_malformed_files_exit_2(files, capsys):
    good, bad = files
    commands = []
    for head in (["dist", "--metric", "chordal"], ["dist", "--metric", "dplus"],
                 ["geodesic", "--samples", "3"], ["geodesic", "--space", "cone", "--samples", "3"],
                 ["length", "--samples", "3"], ["disk-dist"], ["disk-geodesic", "--samples", "3"]):
        for f in bad.values():
            commands += [head + [f, good["point"]], head + [good["point"], f],
                         head + ["--context", f, good["context"], good["context"]]]
    for name, f in bad.items():
        commands += [["moebius", "--context", good["context"], f, good["matrix"]],
                     ["moebius", "--context", f, good["matrix"], good["matrix"]],
                     ["chart", "--context", good["context"], f],
                     ["chart", "--context", f, good["point"]],
                     ["chart", "--inverse", "--context", good["context"], f]]
        # a context of another dimension is a valid context on its own
        if name != "other-dimension":
            commands.append(["random", "--kind", "tangent", "--context", f])
    codes = {tuple(argv): run(argv) for argv in commands}
    capsys.readouterr()
    assert {argv: code for argv, code in codes.items() if code != 2} == {}


@pytest.mark.parametrize("args", [
    ["--samples", "1"], ["--samples", "0"], ["--samples", "x"], ["--eq-tol", "nan"],
    ["--eq-tol", "inf"], ["--geo-tol", "0"], ["--format", "xml"],
    ["--output", "/nonexistent/dir/out"],
])
@pytest.mark.parametrize("command", ["geodesic", "length", "disk-geodesic"])
def test_malformed_table_arguments_exit_2(files, command, args, capsys):
    good, _ = files
    assert run([command, *args, good["point"], good["point"]]) == 2


@pytest.mark.parametrize("args", [
    ["--dim", "0"], ["--dim", "-3"], ["--dim", "x"], ["--rank", "-1"], ["--rank", "9"],
    ["--scale", "nan"], ["--scale", "inf"], ["--scale=-inf"], ["--radius", "nan"],
    ["--radius", "2"], ["--seed", "-1"], ["--eq-tol", "inf"],
])
@pytest.mark.parametrize("kind", ["projection", "point", "tangent", "hpvector",
                                  "pos-eps-unitary"])
def test_malformed_random_arguments_exit_2(kind, args, capsys):
    # an argument that a kind does not read leaves it valid
    unread = {"--scale": ("projection", "point"), "--radius": ("projection", "tangent",
                                                               "hpvector", "pos-eps-unitary")}
    code = run(["random", "--kind", kind, *args])
    assert code == (0 if kind in unread.get(args[0].split("=")[0], ()) else 2)
    out = capsys.readouterr().out
    assert "NaN" not in out and "Infinity" not in out


def test_random_scale_nan_exits_2(capsys):
    assert run(["random", "--kind", "tangent", "--scale", "nan"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    ["--dims", "a"], ["--dims", "1"], ["--dims", ""], ["--dims", "2.5"], ["--trials", "0"],
    ["--trials", "-1"], ["--seed", "-1"], ["--eq-tol", "inf"], ["--geo-tol", "nan"],
])
def test_malformed_verify_arguments_exit_2(args, monkeypatch, capsys):
    # the arguments are rejected before a property runs
    monkeypatch.setattr(vf, "REGISTRY", ())
    assert run(["verify", "--dims", "2", *args]) == 2


def test_dist_of_point_without_parts_exits_2(files, capsys):
    good, bad = files
    assert run(["dist", "--metric", "chordal", bad["point-without-parts"], good["point"]]) == 2
    assert "KeyError" not in capsys.readouterr().err
