import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from grassgeo import projective as pj
from grassgeo import serialize as se
from grassgeo.errors import InvalidInput


class TestMatrixJson:
    def test_roundtrip_through_text(self, rng):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        text = json.dumps(se.matrix_to_obj(a))
        back = se.matrix_from_obj(json.loads(text))
        denom = np.maximum(np.abs(a), 1e-300)
        assert (np.abs(back - a) / denom).max() < 1e-15

    def test_layout_is_row_major_pairs(self):
        a = np.array([[1 + 2j, 3.0], [0.0, -1j]])
        obj = se.matrix_to_obj(a)
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"][0] == [1.0, 2.0]
        assert obj["data"][1] == [3.0, 0.0]
        assert obj["data"][3] == [0.0, -1.0]

    def test_bad_shapes_rejected(self):
        with pytest.raises(InvalidInput):
            se.matrix_from_obj({"rows": 2, "cols": 2, "data": [[1, 0]]})
        with pytest.raises(InvalidInput):
            se.matrix_from_obj({"rows": 2, "data": []})
        with pytest.raises(InvalidInput):
            se.matrix_from_obj([1, 2, 3])

    def test_non_finite_rejected(self):
        obj = {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}
        with pytest.raises(InvalidInput):
            se.matrix_from_obj(obj)


class TestKindTags:
    def test_projection_roundtrip(self, tmp_path):
        q = pj.random_projection(5, 2, 3)
        path = tmp_path / "q.json"
        se.save_obj(se.projection_to_obj(q), str(path))
        back = se.projection_from_obj(se.load_obj(str(path)))
        assert np.abs(back.mat - q.mat).max() < 1e-14

    def test_point_roundtrip(self, tmp_path):
        p = pj.random_projection(5, 2, 3)
        m = pj.random_point_near(p, 0.7, 4)
        path = tmp_path / "m.json"
        se.save_obj(se.point_to_obj(m), str(path))
        back = se.point_from_obj(se.load_obj(str(path)))
        assert pj.class_equal(back, m)
        assert np.abs(back.context.mat - p.mat).max() < 1e-14

    def test_projection_needs_context_to_become_point(self):
        q = pj.random_projection(4, 2, 1)
        with pytest.raises(InvalidInput):
            se.point_from_obj(se.projection_to_obj(q))
        p = pj.random_projection(4, 2, 2)
        m = se.point_from_obj(se.projection_to_obj(q), context=p)
        assert np.abs(m.range.mat - q.mat).max() < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            se.point_from_obj({"kind": "mystery"})

    def test_missing_file(self):
        with pytest.raises(InvalidInput):
            se.load_obj("/nonexistent/path.json")


NAN, INF = float("nan"), float("inf")

# Each pinned example has a pair list that only the general path renders
# correctly: a non-finite entry, a bool, or a pair of the wrong length.
PINNED = (
    [[NAN, 0.0]],
    [[0.0, INF], [-INF, 1.0]],
    {"\u00e9": [[-0.0, 5e-324], [1e308, True]]},
    [[1, 2.0], [3.0, False]],
    [[1.0], [2.0, 3.0, 4.0]],
    {"data": [[1.0, 2.0, 3.0]], "k\u2603": None},
    {"rows": 1, "data": [[-0.0, NAN]], "x": [[5e-324, -1e308], [0.5, -INF]]},
)

_EDGE_FLOATS = st.sampled_from([NAN, INF, -INF, -0.0, 5e-324, 1e308])
_FLOATS = st.floats() | _EDGE_FLOATS
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBERS = _FLOATS | st.integers() | st.booleans()
_PAIR_LISTS = (
    st.lists(st.lists(_FINITE, min_size=2, max_size=2), min_size=1)
    | st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=1)
    | st.lists(st.lists(_NUMBERS, max_size=3), min_size=1)
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | st.text() | _PAIR_LISTS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


def _reference(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _naive_pairs(o):
    """Takes any list of lists of numbers for a finite float pair list."""
    if all(isinstance(p, list) and p and all(isinstance(x, (int, float)) for x in p)
           for p in o):
        return list(chain.from_iterable(o))
    return None


class TestDumps:
    @given(_JSON)
    @example(PINNED[0])
    @example(PINNED[1])
    @example(PINNED[2])
    @example(PINNED[3])
    @example(PINNED[4])
    @example(PINNED[5])
    @example(PINNED[6])
    def test_matches_json_byte_for_byte(self, obj):
        assert se.dumps(obj) == _reference(obj)

    @pytest.mark.parametrize("obj", PINNED)
    def test_pinned_examples_defeat_a_naive_pair_path(self, obj, monkeypatch):
        monkeypatch.setattr(se, "_finite_pairs", _naive_pairs)
        try:
            text = se.dumps(obj)
        except TypeError:
            return
        assert text != _reference(obj)

    def test_package_objects_and_files(self, tmp_path):
        p = pj.random_projection(5, 2, 3)
        m = pj.random_point_near(p, 0.7, 4)
        for obj in (se.projection_to_obj(p), se.point_to_obj(m)):
            path = tmp_path / "obj.json"
            se.save_obj(obj, str(path))
            assert path.read_text(encoding="utf-8") == se.dumps(obj) == _reference(obj)

    def test_unknown_types_rejected_like_json(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            se.dumps({"a": [object()]})
        with pytest.raises(TypeError, match="keys must be"):
            se.dumps({(1, 2): 0})


class TestMatrixToObj:
    def test_matches_per_entry_loop(self, rng):
        a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        a[0, 0] = complex(-0.0, 5e-324)
        a[1, 2] = complex(NAN, -INF)
        for mat in (a, a.T, a[::2, ::3], a.real):
            obj = se.matrix_to_obj(mat)
            want = [[float(z.real), float(z.imag)] for z in np.asarray(mat, complex).ravel()]
            assert (obj["rows"], obj["cols"]) == mat.shape
            assert _reference(obj["data"]) == _reference(want)
