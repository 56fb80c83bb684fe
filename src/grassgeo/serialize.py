"""JSON interchange for matrices, projections and points.

A matrix is ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with the
entries flattened row-major.  Projections and points wrap that format under
a ``"kind"`` tag: ``projection`` (the matrix itself), ``partial_isometry``
(matrix plus its context projection) and ``point`` (representative plus
context).  Values survive the decimal round trip well within 1e-15
relative; bit-exactness is not promised.

The text form, written by :func:`dumps` and :func:`save_obj`, is exactly
``json.dumps(obj, indent=1, sort_keys=True)`` plus a newline.  The standard
encoder renders an indented document in pure Python, one generator step per
float; :func:`dumps` renders each list of finite ``[re, im]`` float pairs in
one ``%r`` template instead, and everything else the way ``json`` does.
"""

from __future__ import annotations

import json
from itertools import chain
from math import isfinite
from typing import Any

import numpy as np

from .errors import InvalidInput
from .linalg import DEFAULT_TOL, Tolerance, as_matrix
from .projective import Projection, ProjectivePoint, classify, point_from_projection

__all__ = [
    "dumps",
    "matrix_to_obj",
    "matrix_from_obj",
    "projection_to_obj",
    "point_to_obj",
    "load_obj",
    "save_obj",
    "point_from_obj",
    "projection_from_obj",
]


def matrix_to_obj(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=complex)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": a.view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_obj(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InvalidInput("matrix object must be a JSON mapping")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput("matrix object needs integer rows/cols and a data list") from exc
    if rows < 1 or cols < 1 or len(data) != rows * cols:
        raise InvalidInput("matrix data length does not match rows * cols")
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidInput("matrix entries must be [re, im] pairs") from exc
    return as_matrix(flat.reshape(rows, cols))


def projection_to_obj(q: Projection) -> dict:
    obj = matrix_to_obj(q.mat)
    obj["kind"] = "projection"
    return obj


def point_to_obj(m: ProjectivePoint) -> dict:
    return {
        "kind": "point",
        "rep": matrix_to_obj(m.rep.mat),
        "context": matrix_to_obj(m.context.mat),
    }


def _scalar(o) -> str | None:
    """``json``'s text for a string, number, bool or None; None otherwise."""
    if isinstance(o, str):
        return json.encoder.encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if isfinite(o):
            return float.__repr__(o)
        return "Infinity" if o > 0 else "-Infinity"
    return None


def _key(key) -> str:
    """A mapping key as ``json`` converts it before quoting it."""
    if isinstance(key, str):
        return key
    text = _scalar(key)
    if text is None:
        raise TypeError("keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return text


def _finite_pairs(o: list) -> list | None:
    """The entries of ``o``, flattened, when it is a list of ``[re, im]``
    lists of finite Python floats; None when it is anything else."""
    if not all(type(p) is list and len(p) == 2 for p in o):
        return None
    flat = list(chain.from_iterable(o))
    if set(map(type, flat)) == {float} and all(map(isfinite, flat)):
        return flat
    return None


class _Encoder(json.JSONEncoder):
    """Writes ``json.dumps(obj, indent=1, sort_keys=True)`` byte for byte.

    Used through ``json.dumps(obj, cls=_Encoder)``, so encoding a document
    stays one ``json.dumps`` call, which is where profiles and the
    benchmark's traced run count encoding time.  The indent and key order
    are fixed.
    """

    def iterencode(self, o, _one_shot=False):
        out = []
        self._encode(o, 0, out)
        return out

    def _encode(self, o, level: int, out: list):
        text = _scalar(o)
        if text is not None:
            out.append(text)
            return
        if isinstance(o, (list, tuple)):
            items, opener, closer = o, "[", "]"
        elif isinstance(o, dict):
            items, opener, closer = sorted(o.items()), "{", "}"
        else:
            self._encode(self.default(o), level, out)
            return
        if not items:
            out.append(opener + closer)
            return
        outer = "\n" + " " * level
        inner = outer + " "
        if opener == "[":
            flat = _finite_pairs(o)
            if flat is not None:
                leaf = inner + " "
                pair = "[" + leaf + "%r," + leaf + "%r" + inner + "]"
                body = ("," + inner).join([pair] * len(o)) % tuple(flat)
                out.append("[" + inner + body + outer + "]")
                return
        sep = opener + inner
        for item in items:
            out.append(sep)
            sep = "," + inner
            if opener == "{":
                key, item = item
                out.append(json.encoder.encode_basestring_ascii(_key(key)) + ": ")
            self._encode(item, level + 1, out)
        out.append(outer + closer)


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=1, sort_keys=True) + "\\n"``, byte for byte."""
    return json.dumps(obj, cls=_Encoder) + "\n"


def save_obj(obj: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load_obj(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInput(f"{path} does not hold a JSON object")
    return obj


def projection_from_obj(obj: dict, tol: Tolerance = DEFAULT_TOL) -> Projection:
    if obj.get("kind") != "projection":
        raise InvalidInput("expected an object of kind 'projection'")
    return Projection(matrix_from_obj(obj), tol)


def point_from_obj(obj: dict, context: Projection | None = None,
                   tol: Tolerance = DEFAULT_TOL) -> ProjectivePoint:
    """Build a point from a kind-tagged object.

    A ``point`` object carries its own context.  A ``projection`` object is
    lifted to the point with that range, relative to the supplied context
    (callers choose a convention when none is given).
    """
    kind = obj.get("kind")
    if kind == "point":
        context = Projection(matrix_from_obj(obj["context"]), tol)
        return classify(matrix_from_obj(obj["rep"]), context, tol)
    if kind == "partial_isometry":
        context = Projection(matrix_from_obj(obj["context"]), tol)
        return classify(matrix_from_obj(obj), context, tol)
    if kind == "projection":
        q = Projection(matrix_from_obj(obj), tol)
        if context is None:
            raise InvalidInput("a projection needs a context to become a point")
        return point_from_projection(q, context, tol)
    raise InvalidInput(f"unknown kind tag {kind!r}")
