import json
import os
from pathlib import Path

import numpy as np
import pytest

from grassgeo import linalg as la
from grassgeo import projective as pj
from grassgeo import serialize as se

# The tests import the package from src/ (pyproject.toml's pythonpath); CLI
# subprocesses started by the tests import it from there too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def rotation_projection(theta: float) -> np.ndarray:
    """2x2 projection onto the line at angle theta."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def rotation_pair(theta: float):
    """The base point [p] and the rotated point at chordal distance sin(theta)."""
    p = pj.Projection(np.diag([1.0, 0.0]).astype(complex))
    base = pj.classify(p.mat, p)
    q = pj.Projection(rotation_projection(theta))
    moved = pj.point_from_projection(q, p)
    return base, moved


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    return la.herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def write_point(path, point):
    se.save_obj(se.point_to_obj(point), str(path))
    return str(path)


def write_matrix(path, mat):
    se.save_obj(se.matrix_to_obj(mat), str(path))
    return str(path)


def write_projection(path, q):
    se.save_obj(se.projection_to_obj(q), str(path))
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
