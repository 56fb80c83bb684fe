"""tools/output_digest.py gives the same digests on repeated runs, and its
value files compare record by record."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
spec = importlib.util.spec_from_file_location("output_digest", TOOL)
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def digests() -> list[str]:
    proc = subprocess.run([sys.executable, str(TOOL), "--dims", "2,3"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def test_digests_repeat():
    first = digests()
    assert first == digests()
    names = {line.split()[0] for line in first}
    assert {"classify", "in_lp", "chart_inv", "chart_transition", "corner_inverse",
            "moebius_domain", "moebius_apply", "eps_geodesic", "geodesic", "geodesic_curve",
            "tangent_path_lengths", "disk_to_cone", "to_disk_point", "cone_perturbed_path",
            "cone_polyline_steps", "cone_to_disk", "d_cone", "eps_geodesic_points",
            "cone_path_steps"} <= names
    assert all(len(line.split()[2]) == 64 for line in first)


def test_values_of_repeated_runs_compare_identical(tmp_path):
    files = [str(tmp_path / name) for name in ("old.pkl", "new.pkl")]
    for path in files:
        subprocess.run([sys.executable, str(TOOL), "--dims", "2", "--values", path],
                       capture_output=True, check=True)
    proc = subprocess.run([sys.executable, str(TOOL), "--compare", *files],
                          capture_output=True, text=True, check=True)
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert "cone_path_integrals" in {row[0] for row in rows}
    assert all(row[1] == row[2] and row[3:] == ["0.00e+00", "0", "0", "0", "0"] for row in rows)


def test_compare_counts_moves_and_switches():
    old = [("f", b"a", np.array([1.0, 4.0], dtype=complex)), ("f", b"b", np.array([2.0 + 0j])),
           ("g", "NotPositive: x", None), ("g", b"c", np.array([3.0 + 0j]))]
    new = [("f", b"a", np.array([1.0, 4.0], dtype=complex)), ("f", b"d", np.array([2.5 + 0j])),
           ("g", b"e", np.array([5.0 + 0j])), ("g", "NotPositive: y", None)]
    old += [("h", "InvalidInput: a", None), ("h", "InvalidInput: b", None),
            ("h", "InvalidInput: c", None), ("h", "KeyError: 'rep'", None)]
    new += [("h", "InvalidInput: a", None), ("h", "InvalidInput: d", None),
            ("h", "InvalidTangent: c", None), ("h", "InvalidInput: rep", None)]
    header, f, g, h = output_digest.compare(old, new)
    assert header.split() == ["function", "records", "identical", "max_move", "to_raise",
                              "to_value", "message", "class"]
    # the move is relative to the largest entry of the old record
    assert f.split() == ["f", "2", "1", "2.50e-01", "0", "0", "0", "0"]
    assert g.split() == ["g", "2", "0", "0.00e+00", "1", "1", "0", "0"]
    # an exception that keeps its class and changes its message, and two
    # that change their class
    assert h.split() == ["h", "4", "1", "0.00e+00", "0", "0", "1", "2"]
