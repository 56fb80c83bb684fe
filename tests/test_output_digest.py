"""tools/output_digest.py gives the same digests on repeated runs."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


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
