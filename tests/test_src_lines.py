"""tools/src_lines.py counts total lines and code-only lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

FIXTURE = '''"""Module docstring
over two lines."""

# a comment line
import os


class C:
    """Class docstring."""
    y = "a string, not a docstring"


def f():
    """Function docstring
    over two lines.
    """
    x = os.sep  # a trailing comment leaves the line code
    return x
'''


def test_count_fixture():
    # code: import, class, y, def, x, return
    assert src_lines.count(FIXTURE) == (18, 6)


def test_main_per_module_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert src_lines.main(["--src", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "18", "6"], ["b.py", "2", "1"], ["total", "20", "7"]]
