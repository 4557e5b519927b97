"""tools/loc.py: its counts on a small module written for the test."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

_MODULE = '''"""A module docstring
over two lines."""
import os

# a comment


class A:
    """One line."""

    x = "not a docstring"

    def f(self):
        """Two
        lines."""
        return os.sep  # code with a comment


def g():
    pass
'''


def test_blank_comment_and_docstring_lines_are_not_code():
    # code: import, class, x, def f, return, def g, pass
    assert loc.count(_MODULE) == (20, 7)


def test_prints_each_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "b.py").write_text(_MODULE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["a.py", "2", "1"],
        ["b.py", "20", "7"],
        ["total", "22", "8"],
    ]
