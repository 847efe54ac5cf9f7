import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SOURCE = '''\
"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment counts its line


class Box:
    """Class docstring."""

    size = 2


def area(box):
    """Function docstring."""

    return box.size ** 2


def one_line(): "docstring on the def line"


TEXT = """a string that is
not a docstring"""
total = (
    1
    + 2
)
'''


def test_a_known_source_counts_its_code_lines():
    # import, class, size, def, return, one_line, 2 x TEXT, 4 x total
    assert code_lines.code_lines(_SOURCE) == 12


def test_the_command_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"12  {tmp_path / 'a.py'}\n1  {tmp_path / 'b.py'}\n13  total\n"
    )
