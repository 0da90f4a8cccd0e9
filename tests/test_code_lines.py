"""tools/code_lines.py: the code-line count CI prints for src/."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# A comment.
import math


class Point:
    """Class docstring."""

    x: float  # a trailing comment does not make a comment line

    def norm(self):
        """Method docstring,

        with a blank line."""
        return math.hypot(self.x, 0.0)


def label():
    """Function docstring."""
    text = "a string that is not a docstring"
    """A string that is not a body's first statement."""
    return text


async def fetch():
    """Async function docstring."""
        '''


def test_counts_code_only():
    # Counted: the import, the class line, x, def norm, its return, def
    # label, text, the later string, label's return and def fetch.
    assert code_lines.code_lines(SOURCE) == 10


def test_each_kind_of_line():
    assert code_lines.code_lines('"""Docstring only."""\n') == 0
    assert code_lines.code_lines("# comment\n\n   \n") == 0
    assert code_lines.code_lines("x = 1\n\n# comment\ny = 2\n") == 2
    # A string that opens no body is code: a module's second statement.
    assert code_lines.code_lines('x = 1\n"""Not a docstring."""\n') == 2


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "b.py").write_text('"""Doc."""\n# comment\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", "pkg/a.py"], ["1", "pkg/b.py"], ["3", "total"],
    ]
