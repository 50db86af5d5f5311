"""``tools/code_lines.py`` counts the lines that hold code."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment


def f(x):
    """A one-line docstring."""
    text = """a string
that is code"""  # a trailing comment
    return (x,
            text)  # "#" in a comment
'''


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    # def, the two lines of text = ..., and the two of return
    assert code_lines.code_lines(path) == 5


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["5", "a.py", "1", "b.py", "6", "total"]
