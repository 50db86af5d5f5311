"""README's quick-start block runs and prints the values its comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block():
    text = README.read_text()
    section = text[text.index("## Quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_commented_values():
    code = quick_start_block()
    # "print(x)  # 0.666667  why": the value the line prints, to the digits shown
    expected = re.findall(r"^print\(.*\)\s+#\s*(-?\d+(?:\.\d+)?)", code, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue().splitlines()
    assert expected and len(printed) == len(expected)
    for value, line in zip(expected, printed):
        decimals = len(value.partition(".")[2])
        assert f"{float(line):.{decimals}f}" == value, (line, value)
