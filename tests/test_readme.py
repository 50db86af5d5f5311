"""README's code blocks run: the quick start prints the values its comments
state, and the CLI round trip exits 0 and writes every file it names."""

import contextlib
import io
import re
import shlex
import shutil
from pathlib import Path

from beatcover.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def round_trip_commands():
    text = README.read_text()
    section = text[text.index("A full round trip") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_cli_round_trip_writes_every_named_output(tmp_path, monkeypatch):
    # the block reads the bundled scenario by its path in the repository
    shutil.copytree(ROOT / "demos" / "scenarios", tmp_path / "demos" / "scenarios")
    monkeypatch.chdir(tmp_path)
    commands = round_trip_commands()
    assert commands[0][:2] == ["mkdir", "-p"]
    for directory in commands[0][2:]:
        Path(directory).mkdir()
    for argv in commands[1:]:
        assert argv[0] == "beatcover", argv
        assert main(argv[1:]) == 0, argv
        outputs = [value for flag, value in zip(argv, argv[1:]) if flag.startswith("--out")]
        assert all(Path(out).is_file() for out in outputs), argv
    assert [argv[1] for argv in commands[1:]] == ["synth", "eval", "track", "viz", "stats"]
