"""Count the code lines of each Python module under a directory.

A code line holds at least one token that is not a comment, a docstring
or layout (newlines, indentation).  A docstring here is any statement
that is a string literal alone.  The count is read with ``tokenize``,
so strings that hold ``#`` and lines continued inside brackets count as
the source reads.

Usage::

    python3 tools/code_lines.py src/beatcover
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that hold no code; NEWLINE is kept, because it ends a statement
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path) -> int:
    """The number of lines of ``path`` that hold code."""
    with open(path, "rb") as f:
        tokens = [tok for tok in tokenize.tokenize(f.readline) if tok.type not in _LAYOUT]
    lines = set()
    for n, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        # a string that both opens and closes its statement is a docstring
        alone = (n == 0 or tokens[n - 1].type == tokenize.NEWLINE) and (
            n + 1 == len(tokens) or tokens[n + 1].type == tokenize.NEWLINE
        )
        if tok.type == tokenize.STRING and alone:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    root = Path((argv or sys.argv[1:] or ["."])[0])
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
