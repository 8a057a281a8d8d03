"""Count the code lines of the package modules ``src/jdhym/*.py``.

A code line is a line that holds a ``tokenize`` token that is not a
comment, a docstring or whitespace (newlines and indentation).  A docstring
is a string literal that stands alone as a statement: the docstring of a
module, class or function, or a bare string anywhere in a body.

    python scripts/code_lines.py [FILE ...]

prints the count of each module and the total (every ``src/jdhym/*.py``
when no file is given).
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

WHITESPACE = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
              tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file ``path``."""
    with path.open("rb") as fh:
        tokens = [tok for tok in tokenize.tokenize(fh.readline)
                  if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in WHITESPACE:
            continue
        if tok.type == tokenize.STRING:
            # a run of string literals from a statement's start to its end is a docstring
            first, last = i, i
            while tokens[first - 1].type == tokenize.STRING:
                first -= 1
            while tokens[last + 1].type == tokenize.STRING:
                last += 1
            if (tokens[first - 1].type in STATEMENT_START
                    and tokens[last + 1].type == tokenize.NEWLINE):
                continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] or sorted((root / "src" / "jdhym").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
