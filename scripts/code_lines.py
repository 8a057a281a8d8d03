"""Count the lines of the package modules ``src/jdhym/*.py`` by class.

Each physical line falls in exactly one class, the first that applies:

* code: it holds a ``tokenize`` token that is not a comment, a docstring or
  whitespace (newlines and indentation);
* docstring: it holds part of a docstring, a string literal that stands
  alone as a statement (the docstring of a module, class or function, or a
  bare string anywhere in a body), blank lines inside it included;
* comment: it holds a comment;
* blank: it holds nothing but whitespace.

    python scripts/code_lines.py [FILE ...]

prints the physical, code, docstring, comment and blank lines of each module
and their totals (every ``src/jdhym/*.py`` when no file is given); the code
column is the count quoted as "code lines".
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

WHITESPACE = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
              tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
CLASSES = ("physical", "code", "docstring", "comment", "blank")


def line_classes(path: Path) -> dict[str, int]:
    """The number of lines of the Python file ``path`` in each of ``CLASSES``."""
    text = path.read_bytes()
    with path.open("rb") as fh:
        all_tokens = list(tokenize.tokenize(fh.readline))
    comments = {tok.start[0] for tok in all_tokens if tok.type == tokenize.COMMENT}
    tokens = [tok for tok in all_tokens if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    code, docstring = set(), set()
    for i, tok in enumerate(tokens):
        if tok.type in WHITESPACE:
            continue
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING:
            # a run of string literals from a statement's start to its end is a docstring
            first, last = i, i
            while tokens[first - 1].type == tokenize.STRING:
                first -= 1
            while tokens[last + 1].type == tokenize.STRING:
                last += 1
            if (tokens[first - 1].type in STATEMENT_START
                    and tokens[last + 1].type == tokenize.NEWLINE):
                docstring.update(lines)
                continue
        code.update(lines)
    physical = text.splitlines()
    docstring -= code
    comments -= code | docstring
    blank = {k for k, line in enumerate(physical, 1) if not line.strip()} - code - docstring
    counts = dict(zip(CLASSES, (len(physical), len(code), len(docstring), len(comments),
                                len(blank))))
    if sum(counts[name] for name in CLASSES[1:]) != counts["physical"]:
        raise SystemExit(f"{path}: a line fits no class")
    return counts


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] or sorted((root / "src" / "jdhym").glob("*.py"))
    total = dict.fromkeys(CLASSES, 0)
    print("".join(f"{name:>10}" for name in CLASSES) + "  module")
    for path in paths:
        counts = line_classes(path)
        for name in CLASSES:
            total[name] += counts[name]
        print("".join(f"{counts[name]:10d}" for name in CLASSES) + f"  {path.name}")
    print("".join(f"{total[name]:10d}" for name in CLASSES) + "  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
