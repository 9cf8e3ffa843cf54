#!/usr/bin/env python3
"""Check that the environment knobs the code reads and the docs match.

Usage:
  check_env_docs.py [REPO_ROOT]

Fails (exit 1) when
  * a "PYGB_*" / "GBTL_*" string literal under src/ or tools/ has no
    backticked name in a table row of some docs/*.md, or
  * a docs/*.md table row names, in backticks, a PYGB_*/GBTL_* variable
    that no code reads (no such literal under src/ or tools/).

Only whole literals count as reads ("PYGB_FAULTS", not "PYGB_FAULTS=..."
inside a help text), so a variable the code builds from parts would be
missed; the code reads none that way.
"""

import pathlib
import re
import sys

NAME = r"(?:PYGB|GBTL)_[A-Z0-9_]*[A-Z0-9]"
LITERAL = re.compile(r'"(' + NAME + r')"')
BACKTICKED = re.compile(r"`(" + NAME + r")`")

CODE_DIRS = ("src", "tools")
CODE_SUFFIXES = {".cpp", ".hpp"}


def literals(root):
    """Map each PYGB_*/GBTL_* literal under CODE_DIRS to its first file."""
    found = {}
    for d in CODE_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in CODE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for name in LITERAL.findall(text):
                found.setdefault(name, path.relative_to(root))
    return found


def documented(root):
    """Map each backticked name in a docs/*.md table row to its file."""
    found = {}
    for path in sorted((root / "docs").glob("*.md")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.lstrip().startswith("|"):
                continue
            for name in BACKTICKED.findall(line):
                found.setdefault(name, path.relative_to(root))
    return found


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".").resolve()
    read = literals(root)
    docs = documented(root)
    errors = []
    for name, where in sorted(read.items()):
        if name not in docs:
            errors.append(f"{name} (read in {where}) has no row in docs/*.md")
    for name, where in sorted(docs.items()):
        if name not in read:
            errors.append(f"{name} (row in {where}) is read by no code")
    for e in errors:
        print("check_env_docs: " + e)
    print(f"check_env_docs: {len(read)} names read, {len(docs)} documented, "
          f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
