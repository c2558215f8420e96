"""Print the gold corpus as verbalized by the running interpreter.

Before printing, it checks that ``TokenKind`` hashes by identity (the
verbalizer's kind-set and kind-dict lookups rely on it) and exits 1 if
not. Each gold line is printed as ``ID<TAB>spoken form``. Run it under
two interpreters and compare the outputs; they must be identical:

    PYENV_VERSION=3.10.13 python tools/interpreter_check.py > a.txt
    PYENV_VERSION=3.13.0 python tools/interpreter_check.py > b.txt
    diff a.txt b.txt

Standard library only; etnorm is imported from ``src/`` beside this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from etnorm.tokens import TokenKind  # noqa: E402
from etnorm.verbalize import verbalize  # noqa: E402


def main() -> int:
    by_identity = TokenKind.__hash__ is object.__hash__ and all(hash(k) == object.__hash__(k) for k in TokenKind)
    if not by_identity:
        print(f"TokenKind does not hash by identity on Python {sys.version.split()[0]}", file=sys.stderr)
        return 1
    with open(SRC / "etnorm" / "data" / "gold_corpus.jsonl", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                print(f"{row['id']}\t{verbalize(row['raw'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
