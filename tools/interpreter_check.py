r"""Print the gold corpus as verbalized by the running interpreter.

Before printing, it checks that ``TokenKind`` hashes by identity (the
verbalizer's kind-set and kind-dict lookups rely on it) and exits 1 if
not. Each gold line is printed as ``ID<TAB>spoken form``, then each line
of the news, dense and longline benchmark workloads for seeds 1 to 3, as
built by ``perfbench/workloads.py``, as ``WORKLOAD:SEED:INDEX<TAB>spoken
form``. Then the pass-through gate's decision (``pass`` or ``full``) is
printed for each gold line, as ``gate<TAB>ID<TAB>decision``, and for a
fixed list of boundary strings, as ``gate<TAB>repr<TAB>decision``; last,
the kinds of the tokens of each boundary string, as
``tok<TAB>repr<TAB>kinds``. The gate, the tokenizer's groups and the
top-level-domain boundary read regex case folding (``(?i:...)``) and the
regex classes ``\s``, ``\W``, ``[^\W_]`` and ``[^\W\d_]``, whose Unicode
tables differ between Python versions. Run it under two
interpreters and compare the outputs; they must be identical:

    PYENV_VERSION=3.10.13 python tools/interpreter_check.py > a.txt
    PYENV_VERSION=3.13.0 python tools/interpreter_check.py > b.txt
    diff a.txt b.txt

Run in a checkout of each of two commits, it shows whether a change
altered any of these readings.

Standard library only; etnorm is imported from ``src/`` and the workloads
from ``perfbench/`` beside this file.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

from etnorm.folding import fold_diacritics  # noqa: E402
from etnorm.lexicon import default_config  # noqa: E402
from etnorm.tokens import TokenKind, tokenize  # noqa: E402
from etnorm.verbalize import _passes_through, verbalize  # noqa: E402
from workloads import generate  # noqa: E402

WORKLOADS = ("news", "dense", "longline")
SEEDS = (1, 2, 3)

# shapes on either side of the gate: rule shapes that must take the full
# path, plain lines, and whitespace the gate must keep as written
BOUNDARY = (
    "ptk", "spp", "tv", "iPhone", "eCoop", "Tallinn.ee", "linnas.EE", "Y", "e-post", "Dr", "KM", "Łukasz",
    "Krt", "Tere, maailm!", "Žürii arutas «tšeki» üle – jälle…", "Café", "", " \t", "\xa0tere\u2028öö\u3000",
    "ǅžungel", "ıkool", "İsa", "Straße", "tere\u0301", "\x1ctere\x1f", "koju.eelmisel", "Tallinn.eesti",
    "err.ee-st", "Prof", "PROF", "Jne.", "ca", "Ema", "Õun", "ſ", "\u212a", "tere.Ee",
    "sõna٣", "Ema5", "abc²", "kpl", "Öö", "Ĳsselmeer", "HTTPS://err.ee",
)


def gate(text: str) -> str:
    config = default_config()
    return "pass" if _passes_through(fold_diacritics(text, config.folding), config) else "full"


def main() -> int:
    by_identity = TokenKind.__hash__ is object.__hash__ and all(hash(k) == object.__hash__(k) for k in TokenKind)
    if not by_identity:
        print(f"TokenKind does not hash by identity on Python {sys.version.split()[0]}", file=sys.stderr)
        return 1
    with open(SRC / "etnorm" / "data" / "gold_corpus.jsonl", encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    for row in rows:
        print(f"{row['id']}\t{verbalize(row['raw'])}")
    os.chdir(ROOT)  # the workloads read the gold corpus by a path relative to the repository
    for seed in SEEDS:
        for name in WORKLOADS:
            for i, line in enumerate(generate(name, seed).lines):
                print(f"{name}:{seed}:{i}\t{verbalize(line)}")
    for row in rows:
        print(f"gate\t{row['id']}\t{gate(row['raw'])}")
    for text in BOUNDARY:
        print(f"gate\t{text!r}\t{gate(text)}")
    for text in BOUNDARY:
        print(f"tok\t{text!r}\t{' '.join(token.kind.value for token in tokenize(text))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
