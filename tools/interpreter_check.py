r"""Print the gold corpus as verbalized by the running interpreter.

Before printing, it checks that ``TokenKind`` hashes by identity (the
verbalizer's kind-set and kind-dict lookups rely on it) and exits 1 if
not. Each gold line is printed as ``ID<TAB>spoken form``, then each line
of the news, dense and longline benchmark workloads for seeds 1 to 3, as
built by ``perfbench/workloads.py``, as ``WORKLOAD:SEED:INDEX<TAB>spoken
form``. Then the decision ``verbalize`` makes on each raw gold line is
printed, as ``gate<TAB>ID<TAB>decision``, and on a fixed list of boundary
strings, as ``gate<TAB>repr<TAB>decision``: ``pass`` (also for a line the
tokenizer copies whole), or ``cut N`` when it copies the text before
offset ``N`` into a PLAIN token and keeps tokens from there on (0 when it
copies nothing from the line's start), led by ``folded, `` when the raw
line is not plain and folding changed it, so a moved cut shows in a
diff. Then the plain runs that ``verbalize`` copies untokenized after
the cut of each boundary string, each a PLAIN token, are printed, as
``skip<TAB>repr<TAB>runs``: ``skip A-B`` for each run, by its character
span in the line it reads, or ``none``. Then the kinds of the tokens
of each boundary string are printed, as ``tok<TAB>repr<TAB>kinds``, its
folding under the bundled table, as ``fold<TAB>repr<TAB>folded``, and its
URL and e-mail tokens, as ``link<TAB>repr<TAB>links``: ``KIND 'TEXT'
A-B`` for each, by its character span, or ``none``. The gate, the
tokenizer's groups, the top-level-domain boundary, the fold class and
the links the tokenizer tries and rules out read the regex classes
``\s``, ``\S``, ``\W``, ``\d``, ``[^\W_]`` and ``[^\W\d_]``, and the URL
scheme reads regex case folding (``(?i:...)``), whose Unicode tables
differ between Python versions. The gate matches the two spellings of an
abbreviation surface that a plain word can hold case-sensitively, so the
boundary strings hold surfaces in those cases and in others. Run it under two
interpreters and compare the outputs; they must be identical:

    PYENV_VERSION=3.11.7 python tools/interpreter_check.py > a.txt
    PYENV_VERSION=3.13.0 python tools/interpreter_check.py > b.txt
    diff a.txt b.txt

Run in a checkout of each of two commits, it shows whether a change
altered any of these readings.

Standard library only; etnorm is imported from ``src/``, the workloads
from ``perfbench/`` and the copy path from ``exhaustive_check.py``
beside this file.
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
from etnorm.verbalize import verbalize  # noqa: E402
from exhaustive_check import copy_path, cut_of  # noqa: E402
from workloads import generate  # noqa: E402

WORKLOADS = ("news", "dense", "longline")
SEEDS = (1, 2, 3)

# shapes on either side of the gate: rule shapes that must take the full
# path, plain lines, whitespace the gate must keep as written, lines cut
# after a plain prefix at whitespace outside ASCII, lines the gate reads
# again after folding, letters outside the alphabet, beside numerics,
# that the tokenizer reads as word runs, plain runs after a stop,
# between chunks split by whitespace outside ASCII, letters that fold
# beside numerics and at both ends of a line, top-level-domain dots and
# "@" beside whitespace outside ASCII, and surfaces in each case before a word
BOUNDARY = (
    "ptk", "spp", "tv", "iPhone", "eCoop", "Tallinn.ee", "linnas.EE", "Y", "e-post", "Dr", "KM", "Łukasz",
    "Krt", "Tere, maailm!", "Žürii arutas «tšeki» üle – jälle…", "Café", "", " \t", "\xa0tere\u2028öö\u3000",
    "ǅžungel", "ıkool", "İsa", "Straße", "tere\u0301", "\x1ctere\x1f", "koju.eelmisel", "Tallinn.eesti",
    "err.ee-st", "Prof", "PROF", "Jne.", "ca", "Ema", "Õun", "ſ", "\u212a", "tere.Ee",
    "sõna٣", "Ema5", "abc²", "kpl", "Öö", "Ĳsselmeer", "HTTPS://err.ee",
    "Ta jõi\u2028 .5 liitrit", "Rootsit valitses kuningas Karl\u3000XII.", "Arve summa\x1fkogu 5 km.",
    "Näitleja François saabus", "Émile ostis 5 kg.", "Zoë", "Søren", "ø½ß",
    "Kogu 5 km oli see nii ja hiljem summa.", "Karl XII oli\u2028see\u3000kuningas\x85ja nii 5",
    "5\xa0tere\u2003tere\u2009tere\u205ftere\x1ctere 5", "XIX. sajandil\x1fja\u1680nii\u200bveel\u180eja nii 5",
    "MTÜ-le õue\u2029ja\u202föösel\x0bnii\x0cveel ja 5 km",
    "½é", "Ⅻé", "x²é", "ıé", "é tere – «x» ja nii\u3000edasi ñ", "ǅ…tere… Ø",
    "vaata err.ee\u2028ja x.com\x85siis", "err\u2028.ee", "err.ee\x85", "info@eki.ee\u2028a@b.ee",
    "kiri\x85@eki.ee", "a@\u2028b.ee", "\x85x.ee\u2028y@z.ee\x85",
    "Prof ja", "Jne ja", "cA ja", "JNE ja",
)


def gate(text: str) -> str:
    line, tokens = copy_path(text, default_config())
    cut = cut_of(tokens)
    decision = "pass" if cut is None else f"cut {cut}"
    return f"folded, {decision}" if line != text else decision


def skips(text: str) -> str:
    tokens = copy_path(text, default_config())[1]
    runs = [f"skip {t.span[0]}-{t.span[1]}" for t in tokens[1:] if t.kind is TokenKind.PLAIN]
    return ", ".join(runs) or "none"


def links(text: str) -> str:
    found = [t for t in tokenize(text) if t.kind in (TokenKind.URL, TokenKind.EMAIL)]
    return ", ".join(f"{t.kind.value} {t.text!r} {t.span[0]}-{t.span[1]}" for t in found) or "none"


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
        print(f"skip\t{text!r}\t{skips(text)}")
    for text in BOUNDARY:
        print(f"tok\t{text!r}\t{' '.join(token.kind.value for token in tokenize(text))}")
    for text in BOUNDARY:
        print(f"fold\t{text!r}\t{fold_diacritics(text)!r}")
    for text in BOUNDARY:
        print(f"link\t{text!r}\t{links(text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
