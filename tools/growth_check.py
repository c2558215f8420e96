"""Check that the cost of ``verbalize`` grows linearly with line length.

Each unit, one piece or two pieces joined (letters, digits, marks,
whitespace, ``www.``, ``http://``, ``kell ``, ``½``, ...) or a rule chunk
followed by a run of plain words, is repeated
whole to a line of about 3,000 characters, and ``verbalize`` is timed on
that line and on the line four times over, best of three calls, the two
lines taking turns. Four times the length should take about four times
as long; a cost that is quadratic in the length takes sixteen. A unit
whose time grows more than eight times is timed again, best of nine
calls, and flagged if it still does.
A unit whose long line takes under a millisecond is not flagged: timer
and scheduling noise swamp such times. The units that grow the most are
printed, then the flagged ones, and the exit code is 1 when any unit is
flagged:

    python tools/growth_check.py

Standard library only; etnorm is imported from ``src/`` beside this file.
"""

from __future__ import annotations

import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from etnorm.lexicon import default_config  # noqa: E402
from etnorm.verbalize import verbalize  # noqa: E402

SHORT = 3_000  # characters in the short line
TIMES = 4  # the long line is the short one this many times over
LIMIT = 8.0  # growth for 4x the length: 4 is linear, 16 quadratic
FLOOR_S = 0.001
SHOWN = 10

PIECES = (
    # letters: a vowel, consonants of both cases, the alphabet's own, and others
    "a", "b", "B", "I", "Õ", "é", "Ł", "ß",
    # digits, another script's digit and non-decimal numerics
    "1", "12", "٣", "½", "²", "Ⅻ",
    # marks and whitespace
    ".", ",", "-", "–", ":", "/", "@", "+", "%", "_", "'", " ", "\xa0",
    # the starts of URLs, domains and clock times
    "www.", "http://", ".ee", "kell ",
)


# a rule chunk followed by a plain run, which ``verbalize`` copies
# untokenized: the grammar's reads and back-scans must stay linear; a
# domain, an address or a letter that folds in every unit, so the head
# scans reach from one end of the line to the other and folding replaces
# a letter in every unit, or one character in three in a unit of its own;
# the spellings of abbreviation surfaces that the grammar's words exclude,
# and plain words with runs of whitespace and marks, which a word piece takes;
# and a word chunk beside rule chunks, where the grammar is read at every
# unit and copies nothing, stopping at the next chunk or the one after it
RUNS = (
    "5 tere tere tere ", "XIX. sajandil ja nii ", "MTÜ-le õue ja ", "x.ee ", "a@b.ee ", "é" + "a" * 30 + " ",
    "Prof ", "ca. ", "Jne, ", "tere \t\u3000", "«Tere», ütles ta – ", "café été ", "5 tere ", "Karl XII oli ",
)


def units() -> list[str]:
    return list(PIECES) + [a + b for a, b in product(PIECES, repeat=2)] + list(RUNS)


def growth(unit: str, calls: int, config) -> tuple[float, float]:
    """The time of the long line over that of the short one, each the best
    of ``calls``, and the long line's time."""
    # whole units, and the long line repeats the short one, so both end
    # alike: where a line ends can decide whether the gate passes it
    short_line = unit * (SHORT // len(unit))
    lines = (short_line, short_line * TIMES)
    best = [float("inf")] * len(lines)
    for _ in range(calls):  # the lines take turns, so a burst of load on the host slows both
        for i, line in enumerate(lines):
            started = time.perf_counter()
            verbalize(line, config)
            best[i] = min(best[i], time.perf_counter() - started)
    return best[1] / best[0], best[1]


def main() -> int:
    config = default_config()
    verbalize("Tere, 5 km.", config)  # config and regexes built before timing
    results = []
    for unit in units():
        ratio, long = growth(unit, 3, config)
        if ratio > LIMIT and long >= FLOOR_S:
            ratio, long = growth(unit, 9, config)
        results.append((ratio, long, unit))
    results.sort(reverse=True)
    print(f"{len(results)} units, about {SHORT} -> {SHORT * TIMES} characters; the {SHOWN} that grow the most:")
    for ratio, long, unit in results[:SHOWN]:
        print(f"  x{ratio:.2f}  {long * 1000:8.2f} ms  {unit!r}")
    flagged = [(ratio, unit) for ratio, long, unit in results if ratio > LIMIT and long >= FLOOR_S]
    for ratio, unit in flagged:
        print(f"FLAGGED {unit!r}: x{ratio:.2f} for x{TIMES} the length")
    print(f"{len(flagged)} flagged (limit x{LIMIT:g})")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
