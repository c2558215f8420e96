"""The bounded-exhaustive checks of ``tools/exhaustive_check.py`` on every
string of 3 pieces from its alphabet (the tool itself runs 4 pieces), a
ratchet on two defects that the same strings still show, and the phone
and URL shapes against their references on a slice of the tool's sets."""

import re
from itertools import chain

from exhaustive_check import DIGIT_GROUPS, PIECES, digit_runs, failures, phone_failures, strings, url_failures, url_strings

from etnorm.folding import fold_diacritics
from etnorm.verbalize import verbalize

# a letter, a mark and a letter; the lookahead finds overlapping ones
GLUED_MARK_RE = re.compile(r"(?=([^\W\d_][.,:/–—][^\W\d_]))")


def test_every_string_of_three_pieces(config):
    failing = {}
    for text in strings(PIECES, 3):
        failed = failures(text, config)
        if failed:
            failing[text] = failed
    assert len(PIECES) ** 3 == 27_000
    assert not failing, list(failing.items())[:20]


def test_glued_marks_and_second_readings_do_not_grow(config):
    # Two counts that may fall, never rise, until no string shows either:
    # strings whose output holds a letter, one of ".,:/–—" and a letter that,
    # lowercased, the folded input lowercased does not hold (a mark glued
    # between spoken words; the hyphen joins spelled letter names), and
    # strings whose output reads differently when it is verbalized again
    glued = unstable = 0
    for text in strings(PIECES, 3):
        spoken = verbalize(text, config)
        folded = fold_diacritics(text, config.folding).lower()
        glued += any(triple.lower() not in folded for triple in GLUED_MARK_RE.findall(spoken))
        unstable += verbalize(spoken, config) != spoken
    assert glued <= 2088, glued
    assert unstable <= 273, unstable


def test_phone_runs_read_as_the_reference(config):
    # the tool runs 1-5 groups and 6-9 groups
    runs = chain(digit_runs(range(1, 5), DIGIT_GROUPS), digit_runs([6], DIGIT_GROUPS[1:4], one_separator=True))
    failing = {text: failed for text in runs if (failed := phone_failures(text, config))}
    assert not failing, list(failing.items())[:20]


def test_url_ends_read_as_the_reference(config):
    # the tool runs 4 pieces
    failing = {text: failed for text in url_strings(3) if (failed := url_failures(text, config))}
    assert not failing, list(failing.items())[:20]
