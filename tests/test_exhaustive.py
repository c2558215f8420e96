"""The bounded-exhaustive checks of ``tools/exhaustive_check.py`` on every
string of 3 pieces from its alphabet (the tool itself runs 4 pieces)."""

from exhaustive_check import PIECES, failures, strings


def test_every_string_of_three_pieces(config):
    failing = {}
    for text in strings(PIECES, 3):
        failed = failures(text, config)
        if failed:
            failing[text] = failed
    assert len(PIECES) ** 3 == 27_000
    assert not failing, list(failing.items())[:20]
