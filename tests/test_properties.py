"""Property tests: ``verbalize`` is total on digit-heavy text under every
legal ``title_min_length`` and ``digit_group_threshold``.

Each property checks that the call does not raise, that no ASCII digit is
left in the output, and that a second call gives the same output.
Examples are derandomized, so a run is reproducible.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from etnorm.lexicon import with_options
from etnorm.verbalize import verbalize

ASCII_DIGIT = re.compile("[0-9]")

# mostly digits, with the separators and letters that turn digit runs into
# dates, times, ranges, ratios, decimals, grouped numbers, phone numbers,
# ordinals, URLs and mixed-case names
DIGIT_HEAVY = "0123456789" * 4 + "  .,:-–/+%€@ aekmsxAEIMTVXÕÜ²½٣"

# whole pieces, so long and over-limit digit runs are reached too
PIECES = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=30),
    st.sampled_from([" ", ".", ",", ":", "-", "–", "/", "+", " 000", "\xa0", "%"]),
    st.sampled_from(["km", "ks", "-ks", "MTÜ", "EAS-i", "XII", "Karl", "a", "B", "www.", ".ee", "@"]),
)

OPTIONS = {
    "title_min_length": st.integers(min_value=4),
    "digit_group_threshold": st.integers(min_value=5),
}


def check(config, text, options):
    configured = with_options(config, **options)
    out = verbalize(text, configured)
    assert not ASCII_DIGIT.search(out), (text, options, out)
    assert verbalize(text, configured) == out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=st.text(alphabet=DIGIT_HEAVY, max_size=40), options=st.fixed_dictionaries(OPTIONS))
def test_digit_heavy_characters(config, text, options):
    check(config, text, options)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pieces=st.lists(PIECES, max_size=12), options=st.fixed_dictionaries(OPTIONS))
def test_digit_heavy_pieces(config, pieces, options):
    check(config, "".join(pieces), options)
