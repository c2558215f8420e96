"""Property tests: ``verbalize`` is total on digit-heavy text under every
legal ``title_min_length`` and ``digit_group_threshold``, and under data
tables and folding sets that pass validation.

Each property checks that the call does not raise, that no ASCII digit is
left in the output (unless a table value the output may quote holds one),
and that a second call gives the same output. The last two check the
pass-through gate on text near it: what the gate passes tokenizes to
tokens no rule rewrites, and ``verbalize`` gives what rendering every
token gives. Examples are derandomized, so a run is reproducible.
"""

import re
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from etnorm.folding import DEFAULT_PROTECTED, FoldingTable, fold_diacritics
from etnorm.lexicon import AbbreviationEntry, Expansion, default_config, with_options
from etnorm.tokens import _SENTENCE_PUNCT, _VOWELS, TokenKind, tokenize
from etnorm.verbalize import _passes_through, verbalize
from test_verbalize import full_path

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


# ------------------------------------------------- data tables and folding

LETTERS = "abeikmstxyAEIKMSTXYÕÜ"
# surfaces that the pieces below write, so the entries are looked up
SURFACES = ["km", "KM", "ks", "sh", "xy", "XY", "MTÜ", "EAS", "XII", "IV", "a", "B", "Karl"]
CONFIG_PIECES = st.one_of(PIECES, st.sampled_from(SURFACES + ["EAS-ile", "KM-i", "saj", "klass"]))
DEFAULT_NAMES = default_config().letter_names

EXPANSIONS = st.builds(
    Expansion,
    text=st.text(alphabet=LETTERS + " -7", min_size=1, max_size=10),
    keywords=st.lists(st.sampled_from(["maks", "km", "eurot", "a", "karl", "saj"]), max_size=2).map(tuple),
    weight=st.floats(min_value=0.001, max_value=10.0),
)


@st.composite
def abbreviation_tables(draw):
    table = {}
    for surface in draw(st.lists(st.sampled_from(SURFACES), unique=True, max_size=5)):
        table[surface] = AbbreviationEntry(
            surface,
            tuple(draw(st.lists(EXPANSIONS, min_size=1, max_size=3))),
            speak_as_word=draw(st.booleans()),
            force_spellout=draw(st.booleans()),
        )
    return table


TABLES = {
    "abbreviations": abbreviation_tables(),
    "spoken_acronyms": st.frozensets(st.sampled_from(SURFACES + ["ABC", "NATO"]).map(str.upper)),
    "roman_stoplist": st.frozensets(st.sampled_from(["I", "V", "X", "IV", "XII", "MI", "CD", "DI"])),
    "roman_context_stems": st.lists(st.text(alphabet="aeijklmsu", min_size=1, max_size=4), max_size=4).map(tuple),
    "letter_names": st.sets(st.sampled_from(sorted(DEFAULT_NAMES))).map(
        lambda kept: {letter: DEFAULT_NAMES[letter] for letter in kept}
    ),
    "folding": st.sets(st.sampled_from(sorted(DEFAULT_PROTECTED) + list("éñç"))).map(
        lambda kept: FoldingTable(frozenset(kept))
    ),
    **OPTIONS,
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    text=st.one_of(st.text(alphabet=DIGIT_HEAVY, max_size=40), st.lists(CONFIG_PIECES, max_size=12).map("".join)),
    tables=st.fixed_dictionaries(TABLES),
)
def test_data_tables_and_folding(config, text, tables):
    configured = replace(config, **tables)
    out = verbalize(text, configured)
    quoted = (exp.text for entry in configured.abbreviations.values() for exp in entry.expansions)
    if not any(ASCII_DIGIT.search(value) for value in quoted):
        assert not ASCII_DIGIT.search(out), (text, tables, out)
    assert verbalize(text, configured) == out


# ------------------------------------------------- the pass-through gate

PLAIN_PIECES = st.one_of(
    st.sampled_from(["Tere", "hommikust", "linnas", "Õpilane", "sügisel", "tšekk", "Žürii", "Ärge", "jää", "öö"]),
    st.sampled_from([" ", "  ", "\t", "\n", "\xa0", "\u2028", "\u2003", "\u3000", "\x1f"]),
    st.sampled_from(sorted(_SENTENCE_PUNCT)),
)
ALL_SURFACES = sorted(set(SURFACES) | set(default_config().abbreviations))
# the shapes next to plain text that a rule may read
NEAR_PIECES = st.one_of(
    st.sampled_from(ALL_SURFACES).flatmap(
        lambda s: st.sampled_from([s, s.lower(), s.upper(), s.capitalize(), s.swapcase()])
    ),
    st.text(alphabet=LETTERS + "õäöüšžŽ", min_size=1, max_size=1),
    st.text(alphabet="bcdfghjklmnpqrstvwxzšžKMT", min_size=2, max_size=4),
    st.sampled_from([".ee", ".com", ".EE", ".eesti", "www.", "iPhone", "eCoop", "TEre", "Tallinn.ee", "e-post"]),
    st.sampled_from(["é", "ñ", "ç", "Éclair", "Łukasz", "ß", "ø", "ı", "İ", "\u0301", "ǅ"]),
    st.sampled_from(["7", "٣", "²", "½", "%", "@", "/", "§", "¤", "+", "€", "&", "_"]),
)


@st.composite
def near_gate_text(draw):
    pieces = draw(st.lists(PLAIN_PIECES, max_size=10))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        pieces.insert(draw(st.integers(min_value=0, max_value=len(pieces))), draw(NEAR_PIECES))
    return "".join(pieces)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=near_gate_text(), tables=st.fixed_dictionaries(TABLES))
def test_gate_passes_only_tokens_no_rule_rewrites(config, text, tables):
    configured = replace(config, **tables)
    folded = fold_diacritics(text, configured.folding)
    if _passes_through(folded, configured):
        surfaces = {surface.lower() for surface in configured.abbreviations}
        for token in tokenize(folded):
            assert token.kind in (TokenKind.WORD, TokenKind.PUNCT), (text, token)
            if token.kind is TokenKind.WORD:
                word = token.text.lower()
                assert len(word) > 1 and not _VOWELS.isdisjoint(word) and word not in surfaces, (text, token)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=near_gate_text(), tables=st.fixed_dictionaries(TABLES))
def test_gate_is_sound(config, text, tables):
    configured = replace(config, **tables)
    full = full_path(text, configured)
    assert verbalize(text, configured) == full
    folded = fold_diacritics(text, configured.folding)
    if _passes_through(folded, configured):
        assert full == folded, text
