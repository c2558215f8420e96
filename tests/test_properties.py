"""Property tests: ``verbalize`` is total on digit-heavy text under every
legal ``title_min_length`` and ``digit_group_threshold``, and under data
tables and folding sets that pass validation.

Each property checks that the call does not raise, that no ASCII digit
is left in the output, and that a second call gives the same output.
Three check the pass-through gate on text near it: what the gate passes
tokenizes to tokens no rule rewrites, ``verbalize`` gives what rendering
every token gives (also on lines it reads only from a cut after a plain
prefix, and on lines whose plain runs between rule shapes it copies
untokenized), and the gate decides as its first definition, four
searches, did, with one clause added since it reads raw lines: a line
that folding changes is not plain. Two check that the gate's grammar
stops where its first formulation (``reference_plain_line_re``) does,
under the bundled config, one whose table adds surfaces that are plain
words, one whose folding protects no letter and one with no surface, the
second also under drawn tables and on lines of 10,000 characters and
more. One checks that the tokenizer's plain word matches where its
first formulation does, on every short string of a small alphabet. One
checks that the tokenizer's master regex names the kind of a word, a
punctuation mark or a symbol as the Python classification would. One
checks that folding a line equals folding each of its characters, and
one that every token's span slices its text out of the folded line and,
folded, out of the raw line, without and with the copy path. One checks
the copy path's tokens: each one not PLAIN is the whole line's token
with its span, each PLAIN one is whole chunks that the gate's grammar
reads to their end, and together they give the line back. Examples
are derandomized, so a run is reproducible.
"""

import re
from itertools import chain, product

from hypothesis import given, settings
from hypothesis import strategies as st

from etnorm.folding import DEFAULT_PROTECTED, FoldingTable, fold_diacritics
from etnorm.lexicon import AbbreviationEntry, Expansion, default_config
from etnorm.tokens import _LC, _SENTENCE_PUNCT, _TLD_DOT, _UC, _VOWELS, TokenKind, _classify_word_run, detokenize, tokenize
from etnorm.tokens import _MASTER_RE
from etnorm.verbalize import verbalize
from exhaustive_check import PIECES as BOUNDARY_PIECES
from exhaustive_check import REFERENCE_PLAIN_WORD, reference_plain_line_re, strings
from test_verbalize import full_path, passes

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
    "digit_group_threshold": st.integers(min_value=7),
}


def check(config, text, options):
    configured = config.replace(**options)
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
    text=st.text(alphabet=LETTERS + " -", min_size=1, max_size=10),
    keywords=st.lists(st.sampled_from(["maks", "km", "eurot", "a", "karl", "saj"]), max_size=2).map(tuple),
    weight=st.floats(min_value=0.001, max_value=10.0),
)


@st.composite
def abbreviation_tables(draw, surfaces=SURFACES):
    table = {}
    for surface in draw(st.lists(st.sampled_from(surfaces), unique=True, max_size=5)):
        table[surface] = AbbreviationEntry(
            surface,
            tuple(draw(st.lists(EXPANSIONS, min_size=1, max_size=3))),
            speak_as_word=draw(st.booleans()),
            force_spellout=draw(st.booleans()),
        )
    return table


TABLES = {
    "abbreviations": abbreviation_tables(),
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
    configured = config.replace(**tables)
    out = verbalize(text, configured)
    assert not ASCII_DIGIT.search(out), (text, tables, out)
    assert verbalize(text, configured) == out


# ------------------------------------------------- the pass-through gate

PLAIN_WORDS = st.sampled_from(["Tere", "hommikust", "linnas", "Õpilane", "sügisel", "tšekk", "Žürii", "Ärge", "jää", "öö"])
PLAIN_PIECES = st.one_of(
    PLAIN_WORDS,
    st.sampled_from([" ", "  ", "\t", "\n", "\xa0", "\u2028", "\u2003", "\u3000", "\x1f"]),
    st.sampled_from(sorted(_SENTENCE_PUNCT)),
)
ALL_SURFACES = sorted(set(SURFACES) | set(default_config().abbreviations))


def casings(s):
    return st.sampled_from([s, s.lower(), s.upper(), s.capitalize(), s.swapcase()])


# the shapes next to plain text that a rule may read
NEAR_PIECES = st.one_of(
    st.sampled_from(ALL_SURFACES).flatmap(casings),
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
    configured = config.replace(**tables)
    folded = fold_diacritics(text, configured.folding)
    if passes(folded, configured):
        surfaces = configured.abbreviations
        for token in tokenize(folded):
            assert token.kind in (TokenKind.WORD, TokenKind.PUNCT), (text, token)
            if token.kind is TokenKind.WORD:
                word = token.text
                assert len(word) > 1 and not _VOWELS.isdisjoint(word.lower()), (text, token)
                assert word not in surfaces and word.lower() not in surfaces, (text, token)


# words a rule reads the line for, placed before the near pieces, in the
# prefix that verbalize leaves untokenized: the keywords of the bundled "km"
# and of the drawn tables, and capitalized words (a Roman numeral's left cue)
CONTEXT_WORDS = st.sampled_from(
    sorted({kw for exp in default_config().abbreviations["km"].expansions for kw in exp.keywords} | {"maks", "karl"})
).flatmap(lambda word: st.sampled_from([word, word.capitalize()]))
PLAIN_GAPS = st.sampled_from([" ", "  ", "\t", "\xa0", "\u2028", ", ", ". ", " – ", "! "])


@st.composite
def after_plain_text(draw):
    """Several plain words, then near-gate text led by a near piece."""
    words = draw(st.lists(st.one_of(PLAIN_WORDS, CONTEXT_WORDS), min_size=2, max_size=6))
    prefix = "".join(word + draw(PLAIN_GAPS) for word in words)
    return prefix + draw(NEAR_PIECES) + draw(st.sampled_from([" km", " km.", " XII", " Karl"])) + draw(near_gate_text())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    text=st.one_of(near_gate_text(), after_plain_text()),
    tables=st.fixed_dictionaries(
        {**TABLES, "abbreviations": st.one_of(st.just(default_config().abbreviations), abbreviation_tables())}
    ),
)
def test_gate_is_sound(config, text, tables):
    configured = config.replace(**tables)
    full = full_path(text, configured)
    assert verbalize(text, configured) == full
    folded = fold_diacritics(text, configured.folding)
    if passes(folded, configured):
        assert full == folded, text


CHUNK_SPACES = st.sampled_from(["\t", "\xa0", " ", "  "])
PLAIN_CHUNKS = st.one_of(
    PLAIN_WORDS, CONTEXT_WORDS, PLAIN_WORDS.map(lambda word: word + ","), st.sampled_from(["–", "«Tere»", "jää."])
)
RULE_CHUNKS = st.one_of(st.lists(PIECES, min_size=1, max_size=3).map("".join), st.sampled_from(SURFACES))


@st.composite
def runs_between_rule_shapes(draw):
    """Runs of at least three plain chunks (words and marks) with rule
    shapes drawn from PIECES, or a surface alone, between them, the chunks
    separated by tabs, no-break spaces, spaces and doubled spaces."""
    chunks = draw(st.lists(PLAIN_CHUNKS, min_size=3, max_size=8))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        chunks.append(draw(RULE_CHUNKS))
        chunks += draw(st.lists(PLAIN_CHUNKS, min_size=3, max_size=8))
    return "".join(chunk + draw(CHUNK_SPACES) for chunk in chunks[:-1]) + chunks[-1]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=runs_between_rule_shapes())
def test_skipped_runs_read_as_the_whole_line(config, text):
    assert verbalize(text, config) == full_path(text, config)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(near_gate_text(), after_plain_text(), runs_between_rule_shapes()))
def test_copy_path_keeps_the_tokens_of_the_whole_line(config, text):
    line = fold_diacritics(text, config.folding)
    tokens = tokenize(line, _plain=config.plain_line_re.match)
    whole = {token.span: token for token in tokenize(line)}
    for token in tokens:
        start, end = token.span
        if token.kind is TokenKind.PLAIN:  # a whole run of chunks, read by the grammar to its end
            assert (start == 0 or line[start - 1].isspace()) and (token.ws_after or end == len(line)), (text, token)
            assert config.plain_line_re.fullmatch(token.text + token.ws_after), (text, token)
        else:
            assert whole.get(token.span) == token, (text, token)
    assert detokenize(tokens) == line, text


# The gate as it was first written, four searches: a character outside
# the letters, whitespace and sentence punctuation; a top-level-domain dot;
# a capital that does not start a lowercase word; and, in the lowercased
# line led by a space, a word of one letter, with no vowel, or that is an
# abbreviation surface lowercase after its first letter, as a word is. The
# gate reads raw lines, so a line that the config's folding changes is not
# plain either.
_NOT_PLAIN_CHAR_RE = re.compile(rf"[^{_UC}{_LC}\s{re.escape(''.join(sorted(_SENTENCE_PUNCT)))}]")
_CASE_CHANGE_RE = re.compile(rf"[{_UC}](?:(?![{_LC}])|(?<=[{_LC}].))")
_TLD_DOT_RE = re.compile(_TLD_DOT)


def reference_gate(line, config):
    surfaces = "".join(f"|{re.escape(s.lower())}" for s in config.abbreviations if s[1:] == s[1:].lower())
    vowels = "".join(sorted(_VOWELS))
    rule_word_re = re.compile(rf"[^{_LC}](?:[{_LC}]|[^\W\d_{vowels}]+{surfaces})(?![{_LC}])")
    return not (
        _NOT_PLAIN_CHAR_RE.search(line)
        or _TLD_DOT_RE.search(line)
        or _CASE_CHANGE_RE.search(line)
        or rule_word_re.search(" " + line.lower())
        or fold_diacritics(line, config.folding) != line
    )


# surfaces with a vowel, a capital, a letter outside ASCII or a non-letter
GATE_SURFACES = ["Karl", "eile", "õp", "e.g", "a+b", "x*"]
GATE_TABLES = {
    **TABLES,
    "abbreviations": st.one_of(st.just(default_config().abbreviations), abbreviation_tables(GATE_SURFACES + ["km", "MTÜ", "XII"])),
}
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\xa0", "\u2028", "\x1f", ", ", ". ", "-", "–", "«", "»", "!", ".", ".ee"])


@st.composite
def gate_lines(draw):
    """Tables and a line of plain words, words led by a capital vowel and
    up to two of the tables' surfaces, in any case and alone or with a
    letter after them, each word followed by a separator."""
    tables = draw(st.fixed_dictionaries(GATE_TABLES))
    words = draw(st.lists(st.one_of(PLAIN_WORDS, st.sampled_from(["Õhk", "Ah", "Üks"])), max_size=6))
    surfaces = st.sampled_from(sorted(tables["abbreviations"]) or GATE_SURFACES).flatmap(casings)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        words.insert(draw(st.integers(min_value=0, max_value=len(words))), draw(surfaces) + draw(st.sampled_from(["", "a"])))
    return "".join(word + draw(SEPARATORS) for word in words), tables


def check_gate(config, text, tables):
    configured = config.replace(**tables)
    for line in (text, fold_diacritics(text, configured.folding)):
        assert passes(line, configured) == reference_gate(line, configured), (line, tables)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=gate_lines())
def test_gate_agrees_with_its_first_definition_on_plain_lines(config, case):
    check_gate(config, *case)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(near_gate_text(), st.text()), tables=st.fixed_dictionaries(GATE_TABLES))
def test_gate_agrees_with_its_first_definition(config, text, tables):
    check_gate(config, text, tables)


# ------------------------------------------------- the grammar's stop

# Besides the bundled config: surfaces that are plain words, in the
# alphabet's lowercase, capitalized and led by a letter outside ASCII; a
# folding that protects no letter, so every word is read for one to fold;
# and no surface, so no word piece looks ahead for one
STOP_CONFIGS = (
    default_config(),
    default_config().replace(
        abbreviations={
            **default_config().abbreviations,
            **{s: AbbreviationEntry(s, (Expansion("x"),)) for s in ("eile", "Karl", "õp")},
        },
    ),
    default_config().replace(folding=FoldingTable(frozenset())),
    default_config().replace(abbreviations={}),
)
REFERENCE_GRAMMARS = [reference_plain_line_re(configured) for configured in STOP_CONFIGS]


# every spelling, in each letter's case, of the surfaces above that a
# plain word could hold, then what may follow one: nothing, a letter of
# either case, whitespace, a mark or a top-level-domain dot
SPELLINGS = ["".join(letters) for s in ("jne", "ca", "prof", "eile", "karl", "õp") for letters in product(*zip(s, s.upper()))]
AFTER_SPELLING = ["", "a", "ä", "A", "Ä", " ", ".", ",", ".ee", "-"]


def test_grammar_stops_where_it_did_on_small_strings():
    for text in chain(strings(BOUNDARY_PIECES, 3), strings([*SPELLINGS, *AFTER_SPELLING], 2)):
        for configured, reference in zip(STOP_CONFIGS, REFERENCE_GRAMMARS):
            assert configured.plain_line_re.match(text).end() == reference.match(text).end(), (text, configured)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=gate_lines())
def test_grammar_stops_where_it_did_on_plain_lines(config, case):
    text, tables = case
    drawn = config.replace(**tables)
    # repeated to 10,000 characters and more, one match must still stop alike
    long = text * (10_000 // max(len(text), 1) + 1)
    for configured, reference in zip((*STOP_CONFIGS, drawn), (*REFERENCE_GRAMMARS, reference_plain_line_re(drawn))):
        for line in text, long:
            assert configured.plain_line_re.match(line).end() == reference.match(line).end(), (line, tables)


# ------------------------------------------------- kinds named by the master regex

# vowels and consonants of both cases, in and out of ASCII, a letter
# outside the alphabet, a digit, "_", a space and a dot
WORD_CHARS = ["a", "A", "k", "K", "y", "õ", "Õ", "š", "é", "5", "_", " ", "."]
REFERENCE_WORD_RE = re.compile(REFERENCE_PLAIN_WORD)


def test_word_group_matches_where_its_first_formulation_does():
    for text in chain.from_iterable(strings(WORD_CHARS, size) for size in range(1, 5)):
        for pos in range(len(text)):
            match, reference = _MASTER_RE.match(text, pos), REFERENCE_WORD_RE.match(text, pos)
            word_end = match.end("word") if match.lastgroup == "word" else None
            assert word_end == (reference.end() if reference else None), (text, pos)


# letters of both cases, with and without a vowel, ASCII and other digits,
# a numeric that ends a word run and combining marks
WORD_RUN_CHARS = "aeikpslõüEKIPLÕÜzĲé" + "0123456789" + "٣²" + "\u0301\u0308"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(near_gate_text(), st.text(), st.text(alphabet=WORD_RUN_CHARS, max_size=12)))
def test_regex_names_the_kind_the_classifier_would(text):
    for token in tokenize(text):
        if token.text[0].isalpha() and all(ch.isalpha() or ch in "0123456789" for ch in token.text):
            assert token.kind is _classify_word_run(token.text), (text, token)
        elif len(token.text) == 1 and token.kind in (TokenKind.PUNCT, TokenKind.SYMBOL):
            assert (token.kind is TokenKind.PUNCT) == (token.text in _SENTENCE_PUNCT), (text, token)


# ------------------------------------------------- folding


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(st.text(), st.text(alphabet="aZõäÕÄéÉñŭ .")), table=TABLES["folding"])
def test_fold_skip_never_skips_a_fold(text, table):
    assert fold_diacritics(text, table) == "".join(table.fold_char(ch) for ch in text)


# ------------------------------------------------- spans

# letters that fold, lone surrogates, and both next to rule shapes and plain words
SPAN_PIECES = st.one_of(
    PIECES,
    PLAIN_PIECES,
    st.sampled_from(["é", "ñ", "ç", "Éclair", "Łukasz", "François", "Zoë", "\udcff", "\ud800", "\udcffkm", "x\udcff5"]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    text=st.one_of(st.lists(SPAN_PIECES, max_size=14).map("".join), near_gate_text(), runs_between_rule_shapes()),
    table=TABLES["folding"],
)
def test_spans_slice_the_raw_and_the_folded_line(config, text, table):
    folded = fold_diacritics(text, table)
    for tokens in tokenize(folded), tokenize(folded, _plain=config.replace(folding=table).plain_line_re.match):
        for token in tokens:
            start, end = token.span
            assert folded[start:end] == token.text, (text, token)
            assert fold_diacritics(text[start:end], table) == token.text, (text, token)


# ------------------------------------------------- ranges

DIGITS = "0123456789"
# cardinals, decimals with a comma or a dot, times, dates and space-grouped
# numbers: each a range operand that reads the same inside a range as alone
RANGE_OPERANDS = st.one_of(
    st.integers(min_value=0, max_value=999_999).map(str),
    st.builds("{},{}".format, st.integers(0, 99_999), st.text(DIGITS, min_size=1, max_size=4)),
    st.builds("{}.{}".format, st.integers(0, 99_999), st.text(DIGITS, min_size=1, max_size=2)),
    st.builds("{}:{:02}".format, st.integers(0, 23), st.integers(0, 59)),
    st.builds("{}:{:02}:{:02}".format, st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)),
    st.builds("{}.{}.{}".format, st.integers(1, 31), st.integers(1, 12), st.integers(1000, 2999)),
    st.builds(
        lambda lead, groups: " ".join([str(lead), *groups]),
        st.integers(1, 999),
        st.lists(st.text(DIGITS, min_size=3, max_size=3), min_size=1, max_size=2),
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(x=RANGE_OPERANDS, dash=st.sampled_from(["-", "–"]), y=RANGE_OPERANDS)
def test_range_reads_each_operand_as_alone(config, x, dash, y):
    assert verbalize(f"{x}{dash}{y}", config) == f"{verbalize(x, config)} kuni {verbalize(y, config)}"
