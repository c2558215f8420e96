import gc
import random
import time

import pytest
from exhaustive_check import link_failures
from hypothesis import given, settings
from hypothesis import strategies as st

from etnorm.tokens import Token, TokenKind, detokenize, tokenize


def kinds(text):
    return [(t.text, t.kind) for t in tokenize(text)]


class TestClassification:
    def test_empty_input(self):
        assert list(tokenize("")) == []

    def test_case_suffixed_acronym_single_token(self):
        tokens = tokenize("MTÜle")
        assert len(tokens) == 1
        assert tokens[0].kind == TokenKind.CASE_SUFFIXED_ACRONYM

    def test_case_suffixed_with_hyphen(self):
        tokens = tokenize("EAS-i")
        assert [t.kind for t in tokens] == [TokenKind.CASE_SUFFIXED_ACRONYM]

    @pytest.mark.parametrize(
        "text, tail",
        [("EAS-kala", ("kala", TokenKind.WORD)), ("ERR-abc", ("abc", TokenKind.WORD)), ("EAS-iX", ("iX", TokenKind.MIXED_CASE))],
    )
    def test_rejected_case_ending_splits(self, text, tail):
        acronym = text.split("-")[0]
        assert kinds(text) == [(acronym, TokenKind.UPPERCASE_SEQ), ("-", TokenKind.PUNCT), tail]

    def test_case_ending_boundaries(self):
        A = TokenKind.CASE_SUFFIXED_ACRONYM
        assert kinds("NATOx") == [("NATOx", TokenKind.MIXED_CASE)]
        assert kinds("EAS-idele") == [("EAS-idele", A)]
        assert kinds("RMK-ks") == [("RMK-ks", A)]
        assert kinds("EAS-iga5") == [("EAS-iga", A), ("5", TokenKind.CARDINAL_NUMBER)]

    def test_slash_date_not_merged(self):
        tokens = tokenize("11/12/2020")
        assert [t.kind for t in tokens] == [
            TokenKind.CARDINAL_NUMBER,
            TokenKind.SYMBOL,
            TokenKind.CARDINAL_NUMBER,
            TokenKind.SYMBOL,
            TokenKind.CARDINAL_NUMBER,
        ]
        assert all(t.joined_right for t in tokens[:-1])

    def test_roman_candidate_shapes(self):
        assert kinds("DVD")[0][1] == TokenKind.ROMAN_CANDIDATE
        assert kinds("XVIII")[0][1] == TokenKind.ROMAN_CANDIDATE
        assert kinds("MM")[0][1] == TokenKind.ROMAN_CANDIDATE

    def test_uppercase_and_word(self):
        assert kinds("NATO")[0][1] == TokenKind.UPPERCASE_SEQ
        assert kinds("PARIIS")[0][1] == TokenKind.UPPERCASE_SEQ
        assert kinds("Tartu")[0][1] == TokenKind.WORD
        assert kinds("maja")[0][1] == TokenKind.WORD
        # letters outside the alphabet start a word run too
        assert kinds("Søren") == [("Søren", TokenKind.WORD)]
        assert kinds("ǅžungel") == [("ǅžungel", TokenKind.WORD)]
        assert kinds("ØRN") == [("ØRN", TokenKind.UPPERCASE_SEQ)]

    def test_mixed_case(self):
        assert kinds("eCoop")[0][1] == TokenKind.MIXED_CASE
        assert kinds("DigiDoc4")[0][1] == TokenKind.MIXED_CASE
        assert kinds("iPhone")[0][1] == TokenKind.MIXED_CASE
        assert kinds("Łukasz5") == [("Łukasz5", TokenKind.MIXED_CASE)]

    def test_lowercase_consonants(self):
        assert kinds("spp")[0][1] == TokenKind.LOWERCASE_CONSONANTS
        assert kinds("km")[0][1] == TokenKind.LOWERCASE_CONSONANTS
        assert kinds("maja")[0][1] == TokenKind.WORD

    def test_number_shapes(self):
        assert kinds("2020")[0][1] == TokenKind.CARDINAL_NUMBER
        assert kinds("3,14")[0][1] == TokenKind.DECIMAL_NUMBER
        assert kinds("5123456")[0][1] == TokenKind.DIGIT_GROUP_SEQ
        assert kinds("36 017")[0][1] == TokenKind.DIGIT_GROUP_SEQ
        assert kinds("11.12.2020")[0][1] == TokenKind.DATE_LIKE
        assert kinds("18:30")[0][1] == TokenKind.TIME_LIKE

    def test_ordinal_dot_requires_continuation(self):
        assert kinds("20. sajandil")[0][1] == TokenKind.ORDINAL_DOT
        ends = kinds("aastal 2020.")
        assert ends[-2][1] == TokenKind.CARDINAL_NUMBER
        assert ends[-1][1] == TokenKind.PUNCT

    def test_url_email_phone(self):
        assert kinds("www.neurokone.ee")[0][1] == TokenKind.URL
        assert kinds("https://goo.gl/forms/abc")[0][1] == TokenKind.URL
        assert kinds("info@neurokone.ee")[0][1] == TokenKind.EMAIL
        assert kinds("+372 555 0101")[0][1] == TokenKind.PHONE
        W, P = TokenKind.WORD, TokenKind.PUNCT
        assert kinds("www.err.ee.") == [("www.err.ee", TokenKind.URL), (".", P)]
        assert kinds("err.123") == [("err", W), (".", P), ("123", TokenKind.CARDINAL_NUMBER)]
        assert kinds("a.b.c") == [("a", W), (".", P), ("b", W), (".", P), ("c", W)]
        assert kinds("mari.tamm@ut.ee.") == [("mari.tamm@ut.ee", TokenKind.EMAIL), (".", P)]
        assert kinds("x-x-x-..ee") == [
            ("x", W), ("-", P), ("x", W), ("-", P), ("x", W), ("-", P), (".", P), (".", P), ("ee", W),
        ]
        # a number token that crosses whitespace ends inside a domain head,
        # so no URL starts on the dot after it
        U = TokenKind.URL
        assert kinds("1 000.err.ee") == [("1 000", TokenKind.DIGIT_GROUP_SEQ), (".", P), ("err.ee", U)]
        assert kinds("12 34 56 78.err.ee") == [("12 34 56 78", TokenKind.PHONE), (".", P), ("err.ee", U)]

    def test_url_prefix_trimmed_to_nothing_is_no_url(self):
        assert TokenKind.URL not in [k for _, k in kinds("vaata www.)")]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(www.err.ee/a).", "(/punct www.err.ee/a/url )/punct ./punct"),
            ("Vaata err.ee/».", "Vaata/word err.ee//url »/punct ./punct"),
            ("http://.", "http:///url ./punct"),
            ("www.err.ee,", "www.err.ee/url ,/punct"),
        ],
    )
    def test_url_ends_on_no_trailing_mark(self, text, expected):
        assert " ".join(f"{t}/{k.value}" for t, k in kinds(text)) == expected

    def test_top_level_domain_ends_before_a_letter(self):
        W, P = TokenKind.WORD, TokenKind.PUNCT
        assert kinds("koju.eelmisel") == [("koju", W), (".", P), ("eelmisel", W)]
        assert kinds("err.ee-st") == [("err.ee", TokenKind.URL), ("-", P), ("st", TokenKind.LOWERCASE_CONSONANTS)]

    @pytest.mark.parametrize(
        "text", ["+372 555 0101", "+372-555 0101", "53-12-34-56", "555 12 34", "555\xa012\xa034", "12 34 567", "12 345 67"]
    )
    def test_phone_numbers(self, text):
        assert kinds(text) == [(text, TokenKind.PHONE)]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("100 000-200 000", "100 000/digit_group_seq -/punct 200 000/digit_group_seq"),
            ("100\xa0000-200\xa0000", "100\xa0000/digit_group_seq -/punct 200\xa0000/digit_group_seq"),
            ("238 925-21:58", "238 925/digit_group_seq -/punct 21:58/time_like"),
            ("46-204 98", "46/cardinal_number -/punct 204/cardinal_number 98/cardinal_number"),
            ("12-34 56 78", "12/cardinal_number -/punct 34/cardinal_number 56/cardinal_number 78/cardinal_number"),
        ],
    )
    def test_phone_without_plus_mixes_no_dash_with_spaces(self, text, expected):
        assert " ".join(f"{t}/{k.value}" for t, k in kinds(text)) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            # 6 digits are too few, and digits grouped by thousands are a number
            ("12 34 56", "12/cardinal_number 34/cardinal_number 56/cardinal_number"),
            ("123 456 789", "123 456 789/digit_group_seq"),
            # a run of 16 digits is no phone, so the next token starts one
            ("1234 5678 9012 3456", "1234/cardinal_number 5678 9012 3456/phone"),
            ("12 34 56 78 90 12 34 56", "12/cardinal_number 34 56 78 90 12 34 56/phone"),
            # a group of 5 digits ends the run before it
            ("1234 5678 9012 34567", "1234 5678 9012/phone 34567/cardinal_number"),
        ],
    )
    def test_phone_is_a_whole_run_of_digit_groups(self, text, expected):
        assert " ".join(f"{t}/{k.value}" for t, k in kinds(text)) == expected

    def test_adjacent_years_are_not_a_phone(self):
        got = kinds("2020 2021")
        assert [k for _, k in got] == [TokenKind.CARDINAL_NUMBER, TokenKind.CARDINAL_NUMBER]

    def test_punct_vs_symbol(self):
        assert kinds(".")[0][1] == TokenKind.PUNCT
        assert kinds("–")[0][1] == TokenKind.PUNCT
        # the Estonian opening quotes are marks, as their closing ones are
        assert kinds("„Tere“ ‚ja‘") == [
            ("„", TokenKind.PUNCT), ("Tere", TokenKind.WORD), ("“", TokenKind.PUNCT),
            ("‚", TokenKind.PUNCT), ("ja", TokenKind.WORD), ("‘", TokenKind.PUNCT),
        ]
        assert kinds("%")[0][1] == TokenKind.SYMBOL
        assert kinds("/")[0][1] == TokenKind.SYMBOL
        # a non-decimal numeric ends a word run and is a symbol of its own
        S = TokenKind.SYMBOL
        assert kinds("abc²") == [("abc", TokenKind.WORD), ("²", S)]
        assert kinds("½Ⅻ") == [("½", S), ("Ⅻ", S)]
        assert kinds("sõna٣") == [("sõna", TokenKind.WORD), ("٣", S)]


class TestRoundTrip:
    def test_whitespace_recorded(self):
        text = "  Tere,  maailm!\t\nkõik "
        assert detokenize(tokenize(text)) == text

    def test_whitespace_only(self):
        text = " \t \n"
        assert detokenize(tokenize(text)) == text

    def test_random_ascii_strings(self):
        rng = random.Random(0xE571)
        pool = "abcDEF ÕäöüŠž 0123456789 .,:;!?%€+-–/()\"'\t\n"
        for _ in range(2000):
            text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 60)))
            assert detokenize(tokenize(text)) == text

    def test_random_unicode_strings(self):
        rng = random.Random(0xBEEF)
        for _ in range(1000):
            chars = []
            for _ in range(rng.randrange(0, 40)):
                cp = rng.randrange(0x09, 0x10000)
                if 0xD800 <= cp <= 0xDFFF:
                    cp = ord("x")
                chars.append(chr(cp))
            text = "".join(chars)
            assert detokenize(tokenize(text)) == text


class TestSpans:
    def test_character_spans_slice_source(self):
        text = "Žürii 3,14 MTÜle  kõik!"
        tokens = tokenize(text)
        previous_end = 0
        for token in tokens:
            start, end = token.span
            assert start >= previous_end
            assert text[start:end] == token.text
            previous_end = end

    def test_lone_surrogate_spans_one_character(self):
        assert [token.span for token in tokenize("a\udcff")] == [(0, 1), (1, 2)]

    def test_joined_right_flags(self):
        tokens = tokenize("km, ja")
        assert tokens[0].joined_right  # "km" glued to the comma
        assert not tokens[1].joined_right


class TestStability:
    def test_kind_stable_with_one_token_context(self, gold_corpus):
        texts = [record.raw for record in gold_corpus] + [
            "Karl XII valitses.",
            "20. sajandil 3,14 ja 36 017 inimest",
            "EAS-i MTÜle NATO DVD eCoop spp",
        ]
        for text in texts:
            tokens = tokenize(text)
            for i, token in enumerate(tokens):
                pair = token.text + token.ws_after
                if i + 1 < len(tokens):
                    pair += tokens[i + 1].text
                again = tokenize(pair)
                assert again, (text, token.text)
                assert again[0].kind == token.kind, (text, token.text, pair)

    def test_kinds_hash_by_identity(self):
        # kind-set and kind-dict lookups on the render path stay in C
        assert TokenKind.__hash__ is object.__hash__
        assert len({hash(kind) for kind in TokenKind}) == len(TokenKind)


def _repeated(unit, length):
    return (unit * (length // len(unit) + 1))[:length]


class TestLinearCost:
    BUDGET_S = 5.0  # a linear pass takes well under a second; a quadratic one, minutes

    @pytest.mark.parametrize(
        "line",
        [
            _repeated("x-", 65536),
            _repeated("a.", 65536),
            _repeated("1.", 65536),
            _repeated("sõna ", 65536),
            # one long run that is a URL or an e-mail address only at its end
            _repeated("x-", 65536 - 4) + "a.ee",
            _repeated("a.", 65536 - 6) + "@ut.ee",
            # a long run where no link starts, though the first try there
            # reads all of it, unlike in the two lines above: before a link
            # in the next chunk, where no try is made, or with the anchor in
            # the run, where each try a failed one does not rule out rescans
            # the run
            _repeated("a.", 65536 - 7) + " err.ee",
            _repeated("a.", 65536 - 3) + "@",
            _repeated("_.ee", 65536),
            _repeated("bwww.", 65536),
            _repeated("x_", 65536 - 7) + " a@b.ee",
            _repeated("x_", 65536 - 1) + "@",
            _repeated("wa.", 65536 - 6) + " www.x",
            _repeated("wa.", 65536 - 4) + "www.",
            # digit groups too long for a phone number; a letter run cut
            # short by a numeric character at every other position
            _repeated("12 ", 65536),
            _repeated("a²", 65536),
        ],
        ids=[
            "hyphen", "dot_letter", "dot_digit", "words", "run_then_tld", "run_then_at",
            "run_before_domain", "run_then_bare_at", "underscore_tld", "letter_www",
            "underscore_run_before_address", "underscore_run_then_at", "run_before_www", "run_then_www",
            "digit_groups", "cut_letters",
        ],
    )
    def test_64k_line_within_budget(self, line):
        started = time.perf_counter()
        tokens = tokenize(line)
        elapsed = time.perf_counter() - started
        assert detokenize(tokens) == line
        assert elapsed < self.BUDGET_S, f"{elapsed:.2f}s for {len(line)} chars"

    # A pass quadratic in C may meet the budget: growth is the stricter
    # check. Four times the length should take about four times as long,
    # and a quadratic pass takes sixteen; best of 3, the two lines taking turns.
    # Each call is timed after a full collection with the collector off: a
    # collection that a call sets off walks the whole test session's heap,
    # and the longer line, which makes more objects, sets one off more often.
    @pytest.mark.parametrize(
        "unit, tail",
        [("_.ee", ""), ("a.", " err.ee"), ("bwww.", ""), ("x_", " a@b.ee"), ("wa.", " www.x")],
        ids=["underscore_tld", "run_before_domain", "letter_www", "underscore_run_before_address", "run_before_www"],
    )
    def test_link_shape_cost_grows_linearly(self, unit, tail):
        lines = [_repeated(unit, length - len(tail)) + tail for length in (16384, 65536)]
        best = [float("inf")] * len(lines)
        gc.disable()
        try:
            for _ in range(3):
                for k, line in enumerate(lines):
                    gc.collect()
                    started = time.perf_counter()
                    tokenize(line)
                    best[k] = min(best[k], time.perf_counter() - started)
        finally:
            gc.enable()
        assert best[1] / best[0] <= 8, f"x{best[1] / best[0]:.1f} for x4 the length ({best[0]:.3f}s, {best[1]:.3f}s)"


# pieces of URL prefixes, domains and addresses, and near misses of them;
# whole addresses, whose runs are longer than one character; whitespace
# outside ASCII beside them and between chunks; and plain filler that puts
# the anchors far apart
HEAD_PIECES = st.sampled_from(
    ["a", "Z", "0", "-", "_", "+", ".", "..", ".ee", ".com", ".EE", ".eesti", "@", "www.", "http://", "x", "õ", "/"]
    + ["HTTPS://", "https:/", "ww", "www", "x.y@a.ee", "info@eki.ee", "ab+c@d", "\u2028", "\x85"]
)
CHUNK = st.lists(HEAD_PIECES, min_size=1, max_size=6).map("".join)
SEPARATOR = st.sampled_from([" ", "  ", "\xa0", "\u2028", "\x85", "\u3000", "\t"])
FILLER = st.integers(0, 300).map(lambda n: "tere " * n)


@st.composite
def anchored_lines(draw):
    """Chunks between separators, with chunks at both ends of the line
    and, between them, plain filler of any length."""
    chunks = draw(st.lists(CHUNK, min_size=1, max_size=8))
    seps = draw(st.lists(SEPARATOR, min_size=len(chunks) + 1, max_size=len(chunks) + 1))
    cut = draw(st.integers(0, len(chunks)))
    parts = [draw(st.sampled_from(["", " "]))]
    for i, chunk in enumerate(chunks):
        if i == cut:
            parts.append(draw(FILLER))
        parts += [chunk, seps[i]]
    return "".join(parts)[: -1 if draw(st.booleans()) else None]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=anchored_lines())
def test_head_scans_read_as_the_whole_line(text, config):
    # the links the tokenizer finds, trying only in the chunk of an anchor
    # and skipping what a failed try rules out, are the ones a try at every
    # token start finds
    assert not link_failures(text, config)
