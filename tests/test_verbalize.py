import random
import unicodedata

import pytest

from etnorm.lexicon import with_options
from etnorm.scoring import canonicalize
from etnorm.tokens import Token, TokenKind, tokenize
from etnorm.verbalize import (
    UppercaseClass,
    classify_uppercase,
    expand_abbreviation,
    expand_roman,
    spell_letters,
    verbalize,
    verbalize_digit_sequence,
    verbalize_mixed_case,
    verbalize_range,
)


def tok(text, kind=TokenKind.WORD, ws=" "):
    return Token(text, kind, (0, len(text.encode("utf-8"))), ws)


class TestSpellLetters:
    def test_fixed_letter_names(self, config):
        assert spell_letters("MTÜ", config.letter_names) == "emm-tee-üü"
        assert spell_letters("MTÜ", config.letter_names, "le") == "emm-tee-üüle"
        assert spell_letters("EAS", config.letter_names, "i") == "ee-aa-essi"
        assert spell_letters("spp", config.letter_names) == "ess-pee-pee"
        assert spell_letters("DVD", config.letter_names) == "dee-vee-dee"

    def test_totality_over_alphabet(self, config):
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZÕÄÖÜŠŽ"
        for letter in alphabet + alphabet.lower():
            assert spell_letters(letter, config.letter_names)

    def test_missing_letter_named_in_error(self, config):
        with pytest.raises(ValueError, match="Ω"):
            spell_letters("Ω", config.letter_names)

    def test_rejects_non_letters(self, config):
        with pytest.raises(ValueError):
            spell_letters("A1", config.letter_names)


class TestClassifyUppercase:
    def test_spec_examples(self, config):
        assert classify_uppercase("PARIIS", config) == UppercaseClass.TITLE
        assert classify_uppercase("NATO", config) == UppercaseClass.SPOKEN_WORD
        assert classify_uppercase("EAS", config) == UppercaseClass.SPELL_OUT

    def test_length_threshold_is_configurable(self, config):
        loose = with_options(config, title_min_length=4)
        assert classify_uppercase("PARK", loose) == UppercaseClass.TITLE


class TestExpandRoman:
    def test_keyword_context(self, config):
        right = tok("sajand")
        assert expand_roman("XX", None, right, config) == "kahekümnes"

    def test_stoplist_members_never_roman(self, config):
        for token in ("DVD", "MM", "CV", "CI"):
            for left, right in (
                (None, None),
                (None, tok("sajand")),
                (tok("Karl"), None),
                (None, tok(".", TokenKind.PUNCT)),
            ):
                assert expand_roman(token, left, right, config) is None, token

    def test_whole_stoplist_blocked_in_every_context(self, config):
        contexts = [
            (None, None),
            (None, tok("sajandil")),
            (None, tok("peatükk")),
            (tok("Karl"), None),
            (tok("Maria"), tok("osa")),
            (None, tok(".", TokenKind.PUNCT)),
        ]
        for token in config.roman_stoplist:
            for left, right in contexts:
                assert expand_roman(token, left, right, config) is None, token

    def test_capitalized_name_context(self, config):
        assert expand_roman("XII", tok("Karl"), None, config) == "kaheteistkümnes"

    def test_no_context_means_no_reading(self, config):
        assert expand_roman("XIV", None, tok("oli"), config) is None

    def test_invalid_shape_never_reads(self, config):
        assert expand_roman("IIII", None, tok("sajand"), config) is None


class TestExpandAbbreviation:
    def test_vat_context(self, config):
        sentence = ["hinnale", "lisandub", "km", "eurot"]
        assert expand_abbreviation("km", sentence, config.abbreviations) == "käibemaks"

    def test_distance_context(self, config):
        sentence = ["ta", "sõitis", "kaks", "km"]
        assert expand_abbreviation("km", sentence, config.abbreviations) == "kilomeetrit"

    def test_no_context_takes_highest_weight(self, config):
        assert expand_abbreviation("km", [], config.abbreviations) == "kilomeetrit"

    def test_single_expansion_trivial(self, config):
        assert expand_abbreviation("nt", [], config.abbreviations) == "näiteks"

    def test_missing_entry_raises(self, config):
        with pytest.raises(KeyError):
            expand_abbreviation("zzz", [], config.abbreviations)

    def test_tie_breaks_by_dictionary_order(self):
        from etnorm.lexicon import AbbreviationEntry, Expansion

        entries = {
            "xx": AbbreviationEntry(
                "xx", (Expansion("esimene", (), 1.0), Expansion("teine", (), 1.0))
            )
        }
        assert expand_abbreviation("xx", [], entries) == "esimene"


class TestRange:
    def test_hyphen_range(self, config):
        a = tok("2", TokenKind.CARDINAL_NUMBER, "")
        dash = tok("-", TokenKind.PUNCT, "")
        b = tok("3", TokenKind.CARDINAL_NUMBER, "")
        assert verbalize_range(a, dash, b, config) == "kaks kuni kolm"

    def test_en_dash_range(self, config):
        a = tok("10", TokenKind.CARDINAL_NUMBER, "")
        dash = tok("–", TokenKind.PUNCT, "")
        b = tok("12", TokenKind.CARDINAL_NUMBER, "")
        assert verbalize_range(a, dash, b, config) == "kümme kuni kaksteist"

    def test_non_numeric_operands_rejected(self, config):
        a = tok("e", TokenKind.WORD, "")
        dash = tok("-", TokenKind.PUNCT, "")
        b = tok("post", TokenKind.WORD, "")
        assert verbalize_range(a, dash, b, config) is None

    def test_spaced_dash_is_not_a_range(self, config):
        a = tok("2", TokenKind.CARDINAL_NUMBER, " ")
        dash = tok("-", TokenKind.PUNCT, " ")
        b = tok("3", TokenKind.CARDINAL_NUMBER, "")
        assert verbalize_range(a, dash, b, config) is None


class TestDigitSequence:
    def test_plain_run(self, config):
        assert (
            verbalize_digit_sequence("5123456", config)
            == "viis üks kaks kolm neli viis kuus"
        )

    def test_phone_with_plus_and_pauses(self, config):
        assert (
            verbalize_digit_sequence("+372 555 0101", config)
            == "pluss kolm seitse kaks, viis viis viis, null üks null üks"
        )

    def test_rejects_letters(self, config):
        with pytest.raises(ValueError):
            verbalize_digit_sequence("12a4", config)


class TestMixedCase:
    def test_spec_examples(self, config):
        assert verbalize_mixed_case("eCoop", config) == "ee koop"
        assert verbalize_mixed_case("DigiDoc4", config) == "digidok neli"

    def test_all_uppercase_falls_through_to_acronym_rules(self, config):
        assert verbalize_mixed_case("ABC", config) == "aa-bee-tsee"
        assert verbalize_mixed_case("NATO", config) == "NATO"

    def test_uppercase_run_before_word(self, config):
        assert verbalize_mixed_case("EestiNLP", config) == "eesti enn-ell-pee"


class TestVerbalizeEndToEnd:
    def test_spec_examples(self, config):
        assert verbalize("Ta töötab NATO peakorteris.", config) == "Ta töötab NATO peakorteris."
        assert verbalize("", config) == ""
        assert verbalize("DVD mängija", config) == "dee-vee-dee mängija"

    def test_cli_contract_line(self, config):
        assert verbalize("EAS-i toetus", config) == "ee-aa-essi toetus"
        out = verbalize("DVD 2-3 km", config)
        assert out == "dee-vee-dee kaks kuni kolm kilomeetrit"

    def test_plain_text_passes_through(self, config):
        text = "Tere, maailm!  Kõik on hästi."
        assert verbalize(text, config) == text

    def test_determinism(self, config):
        text = "EAS-i 2-3 km DVD 11/12/2020 eCoop spp 36 017"
        assert verbalize(text, config) == verbalize(text, config)

    def test_solved_problem_blocks(self, config, gold_corpus):
        by_category = {}
        for record in gold_corpus:
            by_category.setdefault(record.category, []).append(record)
        for block in ("solved1", "solved2", "solved3", "solved4", "solved5"):
            records = by_category[block]
            assert len(records) >= 3, block
            for record in records:
                got = verbalize(record.raw, config)
                assert canonicalize(got) == canonicalize(record.gold), (block, record.id)

    def test_whole_corpus_matches_gold(self, config, gold_corpus):
        for record in gold_corpus:
            got = verbalize(record.raw, config)
            assert canonicalize(got) == canonicalize(record.gold), record.id

    def test_colon_rules(self, config):
        assert verbalize("6:2", config) == "kuus koolon kaks"
        assert verbalize("1 : 3", config) == "üks koolon kolm"
        assert verbalize("1500:3000", config) == "tuhat viissada jagatud kolm tuhat"

    def test_sentence_colon_is_kept(self, config):
        assert verbalize("Järeldus: kõik toimib.", config) == "Järeldus: kõik toimib."

    def test_url_and_email(self, config):
        assert (
            verbalize("https://goo.gl/forms", config)
            == "goo punkt gee-ell kaldkriips forms"
        )
        assert verbalize("info@eki.ee", config) == "info ätt eki punkt ee"

    def test_symbols(self, config):
        assert verbalize("5 %", config) == "viis protsenti"
        assert verbalize("paragrahv § kehtib", config) == "paragrahv paragrahv kehtib"

    def test_unknown_symbol_dropped(self, config):
        out = verbalize("hind ¤ tõusis", config)
        assert "¤" not in out
        assert out == "hind tõusis"

    def test_number_with_case_ending(self, config):
        assert verbalize("15-ks", config) == "viieteistkümneks"
        assert verbalize("20ks", config) == "kahekümneks"

    @pytest.mark.parametrize(
        "text, options",
        [
            ("C20236028428", {}),  # mixed case with an over-limit digit run
            ("12345678901234567890,5", {}),  # decimal with an over-limit integer part
            ("5 000 000 000", {"digit_group_threshold": 11}),  # grouped, below the threshold
        ],
    )
    def test_numbers_above_max_cardinal_read_digit_by_digit(self, config, text, options):
        out = verbalize(text, with_options(config, **options) if options else config)
        assert out
        assert not any(ch.isdigit() for ch in out), out

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("www.٣.ee", "vee-vee-vee punkt punkt ee"),  # another script's digit as a label
            ("www.².ee", "vee-vee-vee punkt punkt ee"),  # a superscript as a label
            ("www.a².ee", "vee-vee-vee punkt aa punkt ee"),  # a superscript after a letter
            ("www.x².ee", "vee-vee-vee punkt iks punkt ee"),  # the same after a foreign letter
            ("www.½.ee", "vee-vee-vee punkt punkt ee"),  # a vulgar fraction as a label
            ("www.Ⅻkool.ee", "vee-vee-vee punkt kool punkt ee"),  # a Roman numeral sign before letters
            ("www.²kool.ee", "vee-vee-vee punkt kool punkt ee"),  # a superscript before letters
        ],
    )
    def test_url_labels_with_non_ascii_digits(self, config, text, expected):
        assert verbalize(text, config) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1.1.10000", "üks koma üks punkt kümme tuhat"),
            ("3.2.5", "kolm koma kaks punkt viis"),
            ("1.2.", "üks koma kaks."),  # a sentence-final dot stays punctuation
        ],
    )
    def test_dot_between_numbers_is_spoken(self, config, text, expected):
        assert verbalize(text, config) == expected

    def test_output_never_contains_digits(self, config):
        rng = random.Random(0xACCE)
        pool = "abc ÕÄÖÜ šž 0123456789 .,!?%€/+-–:;()\"' MTÜle EAS-i DVD spp eCoop 3,14"
        for _ in range(300):
            text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 50)))
            out = verbalize(text, config)
            assert not any(ch.isdigit() for ch in out), (text, out)

    def test_output_alphabet(self, config):
        rng = random.Random(0xA1FA)
        pool = "abcXYZ õäöüšž 0123456789.,!?%€$+=–-—:;()\"'«»/@#&§°"
        for _ in range(300):
            text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 50)))
            out = verbalize(text, config)
            for ch in out:
                assert (
                    ch.isalpha()
                    or ch.isspace()
                    or ch == "-"
                    or unicodedata.category(ch).startswith("P")
                ), (text, out, ch)
