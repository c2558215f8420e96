import importlib
import itertools
import random
import time
import tracemalloc
import unicodedata

import pytest
from exhaustive_check import copy_path, cut_of, full_path

from etnorm.folding import FoldingTable, fold_diacritics
from etnorm.lexicon import AbbreviationEntry, Expansion, load_config
from etnorm.numwords import NOMINATIVE, ordinal
from etnorm.romans import roman_value
from etnorm.scoring import canonicalize
from etnorm.tokens import TokenKind, detokenize, tokenize
from etnorm.verbalize import (
    _RULES,
    _abbreviation,
    _letter_compound,
    _lone_letter,
    _mark_at_number,
    spell_letters,
    verbalize,
    verbalize_digit_sequence,
    verbalize_mixed_case,
)

# the module, which the package's ``verbalize`` function shadows
verbalize_module = importlib.import_module("etnorm.verbalize")


def passes(line, config):
    """The gate of ``verbalize``: the plain-line grammar reads all of ``line``."""
    return config.plain_line_re.fullmatch(line) is not None


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

    def test_lone_letter_reads_its_name_or_itself(self, config):
        assert verbalize("x ja Y", config) == "iks ja igrek"
        assert verbalize("Ω", config) == "Ω"
        assert verbalize("x", config.replace(letter_names={})) == "x"


class TestClassifyUppercase:
    def test_spec_examples(self, config):
        assert verbalize("PARIIS", config) == "PARIIS"  # a title set in capitals
        assert verbalize("NATO", config) == "NATO"  # a spoken acronym
        assert verbalize("EAS", config) == "ee-aa-ess"  # spelled

    def test_length_threshold_is_configurable(self, config):
        assert verbalize("PARK", config) == "pee-aa-err-kaa"
        assert verbalize("PARK", config.replace(title_min_length=4)) == "PARK"


# a Roman numeral with nothing around it, with each kind of cue, and with
# a word that is no cue; "{}" stands for the numeral
ROMAN_CONTEXTS = ("{}", "{} sajandil", "{} peatükk", "Karl {}", "Maria {} osa", "{}. sajandil", "{} oli")


class TestExpandRoman:
    def test_keyword_context(self, config):
        assert verbalize("XX sajand", config) == "kahekümnes sajand"

    def test_stoplist_members_never_roman(self, config):
        # the numerals the dictionary spells read as ordinals without their entries
        unlisted = config.replace(abbreviations={
            s: entry for s, entry in config.abbreviations.items() if s not in ("MM", "CV", "CI")
        })
        for token in ("MM", "CV", "CI"):
            reading = ordinal(roman_value(token), NOMINATIVE, config.numbers)
            spelled = spell_letters(token, config.letter_names)
            for context in ("{} sajandil", "Karl {}", "{}. sajandil"):
                line = context.format(token)
                assert verbalize(line, unlisted) == context.replace(".", "").format(reading), line
                assert verbalize(line, config) == context.format(spelled), line
        assert verbalize("DVD sajandil", unlisted) == "dee-vee-dee sajandil"  # not a well-formed numeral

    def test_whole_stoplist_blocked_in_every_context(self, config):
        # every Roman-shaped surface of the dictionary is read as it says
        listed = [s for s in config.abbreviations if tokenize(s)[0].kind is TokenKind.ROMAN_CANDIDATE]
        assert {"MM", "CV", "DVD"} <= set(listed)
        for token in listed:
            spelled = spell_letters(token, config.letter_names)
            for context in ROMAN_CONTEXTS:
                assert verbalize(context.format(token), config) == context.format(spelled), (token, context)

    def test_listed_surface_is_read_by_its_expansion(self, config):
        # a surface the dictionary lists is read as it says, never as a numeral
        entry = AbbreviationEntry("XL", (Expansion("ekstra suur"),))
        custom = config.replace(abbreviations={**config.abbreviations, "XL": entry})
        assert verbalize("XL sajandil", config) == "iks-ell sajandil"
        assert verbalize("XL sajandil", config.replace(abbreviations={})) == "neljakümnes sajandil"
        assert verbalize("XL sajandil", custom) == "ekstra suur sajandil"

    def test_capitalized_name_context(self, config):
        assert verbalize("Karl XII", config) == "Karl kaheteistkümnes"

    def test_no_context_means_no_reading(self, config):
        assert verbalize("XIV oli", config) == "iks-ii-vee oli"

    def test_invalid_shape_never_reads(self, config):
        assert verbalize("IIII sajand", config) == "ii-ii-ii-ii sajand"


class TestExpandAbbreviation:
    def test_vat_context(self, config):
        assert verbalize("hinnale lisandub km eurot", config) == "hinnale lisandub käibemaks eurot"

    def test_distance_context(self, config):
        assert verbalize("ta sõitis kaks km", config) == "ta sõitis kaks kilomeetrit"

    def test_no_context_takes_highest_weight(self, config):
        assert verbalize("km", config) == "kilomeetrit"

    def test_single_expansion_trivial(self, config):
        assert verbalize("nt", config) == "näiteks"

    def test_tie_breaks_by_dictionary_order(self, config):
        entry = AbbreviationEntry("xx", (Expansion("esimene", (), 1.0), Expansion("teine", (), 1.0)))
        assert verbalize("xx", config.replace(abbreviations={"xx": entry})) == "esimene"

    def test_context_is_built_once_per_line(self, config, monkeypatch):
        built = []  # per call of ``_line_words``: whether it built the word set
        original = verbalize_module._line_words

        def counting(line):
            built.append(line.abbreviation_context is None)
            return original(line)

        monkeypatch.setattr(verbalize_module, "_line_words", counting)
        assert verbalize("nt 5 km ja vt lk 3, sõitis km", config) == (
            "näiteks viis kilomeetrit ja vaata lehekülg kolm, sõitis kilomeetrit"
        )
        assert len(built) > 1 and built.count(True) == 1

    def test_no_context_for_an_entry_with_one_expansion(self, config, monkeypatch):
        built = []  # counted as above; no entry of this line has more than one expansion
        original = verbalize_module._line_words

        def counting(line):
            built.append(line.abbreviation_context is None)
            return original(line)

        monkeypatch.setattr(verbalize_module, "_line_words", counting)
        assert verbalize("nt ja jne 5 kg", config) == "näiteks ja ja nii edasi viis kilogrammi"
        assert built == []


    def test_entry_flagged_word_is_read_as_written(self, config):
        # the flag keeps capitals and a lowercase consonant cluster as
        # written, with or without a case ending, as the bundled NATO is
        table = {surface: AbbreviationEntry(surface, speak_as_word=True) for surface in ("ERM", "kpl")}
        custom = config.replace(abbreviations={**config.abbreviations, **table})
        assert verbalize("ERM ERM-ile ERMis kpl", config) == "ee-err-emm ee-err-emmile ee-err-emmis kaa-pee-ell"
        assert verbalize("ERM ERM-ile ERMis kpl", custom) == "ERM ERMile ERMis kpl"
        assert verbalize("NATO NATO-le NATOs", config) == "NATO NATOle NATOs"

    def test_case_ending_after_a_flagged_lowercase_entry(self, config):
        # a hyphen-joined ending is read with the entry, as after capitals
        def flagged(**flag):
            return config.replace(abbreviations={**config.abbreviations, "kpl": AbbreviationEntry("kpl", **flag)})

        assert verbalize("5 kpl-i", config) == "viis kaa-pee-ell-ii"
        assert verbalize("5 kpl-i", flagged(speak_as_word=True)) == "viis kpli"
        assert verbalize("5 kpl-i ja kpl-ga", flagged(force_spellout=True)) == "viis kaa-pee-elli ja kaa-pee-ellga"
        assert verbalize("5 kpl-x", flagged(speak_as_word=True)) == "viis kpl-iks"  # no case ending
        assert verbalize("nt-ks", config) == "näiteks-kaa-ess"  # an expanded entry takes none

    def test_case_ending_on_an_expanded_entry_is_spelled(self, config):
        entry = AbbreviationEntry("EL", (Expansion("Euroopa Liit"),))
        custom = config.replace(abbreviations={**config.abbreviations, "EL": entry})
        assert verbalize("EL", custom) == "Euroopa Liit"
        assert verbalize("EL-i", custom) == "ee-elli"
        assert verbalize("ELis", custom) == "ee-ellis"


class TestRange:
    def test_hyphen_range(self, config):
        assert verbalize("2-3", config) == "kaks kuni kolm"

    def test_en_dash_range(self, config):
        assert verbalize("10–12", config) == "kümme kuni kaksteist"

    def test_non_numeric_operands_rejected(self, config):
        assert verbalize("e-post", config) == "e-post"

    def test_spaced_dash_is_not_a_range(self, config):
        assert verbalize("2 - 3", config) == "kaks - kolm"

    def test_public_reader_takes_every_number_kind(self, config):
        assert verbalize("10:30–11:00", config) == "kümme koolon kolmkümmend kuni üksteist koolon null"
        assert verbalize("XX-5", config) == "iks-iks-viis"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("10:30-11:00", "kümme koolon kolmkümmend kuni üksteist koolon null"),
            ("3,5-4,5 km", "kolm koma viis kuni neli koma viis kilomeetrit"),
            ("XIX-XX sajand", "üheksateistkümnes kuni kahekümnes sajand"),
            ("I-II osa", "esimene kuni teine osa"),  # the range before the letter compound
            ("100 000-200 000", "sada tuhat kuni kakssada tuhat"),  # not one phone number
            ("10\xa0000-20\xa0000", "kümme tuhat kuni kakskümmend tuhat"),
            ("1.1.2020-2.2.2020", "esimene esimene kaks tuhat kakskümmend kuni teine teine kaks tuhat kakskümmend"),
            ("12-15:00", "kaksteist kuni viisteist koolon null"),
            ("Karl XI-XII", "Karl üheteistkümnes kuni kaheteistkümnes"),  # a name before the span
            ("XIX-XX. sajandil", "üheksateistkümnes kuni kahekümnes sajandil"),  # an ordinal dot after it
            ("+3725550101-+3725550102", "pluss kolm seitse kaks viis viis viis null üks null üks kuni "
             "pluss kolm seitse kaks viis viis viis null üks null kaks"),  # two phone numbers
        ],
    )
    def test_every_number_kind(self, config, text, expected):
        assert verbalize(text, config) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("e-post", "e-post"),
            ("A-rühm", "A-rühm"),
            ("C-vitamiin", "C-vitamiin"),
            ("2 - 3", "kaks - kolm"),
            ("MM-XX sajand", "emm-emm-kahekümnes sajand"),  # MM is spelled by the dictionary
            ("XIX-XX", "iks-ii-iks-iks-iks"),  # no cue licenses the pair
            ("XX-5 sajand", "iks-iks-viis sajand"),  # a Roman and an Arabic numeral
            ("2023-ks", "kahe tuhande kahekümne kolmeks"),
            ("5.-7. mail", "viies kuni seitsmes mail"),
            ("4000. aastal", "neli tuhat aastal"),  # an ordinal dot over MAX_ORDINAL
            ("05. mail", "null viis mail"),  # a zero-led ordinal body is read digit by digit
            ("32.13.2020", "kolmkümmend kaks kolmteist kaks tuhat kakskümmend"),  # day and month out of range
        ],
    )
    def test_readings_that_are_not_new_ranges(self, config, text, expected):
        assert verbalize(text, config) == expected


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

    def test_unlisted_symbols_are_dropped(self, config):
        symbols = {k: v for k, v in config.symbols.items() if k not in "+/@"}
        bare = config.replace(symbols=symbols)
        assert verbalize("+372 555 0101", bare) == "kolm seitse kaks, viis viis viis, null üks null üks"
        assert verbalize("info@eki.ee", bare) == "info eki punkt ee"
        assert verbalize("https://goo.gl/forms", bare) == "goo punkt gee-ell forms"


class TestGroupedNumber:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2 500 000 eurot", "kaks miljonit viissada tuhat eurot"),
            ("1.000.000", "miljon"),
            ("2\xa0500\xa0000", "kaks miljonit viissada tuhat"),
            ("55 555 555", "viiskümmend viis miljonit viissada viiskümmend viis tuhat viissada viiskümmend viis"),
            (
                "999 999 999",
                "üheksasada üheksakümmend üheksa miljonit üheksasada üheksakümmend üheksa tuhat "
                "üheksasada üheksakümmend üheksa",
            ),
        ],
    )
    def test_grouped_by_thousands_reads_as_a_cardinal(self, config, text, expected):
        assert verbalize(text, config) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1 000 000 000", "üks, null null null, null null null, null null null"),  # above MAX_CARDINAL
            ("0 500 000", "null, viis null null, null null null"),  # a leading zero
            ("5000000", "viis null null null null null null"),  # no separator: the threshold holds
            ("5123456", "viis üks kaks kolm neli viis kuus"),
        ],
    )
    def test_read_digit_by_digit(self, config, text, expected):
        assert verbalize(text, config) == expected

    def test_threshold_governs_only_runs_without_separators(self, config):
        assert verbalize("1 234 567", config.replace(digit_group_threshold=7)) == (
            "miljon kakssada kolmkümmend neli tuhat viissada kuuskümmend seitse"
        )
        assert verbalize("1234567", config.replace(digit_group_threshold=8)) == (
            "miljon kakssada kolmkümmend neli tuhat viissada kuuskümmend seitse"
        )


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
        # "@" and "+" are pieces of the address, read or dropped as the symbol table says
        bare = config.replace(symbols={k: v for k, v in config.symbols.items() if k not in ("@", "+")})
        assert verbalize("a.@b.ee", config) == "aa punkt ätt bee punkt ee"
        assert verbalize("a.@b.ee", bare) == "aa punkt bee punkt ee"
        assert verbalize(".a@b.ee", config) == "punkt aa ätt bee punkt ee"
        assert verbalize("a_b+c@d.ee", config) == "aa alakriips bee pluss tsee ätt dee punkt ee"
        assert verbalize("a_b+c@d.ee", bare) == "aa alakriips bee tsee dee punkt ee"
        assert verbalize("info@eki.ee", bare) == "info eki punkt ee"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("läksin koju.eelmisel päeval", "läksin koju.eelmisel päeval"),  # a word after a glued dot
            ("Tallinn.eesti", "Tallinn.eesti"),
            ("err.ee-st", "err punkt ee-see tähendab"),
            ("Vaata err.ee.", "Vaata err punkt ee."),
            ("y.io5", "igrek punkt io viis"),
            ("info@eki.ee", "info ätt eki punkt ee"),
            ("www.err.ee/uudised", "vee-vee-vee punkt err punkt ee kaldkriips uudised"),
            ("www.a_b.ee", "vee-vee-vee punkt aa alakriips bee punkt ee"),  # an underscore in a label
        ],
    )
    def test_top_level_domain_ends_before_a_letter(self, config, text, expected):
        assert verbalize(text, config) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("see on https://, mitte", "see on haa-tee-tee-pee-ess, mitte"),
            ("http:// x", "haa-tee-tee-pee iks"),
            ("Vaata https://", "Vaata haa-tee-tee-pee-ess"),
            # only a leading scheme is dropped; one inside a path is read
            ("err.ee/?u=http://x", "err punkt ee kaldkriips uu võrdub haa-tee-tee-pee kaldkriips kaldkriips iks"),
        ],
    )
    def test_url_scheme_with_no_host_reads_its_name(self, config, text, expected):
        assert verbalize(text, config) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("HTTPS://err.ee", "err punkt ee"),
            ("Https://err.ee", "err punkt ee"),
            ("HTTPS://,", "haa-tee-tee-pee-ess,"),
        ],
    )
    def test_url_scheme_in_capitals_is_a_scheme(self, config, text, expected):
        assert verbalize(text, config) == expected

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
            # too long for int(): read without being parsed
            pytest.param("a" + "1" * 5000, {}, id="mixed-case-5000-digits"),
            pytest.param("0" * 5000 + "1,5", {}, id="decimal-5000-leading-zeros"),
            pytest.param("1" * 5000 + ",5", {}, id="decimal-5000-digits"),
        ],
    )
    def test_numbers_above_max_cardinal_read_digit_by_digit(self, config, text, options):
        out = verbalize(text, config.replace(**options))
        assert out
        assert not any(ch.isdigit() for ch in out), out

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("www.٣.ee", "vee-vee-vee punkt ee"),  # another script's digit as a label
            ("www.².ee", "vee-vee-vee punkt ee"),  # a superscript as a label
            ("www.a².ee", "vee-vee-vee punkt aa punkt ee"),  # a superscript after a letter
            ("www.x².ee", "vee-vee-vee punkt iks punkt ee"),  # the same after a foreign letter
            ("www.½.ee", "vee-vee-vee punkt ee"),  # a vulgar fraction as a label
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
            ("v1.2.3", "vee üks punkt kaks koma kolm"),  # a name ending in a digit on the left
            ("Python3.11", "python kolm punkt üksteist"),
        ],
    )
    def test_dot_between_numbers_is_spoken(self, config, text, expected):
        assert verbalize(text, config) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("A3,5 m", "aa kolm koma viis emm"),  # a name ending in a digit on the left
            ("v2,5", "vee kaks koma viis"),
            ("1,5,7", "üks koma viis koma seitse"),  # a decimal on the left
            ("1, 2 ja 3", "üks, kaks ja kolm"),  # a spaced comma stays punctuation
            ("1,2.", "üks koma kaks."),
        ],
    )
    def test_comma_between_numbers_is_spoken(self, config, text, expected):
        assert verbalize(text, config) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("−5 kraadi", "miinus viis kraadi"),  # U+2212, the minus sign
            ("-5 kraadi", "miinus viis kraadi"),  # a hyphen that opens a number
            ("(-5)", "(miinus viis)"),
            ("x=-5", "iks võrdub miinus viis"),
            ("-1,5 kraadi", "miinus üks koma viis kraadi"),
            ("5−3", "viis miinus kolm"),
            # an en dash used as a minus sign
            ("temperatuur –5 kraadi", "temperatuur miinus viis kraadi"),
            ("(–5)", "(miinus viis)"),
            ("–5,5 kraadi", "miinus viis koma viis kraadi"),
            # a hyphen joined to a word or a number, or spaced after, is no minus
            ("2-3", "kaks kuni kolm"),
            ("5 - 3", "viis - kolm"),
            ("e-post", "e-post"),
            ("A-rühm", "A-rühm"),
            ("- 5 õuna", "- viis õuna"),
            ("x-5", "iks-viis"),
            ("--5", "--viis"),
            # nor is an en dash in a range or spaced after
            ("5–7", "viis kuni seitse"),
            ("10–12 minutit", "kümme kuni kaksteist minutit"),
            ("3.–5. klass", "kolmas kuni viies klass"),
            ("– 5 õuna", "– viis õuna"),
        ],
    )
    def test_minus_sign(self, config, text, expected):
        assert verbalize(text, config) == expected

    def test_minus_is_read_through_the_symbol_table(self, config):
        table = dict(config.symbols)
        del table["−"]
        unlisted = config.replace(symbols=table)
        assert verbalize("-5 kraadi", unlisted) == "-viis kraadi"
        assert verbalize("–5 kraadi", unlisted) == "–viis kraadi"
        table["−"] = "MINUS"
        assert verbalize("-5 ja −5", config.replace(symbols=table)) == "MINUS viis ja MINUS viis"

    @pytest.mark.parametrize(
        "text, expected",
        [
            (".5 liitrit", "null koma viis liitrit"),
            (",5 liitrit", "null koma viis liitrit"),
            ("(.25)", "(null koma kakskümmend viis)"),
            (".125", "null koma üks kaks viis"),  # a long fraction digit by digit
            # a dot joined to a word or a number, or in a run of marks, is no decimal mark
            ("x.5", "iks.viis"),
            ("1.5", "üks koma viis"),
            ("v1.2.3", "vee üks punkt kaks koma kolm"),
            ("…5", "…viis"),
            ("...5", "...viis"),
            (".5-7", ".viis kuni seitse"),  # the range keeps its number
        ],
    )
    def test_leading_dot_decimal(self, config, text, expected):
        assert verbalize(text, config) == expected

    # Each input below reads differently if a rule of the table moves ahead
    # of, or loses, the rule that must win on it.
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("X-kiired", "X-kiired"),  # the letter compound before the Roman rule
            ("V-klass", "V-klass"),
            ("Kooli V-klass", "Kooli V-klass"),  # a Roman cue on the left does not break a compound
            ("A-rühm", "A-rühm"),  # the letter compound before the uppercase rule
            ("5.-7. mail", "viies kuni seitsmes mail"),  # the range before the ordinal rule
            ("3.–5. klass", "kolmas kuni viies klass"),
        ],
    )
    def test_rule_order(self, config, text, expected):
        assert verbalize(text, config) == expected

    def test_uppercase_and_lowercase_entries_share_one_policy(self, config):
        expansions = (Expansion("esimene", ("maks",), 1.0), Expansion("teine", (), 2.0))
        table = {surface: AbbreviationEntry(surface, expansions) for surface in ("KM", "xy")}
        custom = config.replace(abbreviations=table)
        for surface in ("KM", "xy"):
            assert verbalize(surface, custom) == "teine"  # by weight, not by listing order
            assert verbalize(f"{surface} maks", custom) == "esimene maks"  # by the line's words

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


class TestJoin:
    """The spacing ``_join`` puts between readings, pinned where a
    rewritten or dropped reading meets the ends of the line or a mark."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("  5  ", "  viis"),  # leading whitespace is kept, trailing is dropped after a rewrite
            ("tere 5\t", "tere viis"),
            ("¤ tere", "tere"),  # an unlisted symbol is dropped at the start, middle or end
            ("tere ¤ tere", "tere tere"),
            ("tere ¤", "tere "),
            ("(¤)", "()"),  # and between marks
            ("tere ¤.", "tere."),
        ],
    )
    def test_rewritten_and_dropped_readings(self, config, text, expected):
        assert verbalize(text, config) == expected == full_path(text, config)


class TestPassThrough:
    def test_gate_covers_every_rule_a_plain_line_reaches(self):
        # the gate is derived for these rules only: a rule added to either
        # kind (or a kind a plain line can now tokenize to) needs it revisited
        assert _RULES[TokenKind.WORD] == (_letter_compound, _abbreviation, _lone_letter)
        assert _RULES[TokenKind.PUNCT] == (_mark_at_number,)

    @pytest.mark.parametrize(
        "text",
        ["ptk", "spp", "tv", "iPhone", "eCoop", "Tallinn.ee", "linnas.EE", "Y", "e-post", "Dr", "KM", "Łukasz"],
    )
    def test_rule_shapes_take_the_full_path(self, config, text):
        for line in (text, f"Ta ütles {text} eile.", f"«{text}», vastas ta!"):
            assert not passes(fold_diacritics(line, config.folding), config), line
            assert verbalize(line, config) == full_path(line, config)

    def test_plain_lines_pass(self, config):
        for line in ("Tere, maailm!  Kõik on hästi.", "Žürii arutas «tšeki» üle – jälle…", "Café on Ärge-tänaval."):
            folded = fold_diacritics(line, config.folding)
            assert passes(folded, config), line
            assert verbalize(line, config) == folded == full_path(line, config)

    @pytest.mark.parametrize(
        "line",
        [
            "„Tere“, ütles ta.",
            "Ta ütles: „Jah.“",
            "Ta ütles: „Jah, ma tulen homme õhtul koju.“ Ema noogutas vaikselt.",
            "‚Tere‘, ütles ta.",
        ],
    )
    def test_estonian_quotes_are_kept(self, config, line):
        # the opening quotes „ and ‚ are marks: a line of words and these
        # quotes passes the gate and is read as written
        assert passes(fold_diacritics(line, config.folding), config)
        assert verbalize(line, config) == line == full_path(line, config)

    def test_abbreviation_table_moves_a_line_across_the_gate(self, config, tmp_path):
        table = tmp_path / "abbreviations.tsv"
        table.write_text("eile\teelmisel päeval\n", encoding="utf-8")
        custom = load_config(abbreviations_path=table)
        line = "Ta tuli eile koju. Eile sadas."
        assert passes(line, config)
        assert verbalize(line, config) == line
        assert not passes(line, custom)
        assert verbalize(line, custom) == "Ta tuli eelmisel päeval koju. eelmisel päeval sadas."

    def test_long_line_is_decided_to_its_end(self, config):
        line = "Tere, maailm! " * 5000
        tracemalloc.start()
        try:
            assert passes(line, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak  # the regex engine's backtracking stack stays small
        for word in ("ca", "Prof", "x", "krt", "EE", "err.ee", "7"):
            assert not passes(line + word, config), word
            assert not passes(line + word + " " + line, config), word

    @pytest.mark.parametrize(
        "text",
        ["", " ", "\t", "  \t \n", "\xa0", "\u2028", "  Tere ", "\tTere,\u2028maailm!\xa0 ", "Tere\t\tkõik", "\u3000õun\u2003"],
    )
    def test_whitespace_is_kept_byte_exact(self, config, text):
        folded = fold_diacritics(text, config.folding)
        assert passes(folded, config)
        assert verbalize(text, config) == text == detokenize(tokenize(folded)) == full_path(text, config)


class TestCut:
    """A refused line is tokenized from the chunk where the plain prefix
    stops, and the text before that is copied as it is, into one PLAIN
    token. At a word that starts a chunk, the plain run from there is
    copied too, up to the chunk where the grammar stops again. The chunk
    before a stop is kept where a rule reads it, and no copy starts right
    after a chunk that ``_roman`` reads from."""

    def cut_at(self, text, config, expected_cut, expected):
        assert cut_of(copy_path(text, config)[1]) == expected_cut
        assert verbalize(text, config) == expected == full_path(text, config)

    def skipped(self, text, config):
        """The runs ``verbalize`` copies after the cut: the text of each
        PLAIN token after the first token, with the whole-line tokens
        checked against the other ones it keeps."""
        line, tokens = copy_path(text, config)
        assert detokenize(tokens) == line
        whole = {token.span: token for token in tokenize(line)}
        runs = []
        for index, token in enumerate(tokens):
            if token.kind is not TokenKind.PLAIN:
                assert whole[token.span] == token
            elif index:
                runs.append(token.text)
        return runs

    @pytest.mark.parametrize(
        "text, expected",
        [
            # the keywords "summa" and "sõitis" are in the skipped prefix only
            ("Arve summa oli suur ja kogu 5 km.", "Arve summa oli suur ja kogu viis käibemaks."),
            ("Ta sõitis eile kiiresti ja kogu 5 km.", "Ta sõitis eile kiiresti ja kogu viis kilomeetrit."),
        ],
    )
    def test_expansion_reads_the_skipped_prefix(self, config, text, expected):
        self.cut_at(text, config, text.index("5"), expected)

    def test_roman_left_cue_is_in_the_context_chunk(self, config):
        text = "Rootsit valitses kuningas Karl XII."
        self.cut_at(text, config, text.index("Karl"), "Rootsit valitses kuningas Karl kaheteistkümnes.")

    def test_stop_in_the_first_chunk(self, config):
        self.cut_at("x 5", config, 0, "iks viis")
        self.cut_at("  x 5", config, 0, "  iks viis")

    def test_stop_in_the_middle_of_a_chunk(self, config):
        self.cut_at("tere,tere,5", config, 0, "tere,tere,viis")
        # the marks joined before the stop are read with the number
        self.cut_at("Ta jõi .5 liitrit", config, 3, "Ta jõi null koma viis liitrit")
        self.cut_at("Külma oli eile (-5) kraadi", config, 10, "Külma oli eile (miinus viis) kraadi")

    @pytest.mark.parametrize("space", ["\t", "\xa0", "\u2028"])
    def test_whitespace_between_chunks(self, config, space):
        # kept in the prefix, spoken as a space next to a rewritten token
        text = f"Ta{space}jõi{space}5{space}liitrit."
        self.cut_at(text, config, 7, f"Ta{space}jõi viis liitrit.")

    def test_spans_after_a_non_ascii_prefix(self, config):
        text = "Žürii arutas öösel «tšeki» üle, 5 km"
        rest, whole = copy_path(text, config)[1], tokenize(text)
        assert cut_of(rest) == text.index("5")
        assert rest[0].text == text[: text.index(" 5")]
        assert rest[1:] == whole[-len(rest) + 1 :]  # text, kind, character span and whitespace
        assert detokenize(rest) == text

    def test_expansion_reads_a_skipped_run(self, config):
        # the keyword "summa" is only in the run copied after the cut
        text = "Kogu 5 km oli see nii ja hiljem summa."
        self.cut_at(text, config, text.index("5"), "Kogu viis käibemaks oli see nii ja hiljem summa.")
        assert self.skipped(text, config) == ["oli see nii ja hiljem summa."]

    @pytest.mark.parametrize(
        "text, expected, run",
        [
            # the dot cue, the left cue and the spaced ratio read the chunk beside a skipped run
            ("XIX. sajandil oli see nii ja nii 5", "üheksateistkümnes sajandil oli see nii ja nii viis", "oli see nii ja nii"),
            ("Karl XII oli see kuningas ja nii 5", "Karl kaheteistkümnes oli see kuningas ja nii viis", "see kuningas ja nii"),
            ("10 : 20 on see ja teine 5", "kümme koolon kakskümmend on see ja teine viis", "on see ja teine"),
        ],
    )
    def test_context_beside_a_skipped_run(self, config, text, expected, run):
        self.cut_at(text, config, 0, expected)
        assert self.skipped(text, config) == [run]

    @pytest.mark.parametrize(
        "text, kept",
        [
            ("Karl XII oli see nii 5", "Karl"),  # _roman's left cue
            ("Kuningas oli Karl XII oli see nii 5", "Karl"),  # the same, before a stop chunk led by a Roman letter
            ("XII. sajandil oli see nii 5", "sajandil"),  # its dot cue: no copy right after "XII."
            ("XX Tere oli see nii 5", "Tere"),  # its right cue: no copy right after "XX"
            ("10 : 20 on see ja nii 5", ":"),  # the spaced ratio's colon: no copy starts at a mark
            (", ½12 ja nii 5", ","),  # a mark before a dropped symbol, which glues it to "kaksteist"
            ("Tere, ½12 ja nii 5", "Tere,"),  # the same, before a stop chunk led by the symbol
        ],
    )
    def test_keep_rules(self, config, text, kept):
        assert verbalize(text, config) == full_path(text, config)
        line, tokens = copy_path(text, config)
        start = line.index(kept)
        chunk = [token for token in tokens if start <= token.span[0] < start + len(kept)]
        assert chunk and chunk == [token for token in tokenize(line) if start <= token.span[0] < start + len(kept)]
        assert TokenKind.PLAIN not in {token.kind for token in chunk}

    def test_spans_after_a_non_ascii_skipped_run(self, config):
        text = "MTÜ-le õue ja　öösel «tšeki» üle jälle ning 5 km"
        assert self.skipped(text, config) == ["õue ja　öösel «tšeki» üle jälle ning"]
        assert verbalize(text, config) == full_path(text, config)

    def test_run_longer_than_the_grammar_bound(self, config):
        # 3,000 words are 6,000 pieces of the grammar, read in one match
        text = "5 " + "tere " * 3000 + "5"
        assert self.skipped(text, config) == ["tere " * 2999 + "tere"]  # every word between the numbers
        assert verbalize(text, config) == "viis " + "tere " * 3000 + "viis" == full_path(text, config)

    def test_grammar_reads_nothing_behind_its_start(self, config, tmp_path):
        # a run is skipped after a read that starts at a chunk in the middle
        # of a line; it reads as a reading from the start of the line would
        # only while the grammar reads nothing behind its start: no
        # lookbehind, "(?<=" or "(?<!" (re.escape writes the "?" of a
        # surface such as "(?<=x" as "\?")
        table = tmp_path / "abbreviations.tsv"
        table.write_text("eile\teelmisel päeval\nKarl\tkuningas\n(?<=x\tmärk\n", encoding="utf-8")
        for configured in (config, load_config(abbreviations_path=table)):
            pattern = configured.plain_line_re.pattern
            assert "(?<=" not in pattern and "(?<!" not in pattern

    def test_every_line_of_five_chunks(self, config):
        # "ja" is a plain word, "Karl" is the left cue of the Roman numeral
        # "XII", ":" and "10" make a spaced ratio, "km" has two expansions
        # and "summa" is a keyword that flips it, and "Zoë" folds, so the
        # tokenizer reads the folded line afresh. Three chunks are the
        # fewest that copy a run ("10 ja ja"), and four the fewest where a
        # kept chunk and a stop follow one ("10 ja ja XII")
        chunks = ("ja", "Karl", "summa", ":", "XII", "10", "km", "Zoë")
        prefixes = runs = 0
        for parts in itertools.product(chunks, repeat=5):
            text = " ".join(parts)
            assert verbalize(text, config) == full_path(text, config), text
            line, tokens = copy_path(text, config)
            assert detokenize(tokens) == line, text
            prefixes += bool(cut_of(tokens))
            runs += any(token.kind is TokenKind.PLAIN for token in tokens[1:])
        assert (prefixes, runs) == (14795, 10060)  # lines that copy a prefix, and a run

    def test_lone_surrogate(self, config):
        assert verbalize("\udcff", config) == ""
        assert verbalize("5 \udcff km", config) == "viis kilomeetrit"


class TestRawLineGate:
    """The gate matches the raw line, and its words hold only letters that
    folding keeps. A line it refuses is folded, and the tokenizer reads the
    grammar on the folded line from its start."""

    def read(self, text, config, expected_cut, expected):
        assert not passes(text, config)
        assert cut_of(copy_path(text, config)[1]) == expected_cut
        assert verbalize(text, config) == expected == full_path(text, config)

    def test_no_letter_protected(self, config):
        self.read("Tere, õun!", config.replace(folding=FoldingTable(frozenset())), None, "Tere, oun!")

    def test_lowercase_letters_protected(self, config):
        lowercase = config.replace(folding=FoldingTable(frozenset("õäöüšž")))
        self.read("Õun ja kohv", lowercase, None, "Oun ja kohv")
        self.read("Õun maksis 5 eurot", lowercase, 11, "Oun maksis viis eurot")

    def test_bundled_folding(self, config):
        self.read("Näitleja François saabus Tallinna.", config, None, "Näitleja Francois saabus Tallinna.")
        self.read("Émile ostis 5 kg.", config, 12, "Emile ostis viis kilogrammi.")


@pytest.mark.parametrize("unit, count", [("½", 20000), ("b½", 10000)])
def test_one_character_tokens_in_linear_time(config, unit, count):
    # each "½" is a token of its own; a word try that scanned the rest of the
    # run for a vowel would make the line quadratic (about 10 s for these)
    started = time.perf_counter()
    verbalize(unit * count, config)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"{elapsed:.2f}s for {unit!r} * {count}"


def table_lines():
    """The text of every parametrized case in this module."""
    tests = list(globals().values())
    tests += [member for cls in tests if isinstance(cls, type) for member in vars(cls).values()]
    for test in tests:
        for mark in getattr(test, "pytestmark", ()):
            if mark.name == "parametrize" and mark.args[0].split(",")[0] == "text":
                for case in mark.args[1]:
                    values = getattr(case, "values", case)  # a pytest.param or a plain case
                    yield values if isinstance(values, str) else values[0]


def test_every_rule_fires(config, gold_corpus, monkeypatch):
    """Each rule of each kind rewrites at least one gold line or table line."""
    fired = set()

    def counting(kind, rule):
        def wrapped(tokens, i, config, *args):
            hit = rule(tokens, i, config, *args)
            if hit is not None:
                fired.add((kind, rule))
            return hit

        return wrapped

    rules = dict(_RULES)
    for kind, kind_rules in rules.items():
        monkeypatch.setitem(_RULES, kind, tuple(counting(kind, rule) for rule in kind_rules))
    lines = [record.raw for record in gold_corpus] + list(table_lines())
    assert "XIX-XX sajand" in lines  # the tables were found
    for line in lines:
        verbalize(line, config)
    idle = [f"{kind.name} {rule.__name__}" for kind, kind_rules in rules.items() for rule in kind_rules
            if (kind, rule) not in fired]
    assert not idle, f"rules that never fired: {', '.join(idle)}"
