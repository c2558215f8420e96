import copy
import re
import sys
from pathlib import Path

import pytest

from etnorm import FoldingTable, Token, TokenKind, numwords, scoring, stats, textfiles, verbalize
from etnorm.lexicon import (
    AbbreviationEntry,
    ConfigError,
    Expansion,
    default_config,
    load_abbreviations,
    load_config,
    load_letter_names,
    load_symbols,
)


class TestDefaults:
    def test_letter_names_cover_estonian_alphabet(self, config):
        for letter in "ABCDEFGHIJKLMNOPQRSTUVWXYZÕÄÖÜŠŽ":
            assert letter in config.letter_names
            assert config.letter_names[letter]

    def test_stoplist_covers_common_collisions(self, config):
        # letter runs that are never a Roman numeral are dictionary entries flagged spellout
        assert all(config.abbreviations[surface].force_spellout for surface in ("MM", "CV", "DVD"))

    def test_spoken_acronyms_include_nato(self, config):
        assert config.abbreviations["NATO"].speak_as_word

    def test_km_entry_has_two_weighted_expansions(self, config):
        entry = config.abbreviations["km"]
        assert len(entry.expansions) == 2
        assert all(e.weight > 0 for e in entry.expansions)

    def test_config_is_cached(self):
        assert default_config() is default_config()

    def test_every_bundled_data_file_is_read(self, monkeypatch):
        # no data file lies unread, and none that is read is missing; the
        # gold corpus is read by the scorer, not by the config
        opened = []
        open_text = textfiles.open_text

        def recording(path, *args):
            opened.append(Path(path))
            return open_text(path, *args)

        monkeypatch.setattr(textfiles, "open_text", recording)
        numwords.default_lexicon.cache_clear()  # so the number lexicon is read again
        load_config()
        data = Path(textfiles.__file__).with_name("data")
        assert all(path.is_file() for path in opened), opened
        assert {path.parent for path in opened} == {data}
        bundled = {path.name for path in data.iterdir() if path.is_file() and path.name != "gold_corpus.jsonl"}
        assert sorted(path.name for path in opened) == sorted(bundled)


class TestValidation:
    def test_entry_needs_expansion_or_flag(self):
        with pytest.raises(ConfigError):
            AbbreviationEntry("xx")

    def test_weight_must_be_positive(self):
        for weight in (0.0, float("nan")):  # a data file's "nan" parses to NaN
            with pytest.raises(ConfigError):
                AbbreviationEntry("xx", (Expansion("midagi", (), weight),))

    def test_letter_name_must_not_be_empty(self, config):
        with pytest.raises(ConfigError, match="empty letter name for 'A'"):
            config.replace(letter_names={**config.letter_names, "A": ""})

    # each change once let a digit through: "5% A" read "viis sada 5 aa",
    # "A" read "a1", "5,5" read "viis k0ma viis" and "xx" read "x2"
    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda c: {"symbols": {**c.symbols, "%": "sada 5"}}, "symbols '%' is read 'sada 5'"),
            (lambda c: {"letter_names": {**c.letter_names, "A": "a1"}}, "letter_names 'A' is read 'a1'"),
            (
                lambda c: {"numbers": c.numbers.replace(words={**c.numbers.words, "decimal.separator": "k0ma"})},
                "numbers 'decimal.separator'",
            ),
            (lambda c: {"abbreviations": {"xx": AbbreviationEntry("xx", (Expansion("x2"),))}}, "abbreviations 'xx'"),
        ],
    )
    def test_spoken_values_hold_no_digit(self, config, change, message):
        with pytest.raises(ConfigError, match=f"^{message}.*holds a digit"):
            config.replace(**change(config))

    # a word that is no string once passed validation and raised in verbalize:
    # "expected string or bytes-like object"
    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda c: {"letter_names": {**c.letter_names, "A": None}}, "letter_names 'A' is read None"),
            (lambda c: {"symbols": {**c.symbols, "%": 5}}, "symbols '%' is read 5"),
            (lambda c: {"abbreviations": {"xx": AbbreviationEntry("xx", (Expansion(None),))}}, "abbreviations 'xx'"),
        ],
    )
    def test_spoken_values_are_strings(self, config, change, message):
        with pytest.raises(ConfigError, match=f"^{message}.*which is not a string"):
            config.replace(**change(config))

    def test_bundled_config_loads(self):
        assert load_config() == default_config()


class TestFileParsing:
    def test_duplicate_surfaces_merge_in_order(self, tmp_path):
        path = tmp_path / "abbr.tsv"
        path.write_text(
            "aa\tesimene valik\t\t2.0\t\naa\tteine valik\t\t1.0\t\n", encoding="utf-8"
        )
        entries = load_abbreviations(path)
        assert [e.text for e in entries["aa"].expansions] == ["esimene valik", "teine valik"]

    def test_flags_parse(self, tmp_path):
        path = tmp_path / "abbr.tsv"
        path.write_text("nato\t\t\t\tword\nspp\t\t\t\tspellout\n", encoding="utf-8")
        entries = load_abbreviations(path)
        assert entries["nato"].speak_as_word
        assert entries["spp"].force_spellout

    def test_unknown_flag_reported_with_line(self, tmp_path):
        path = tmp_path / "abbr.tsv"
        path.write_text("xx\tmidagi\t\t1.0\tshout\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="abbr.tsv:1"):
            load_abbreviations(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("xx\n", "expected at least surface<TAB>expansion"),
            (" \tmidagi\n", "empty surface"),
            ("xx\tmidagi\t\t1.0\tword\tx\n", "expected at most 5 fields, got 6"),
            ("xx\tmidagi\t\t0\t\n", "abbreviation 'xx': weight must be a number above 0, got '0'"),
            ("xx\tmidagi\t\tnan\t\n", "abbreviation 'xx': weight must be a number above 0, got 'nan'"),
            ("xx\tmidagi\t\t-1\t\n", "abbreviation 'xx': weight must be a number above 0, got '-1'"),
            ("xx\tmidagi\t\t1_5\t\n", "abbreviation 'xx': weight must be a number above 0, got '1_5'"),
            ("xx\tmidagi\t\t\u0662\t\n", "abbreviation 'xx': weight must be a number above 0, got '\u0662'"),
            ("xx\t\tsõitis\t\tword\n", "abbreviation 'xx': keywords or a weight without an expansion"),
            ("xx\t\t\tabc\tword\n", "abbreviation 'xx': keywords or a weight without an expansion"),
            ("xx\t\tsõitis\t1.5\t\n", "abbreviation 'xx': keywords or a weight without an expansion"),
            ("xx\t\t\t\t\n", "abbreviation 'xx' has no expansion and no flag"),
        ],
        ids=[
            "one_column", "empty_surface", "six_fields", "zero_weight", "nan_weight", "negative_weight",
            "underscored_weight", "other_script_weight",
            "keywords_without_expansion", "weight_without_expansion", "no_expansion_with_keywords",
            "no_expansion_no_flag",
        ],
    )
    def test_malformed_line_reported(self, tmp_path, line, message):
        path = tmp_path / "abbr.tsv"
        path.write_text("ok\tkorras\n" + line, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"abbr.tsv:2: {message}"):
            load_abbreviations(path)

    def test_bad_weight_reported(self, tmp_path):
        path = tmp_path / "abbr.tsv"
        path.write_text("xx\tmidagi\t\tpalju\t\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="abbr.tsv:1: abbreviation 'xx': weight must be a number above 0"):
            load_abbreviations(path)

    def test_letter_names_require_two_columns(self, tmp_path):
        path = tmp_path / "letters.txt"
        path.write_text("A aa\n", encoding="utf-8")  # space instead of tab
        with pytest.raises(ConfigError, match="letters.txt:1"):
            load_letter_names(path)

    def test_symbols_file(self, tmp_path):
        path = tmp_path / "symbols.txt"
        path.write_text("%\tprotsenti\n", encoding="utf-8")
        assert load_symbols(path) == {"%": "protsenti"}

    @pytest.mark.parametrize(
        "load, line",
        [(load_letter_names, "A\taa\nAB\tzz\n"), (load_symbols, "%\tprotsenti\n->\tnool\n")],
        ids=["letter_names", "symbols"],
    )
    def test_pair_key_of_more_than_one_character_rejected(self, tmp_path, load, line):
        # every lookup in these tables is by one character, so "AB" could never be found
        path = tmp_path / "pairs.txt"
        path.write_text(line, encoding="utf-8")
        with pytest.raises(ConfigError, match="pairs.txt:2: expected one character before the tab"):
            load(path)

    @pytest.mark.parametrize("text, key", [("A\taa\nB\tbee\nA\tEKS\n", "A"), ("A\taa\nB\tbee\na\tEKS\n", "a")])
    def test_repeated_letter_rejected_at_its_line(self, tmp_path, text, key):
        # the table keys by uppercase, so a letter counts once in either case
        path = tmp_path / "letters.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: repeated key '{key}'$"):
            load_letter_names(path)

    def test_repeated_symbol_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "symbols.txt"
        path.write_text("%\tprotsenti\n# comment\n%\tprotsent\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: repeated key '%'$"):
            load_symbols(path)


def _records():
    config = default_config()
    entry = config.abbreviations["km"]
    return {
        "RuleConfig": config,
        "FoldingTable": config.folding,
        "NumberLexicon": config.numbers,
        "AbbreviationEntry": entry,
        "Expansion": entry.expansions[0],
        "Token": Token("km", TokenKind.WORD, (0, 2), " "),
        **_instrument_records(),
    }


def _instrument_records():
    span = scoring.AbbrevSpan("km", "word", ("kilomeetrit",))
    sentence = scoring.SentenceScore("a", False, "expected 'viis kilomeetrit', got 'viis km'")
    return {
        "AbbrevSpan": span,
        "GoldRecord": scoring.GoldRecord("a", "Ta sõitis 5 km.", "Ta sõitis viis kilomeetrit.", (span,), "uudis"),
        "SentenceScore": sentence,
        "ScoreReport": scoring.ScoreReport(1, 0, 0, 1, 0, (sentence,)),
        "RatingRecord": stats.RatingRecord("r1", "s1", "Mari", "HTS", "uudised", 4.5),
        "AnnotationRecord": stats.AnnotationRecord("a1", "s1", "Mari", frozenset({stats.ErrorCategory.VOLUME_PROBLEMS})),
        "LikertRecord": stats.LikertRecord("r1", "Mari", "uudis", 6),
        "MosResult": stats.MosResult("Mari", 2, 4.25, 0.49, "uudised"),
        "LikertSummary": stats.LikertSummary("Mari", "uudis", 2, 5.0, 1.41),
        "IccResult": stats.IccResult(0.8, 5.0, 3, 6, 0.03),
    }


class TestRecords:
    """Every etnorm record builds a changed copy with ``replace`` through
    its ``__init__``, as ``dataclasses.replace`` did."""

    @pytest.mark.parametrize("name", _records())
    def test_replace_with_no_change_is_equal(self, name):
        record = _records()[name]
        changed = record.replace()
        assert changed == record and changed is not record
        assert repr(changed) == repr(record) and repr(record).startswith(f"{name}(")

    @pytest.mark.parametrize("name", _records())
    def test_unknown_field_is_named(self, name):
        with pytest.raises(TypeError, match="'no_such_field'"):
            _records()[name].replace(no_such_field=1)

    @pytest.mark.parametrize("name", [name for name in _records() if name != "Token"])
    def test_frozen_fields_refuse_assignment(self, name):
        record = _records()[name]
        field = type(record)._fields[0]
        with pytest.raises(AttributeError, match=f"'{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"'{field}'"):
            delattr(record, field)

    def test_hash_is_over_the_fields(self):
        assert hash(FoldingTable(frozenset("õ"))) == hash(FoldingTable(frozenset("õ")))
        assert hash(_records()["ScoreReport"]) == hash(_records()["ScoreReport"])
        with pytest.raises(TypeError):  # its tables are dicts
            hash(default_config())
        with pytest.raises(TypeError):  # mutable
            hash(_records()["Token"])

    def test_token_is_mutable_and_slotted(self):
        token = _records()["Token"]
        token.ws_after = ""
        assert token.joined_right and token != _records()["Token"]
        assert not hasattr(token, "__dict__")

    def test_replace_checks_again(self, config):
        with pytest.raises(ConfigError, match="empty letter name"):
            config.replace(letter_names={"A": ""})
        with pytest.raises(ConfigError, match="weight must be > 0"):
            config.abbreviations["km"].replace(expansions=(Expansion("x", (), 0.0),))
        with pytest.raises(ValueError, match="empty gold text"):
            _records()["GoldRecord"].replace(gold="")

    def test_replace_derives_again(self, config):
        # the parent's gate pattern is built; the new config must build its own
        assert config.plain_line_re.match("Tere").end() == 4 and verbalize("Tere", config) == "Tere"
        entry = AbbreviationEntry("tere", (Expansion("tervist"),))
        changed = config.replace(abbreviations={**config.abbreviations, "tere": entry})
        assert changed.plain_line_re.match("Tere").end() == 0
        assert verbalize("Tere", changed) == "tervist"

    def test_defaults(self, config):
        bare = type(config)(config.letter_names, config.abbreviations, config.symbols, config.roman_context_stems)
        assert bare == config
        assert bare.folding is not type(config)(bare.letter_names, {}, {}, ()).folding  # a table per config
        assert bare.numbers is numwords.default_lexicon()

    @pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
    def test_copy_replace(self, config):
        assert copy.replace(config, symbols={}) == config.replace(symbols={})
