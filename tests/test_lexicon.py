from dataclasses import replace
from pathlib import Path

import pytest

from etnorm import numwords, textfiles
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

    def test_default_thresholds(self, config):
        assert config.title_min_length == 6
        assert config.digit_group_threshold == 7

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

    def test_threshold_floors(self, config):
        with pytest.raises(ConfigError):
            replace(config, title_min_length=3)
        for value in (4, 5, 6):  # runs of 5-6 digits are cardinals, so these read as 7
            with pytest.raises(ConfigError):
                replace(config, digit_group_threshold=value)

    def test_letter_name_must_not_be_empty(self, config):
        with pytest.raises(ConfigError, match="empty letter name for 'A'"):
            replace(config, letter_names={**config.letter_names, "A": ""})

    # each change once let a digit through: "5% A" read "viis sada 5 aa",
    # "A" read "a1", "5,5" read "viis k0ma viis" and "xx" read "x2"
    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda c: {"symbols": {**c.symbols, "%": "sada 5"}}, "symbols '%' is read 'sada 5'"),
            (lambda c: {"letter_names": {**c.letter_names, "A": "a1"}}, "letter_names 'A' is read 'a1'"),
            (
                lambda c: {"numbers": replace(c.numbers, words={**c.numbers.words, "decimal.separator": "k0ma"})},
                "numbers 'decimal.separator'",
            ),
            (lambda c: {"abbreviations": {"xx": AbbreviationEntry("xx", (Expansion("x2"),))}}, "abbreviations 'xx'"),
        ],
    )
    def test_spoken_values_hold_no_digit(self, config, change, message):
        with pytest.raises(ConfigError, match=f"^{message}.*holds a digit"):
            replace(config, **change(config))

    def test_bundled_config_loads(self):
        assert load_config() == default_config()

    @pytest.mark.parametrize("value", [6.0, 4.5, True, "6", None])
    @pytest.mark.parametrize("option", ["title_min_length", "digit_group_threshold"])
    def test_thresholds_must_be_integers(self, config, option, value):
        with pytest.raises(ConfigError, match=f"{option} must be an integer"):
            replace(config, **{option: value})


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
        [("xx\n", "expected at least surface<TAB>expansion"), (" \tmidagi\n", "empty surface")],
        ids=["one_column", "empty_surface"],
    )
    def test_malformed_line_reported(self, tmp_path, line, message):
        path = tmp_path / "abbr.tsv"
        path.write_text("ok\tkorras\n" + line, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"abbr.tsv:2: {message}"):
            load_abbreviations(path)

    def test_bad_weight_reported(self, tmp_path):
        path = tmp_path / "abbr.tsv"
        path.write_text("xx\tmidagi\t\tpalju\t\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="abbr.tsv:1"):
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
