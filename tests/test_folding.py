import random

import pytest

from etnorm import folding
from etnorm.folding import DEFAULT_PROTECTED, FoldingTable, fold_diacritics


def test_fold_examples():
    assert fold_diacritics("café") == "cafe"
    assert fold_diacritics("Piñata") == "Pinata"
    assert fold_diacritics("François") == "Francois"


def test_protected_estonian_letters_untouched():
    assert fold_diacritics("šõõr žürii") == "šõõr žürii"
    assert fold_diacritics("ÕÄÖÜŠŽ õäöüšž") == "ÕÄÖÜŠŽ õäöüšž"


def test_length_preserved():
    for text in ("café", "Piñata", "naïve Çelik ångström", "abc 123 !?"):
        assert len(fold_diacritics(text)) == len(text)


def test_non_letters_unchanged():
    assert fold_diacritics("12,5% – (tere)") == "12,5% – (tere)"


def test_idempotent_on_random_strings():
    rng = random.Random(0xE571)
    pool = "aáàâäbcçdeéêëfghiíîïjklmnñoóôöpqrsšßtuúûüvwxyzžõÕÄÖÜŠŽ АБвгдα你好 .,!?123"
    for _ in range(500):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 40)))
        once = fold_diacritics(text)
        assert fold_diacritics(once) == once


def test_idempotent_on_arbitrary_codepoints():
    rng = random.Random(20260810)
    for _ in range(500):
        chars = []
        for _ in range(rng.randrange(0, 30)):
            cp = rng.randrange(0x20, 0x2FFF)
            if 0xD800 <= cp <= 0xDFFF:
                cp = 0x20
            chars.append(chr(cp))
        text = "".join(chars)
        once = fold_diacritics(text)
        assert fold_diacritics(once) == once
        assert len(once) == len(text)


def test_translate_matches_per_char_fold(tmp_path):
    # three tables in one process, used in turn: each keeps its own map;
    # the last protects a mark, which folds to itself either way
    path = tmp_path / "protected.txt"
    path.write_text("".join(ch + "\n" for ch in sorted(DEFAULT_PROTECTED - {"õ"})), encoding="utf-8")
    tables = (FoldingTable(), FoldingTable.from_protected_file(path), FoldingTable(DEFAULT_PROTECTED | {"–"}))
    accented = "õäöüšžÕÄÖÜŠŽáàâãåçéèêëíìîïñóòôøúùûýÿÁÀÂÃÅÇÉÈÊËÍÎÏÑÓÒÔØÚÙÛÝ"
    rng = random.Random(0xF01D)
    for _ in range(400):
        text = "".join(
            rng.choice(accented) if rng.random() < 0.4 else chr(rng.randrange(0x10000))
            for _ in range(rng.randrange(0, 40))
        )
        # foldable letters at both ends, and far apart: only the stretch between them is translated
        far = rng.choice(accented) + "tere – «x» " * rng.randrange(0, 200) + text + rng.choice(accented)
        for line in (text, far):
            for table in tables:
                assert fold_diacritics(line, table) == "".join(table.fold_char(ch) for ch in line)
            assert fold_diacritics(line) == fold_diacritics(line, tables[0])
    assert fold_diacritics("õ", tables[0]) == "õ"
    assert fold_diacritics("õ", tables[1]) == "o"


def test_marks_never_trigger_folding(monkeypatch):
    consulted = []
    monkeypatch.setattr(FoldingTable, "fold_char", lambda self, ch: consulted.append(ch) or ch)
    table = FoldingTable()  # a fresh map, filled through the patched method
    assert fold_diacritics("Žürii – «tšekk»…", table) == "Žürii – «tšekk»…"
    assert consulted == []
    fold_diacritics("é", table)
    assert consulted == ["é"]


def test_protected_override_file(tmp_path):
    path = tmp_path / "protected.txt"
    path.write_text("# only n-tilde stays\nñ\n", encoding="utf-8")
    table = FoldingTable.from_protected_file(path)
    assert fold_diacritics("ñä", table) == "ña"


def test_override_file_rejects_multichar_lines(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("ab\n", encoding="utf-8")
    with pytest.raises(ValueError, match="broken.txt:1"):
        FoldingTable.from_protected_file(path)


def test_default_protected_set_contents():
    assert "õ" in DEFAULT_PROTECTED
    assert "Ž" in DEFAULT_PROTECTED
    assert "é" not in DEFAULT_PROTECTED


def test_default_table_folds_a_character_once(monkeypatch):
    assert fold_diacritics("ŭ") == "u"
    calls = []
    monkeypatch.setattr(folding, "_base_letter", lambda ch: calls.append(ch) or ch)
    assert fold_diacritics("ŭ") == "u"
    assert calls == []


def test_table_protecting_nothing_folds_an_estonian_letter_in_ascii_text():
    assert fold_diacritics("Tere, õun!", FoldingTable(frozenset())) == "Tere, oun!"
