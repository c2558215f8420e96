"""The rule pipeline that rewrites text into fully spoken form.

Order of operations: fold diacritics, tokenize, rewrite token by token
(URLs/emails/phones, dates and times, ranges and ratios, Roman numerals,
acronyms with and without case endings, uppercase sequences, mixed-case
names, consonant clusters, dictionary abbreviations, numbers, audible
symbols), then reassemble. Sections the rules do not touch keep their
original spacing, so plain sentences pass through unchanged apart from
diacritic folding.
"""

from __future__ import annotations

import re
from enum import Enum

from . import numwords
from .folding import fold_diacritics
from .lexicon import AbbreviationEntry, RuleConfig, default_config
from .numwords import NOMINATIVE, cardinal, decimal, digits, ordinal
from .romans import roman_value
from .tokens import _ATTACHED_SUFFIX_RE, _LC, _UC, _VOWELS, CASE_SUFFIXES, Token, TokenKind, tokenize

_SEGMENT_RE = re.compile(rf"[{_UC}]+(?![{_LC}])|[{_UC}][{_LC}]+|[{_LC}]+|\d+|[^\W\d_]+")

_WORDISH_KINDS = frozenset(
    {
        TokenKind.WORD,
        TokenKind.UPPERCASE_SEQ,
        TokenKind.MIXED_CASE,
        TokenKind.LOWERCASE_CONSONANTS,
        TokenKind.CASE_SUFFIXED_ACRONYM,
        TokenKind.ROMAN_CANDIDATE,
    }
)
_NUMERIC_RANGE_KINDS = frozenset({TokenKind.CARDINAL_NUMBER, TokenKind.ORDINAL_DOT})


class UppercaseClass(Enum):
    TITLE = "title"
    SPOKEN_WORD = "spoken_word"
    SPELL_OUT = "spell_out"


def spell_letters(token: str, names: dict[str, str], case_suffix: str | None = None) -> str:
    """Spell a token letter by letter, names joined with hyphens.

    A case ending is glued straight onto the final letter name, the way a
    clitic ending attaches in writing ("MTÜ" + "le" -> "emm-tee-üüle").
    """
    if not token or not all(ch.isalpha() for ch in token):
        raise ValueError(f"spell_letters expects letters only, got {token!r}")
    parts = []
    for ch in token:
        name = names.get(ch.upper())
        if name is None:
            raise ValueError(f"no spoken name for letter {ch!r}")
        parts.append(name)
    if case_suffix:
        parts[-1] += case_suffix
    return "-".join(parts)


def classify_uppercase(token: str, config: RuleConfig) -> UppercaseClass:
    """Decide how an all-uppercase token is read.

    Long sequences are titles set in capitals, not abbreviations; a known
    word-like acronym is read as a word; everything else is spelled.
    """
    if len(token) >= config.title_min_length:
        return UppercaseClass.TITLE
    if token in config.spoken_acronyms:
        return UppercaseClass.SPOKEN_WORD
    return UppercaseClass.SPELL_OUT


def expand_abbreviation(token: str, sentence_context, dictionary) -> str:
    """Pick the expansion whose keywords best match the sentence.

    Score is weight * (1 + number of keywords present); ties go to the
    expansion listed first.
    """
    if isinstance(dictionary, dict):
        entry = dictionary.get(token) or dictionary.get(token.lower())
    else:
        entry = next(
            (e for e in dictionary if e.surface in (token, token.lower())),
            None,
        )
    if entry is None:
        raise KeyError(f"no abbreviation entry for {token!r}")
    words = _context_words(sentence_context)
    best_text = None
    best_score = float("-inf")
    for expansion in entry.expansions:
        hits = sum(1 for kw in expansion.keywords if kw in words)
        score = expansion.weight * (1 + hits)
        if score > best_score:
            best_score = score
            best_text = expansion.text
    if best_text is None:
        raise ValueError(f"abbreviation {token!r} has no expansions")
    return best_text


def _context_words(sentence_context) -> frozenset[str]:
    words = set()
    for item in sentence_context:
        text = item.text if isinstance(item, Token) else str(item)
        words.add(text.lower())
    return frozenset(words)


def expand_roman(
    token: str,
    left_context: Token | None,
    right_context: Token | None,
    config: RuleConfig,
) -> str | None:
    """Ordinal reading of a Roman numeral, or None when it must not get one.

    Requires strict well-formedness, absence from the stoplist, and a
    context cue: an ordinal dot, a neighbouring capitalized name, or an
    era/part keyword to the right.
    """
    value = roman_value(token)
    if value is None or token in config.roman_stoplist:
        return None
    if value > numwords.MAX_ORDINAL:
        return None
    cue = False
    if right_context is not None:
        if right_context.text == ".":
            cue = True
        elif right_context.kind in _WORDISH_KINDS:
            word = right_context.text.lower()
            if any(word.startswith(stem) for stem in config.roman_context_stems):
                cue = True
            elif right_context.text[:1].isupper() and right_context.kind == TokenKind.WORD:
                cue = True
    if not cue and left_context is not None and left_context.kind == TokenKind.WORD:
        if left_context.text[:1].isupper():
            cue = True
    if not cue:
        return None
    return ordinal(value, NOMINATIVE, config.numbers)


def verbalize_range(a: Token, dash: Token, b: Token, config: RuleConfig | None = None) -> str | None:
    """Read "a-b" between plain numbers as "a kuni b"; None when not a range."""
    config = config or default_config()
    if dash.text not in ("-", "–") or not a.joined_right or not dash.joined_right:
        return None
    if a.kind not in _NUMERIC_RANGE_KINDS or b.kind not in _NUMERIC_RANGE_KINDS:
        return None
    return f"{_range_operand(a, config)} kuni {_range_operand(b, config)}"


def _range_operand(token: Token, config: RuleConfig) -> str:
    if token.kind == TokenKind.ORDINAL_DOT:
        return _render_ordinal_dot(token.text, config)
    return _render_cardinal_text(token.text, config)


def verbalize_digit_sequence(token: str, config: RuleConfig | None = None) -> str:
    """Read a long digit sequence one digit at a time.

    Grouping separators become pauses (commas); a leading plus sign is
    spoken through the symbol table ("pluss").
    """
    config = config or default_config()
    rest = token
    prefix = ""
    if rest.startswith("+"):
        prefix = config.symbols.get("+", "pluss") + " "
        rest = rest[1:]
    groups = [g for g in re.split(r"[  .\-]+", rest) if g]
    if not groups or not all(g.isdigit() for g in groups):
        raise ValueError(f"expected digits with optional grouping, got {token!r}")
    spoken = ", ".join(digits(g, config.numbers) for g in groups)
    return prefix + spoken


def verbalize_mixed_case(token: str, config: RuleConfig | None = None) -> str:
    """Read a mixed-case or digit-bearing name segment by segment.

    Splits at lowercase-to-uppercase and letter-digit boundaries. Single
    letters and all-uppercase runs are spelled, digit runs become numbers,
    and word segments are lowercased (with the foreign letter c read as k);
    adjacent word segments merge back into one word.
    """
    config = config or default_config()
    if token.isalpha() and token.isupper():
        return _render_uppercase(token, config)
    rendered: list[tuple[str, str]] = []
    for segment in _SEGMENT_RE.findall(token):
        if segment.isdigit():
            rendered.append(("number", _render_cardinal_text(segment, config)))
        elif len(segment) == 1:
            rendered.append(("spell", _safe_spell(segment, config)))
        elif segment.isupper():
            rendered.append(("spell", _safe_spell(segment, config)))
        elif not any(ch in _VOWELS for ch in segment.lower()):
            rendered.append(("spell", _safe_spell(segment, config)))
        else:
            rendered.append(("word", segment.lower().replace("c", "k")))
    out = ""
    prev_kind = None
    for kind, text in rendered:
        if not out:
            out = text
        elif prev_kind == "word" and kind == "word":
            out += text
        elif prev_kind == "spell" and kind == "spell":
            out += "-" + text
        else:
            out += " " + text
        prev_kind = kind
    return out


def _safe_spell(token: str, config: RuleConfig, suffix: str | None = None) -> str:
    try:
        return spell_letters(token, config.letter_names, suffix)
    except ValueError:
        return token + (suffix or "")


def _render_uppercase(surface: str, config: RuleConfig, suffix: str | None = None) -> str:
    entry = config.abbreviations.get(surface)
    if entry is not None:
        if entry.force_spellout:
            return _safe_spell(surface, config, suffix)
        if entry.speak_as_word:
            return surface + (suffix or "")
        if entry.expansions and suffix is None:
            return entry.expansions[0].text
    cls = classify_uppercase(surface, config)
    if cls in (UppercaseClass.TITLE, UppercaseClass.SPOKEN_WORD):
        return surface + (suffix or "")
    return _safe_spell(surface, config, suffix)


def _render_cardinal_text(text: str, config: RuleConfig) -> str:
    # zero-led strings and numbers too large to name are read digit by digit
    if (text[0] == "0" and len(text) > 1) or int(text) > numwords.MAX_CARDINAL:
        return digits(text, config.numbers)
    return cardinal(int(text), NOMINATIVE, config.numbers)


def _render_ordinal_dot(text: str, config: RuleConfig) -> str:
    body = text[:-1]
    if body[0] == "0" and len(body) > 1:
        return digits(body, config.numbers)
    value = int(body)
    if 1 <= value <= numwords.MAX_ORDINAL:
        return ordinal(value, NOMINATIVE, config.numbers)
    return cardinal(value, NOMINATIVE, config.numbers)


def _render_date(text: str, config: RuleConfig) -> str:
    day, month, year = text.split(".")
    parts = []
    for raw, upper in ((day, 31), (month, 12)):
        value = int(raw)
        if 1 <= value <= upper:
            parts.append(ordinal(value, NOMINATIVE, config.numbers))
        else:
            parts.append(_render_cardinal_text(raw, config))
    parts.append(_render_cardinal_text(year, config))
    return " ".join(parts)


def _render_time(text: str, config: RuleConfig) -> str:
    word = "koolon"
    return f" {word} ".join(
        cardinal(int(part), NOMINATIVE, config.numbers) for part in text.split(":")
    )


def _render_grouped(text: str, config: RuleConfig) -> str:
    digits_only = re.sub(r"[  .]", "", text)
    if (
        len(digits_only) >= config.digit_group_threshold
        or digits_only[0] == "0"
        or int(digits_only) > numwords.MAX_CARDINAL
    ):
        return verbalize_digit_sequence(text, config)
    return cardinal(int(digits_only), NOMINATIVE, config.numbers)


def _render_url_body(text: str, config: RuleConfig) -> str:
    body = re.sub(r"^https?://", "", text)
    parts: list[str] = []
    for piece in re.findall(r"[^\W_]+|.", body):
        if piece == ".":
            parts.append("punkt")
        elif piece == "/":
            parts.append(config.symbols.get("/", "kaldkriips"))
        elif piece == "_":
            parts.append("alakriips")
        elif piece == "-":
            parts.append("sidekriips")
        elif len(piece) == 1 and not piece.isalnum():
            spoken = config.symbols.get(piece)
            if spoken:
                parts.append(spoken)
        elif piece.lower() == "www":
            parts.append("vee-vee-vee")
        elif piece.isdigit():
            parts.append(digits(piece, config.numbers))
        else:
            parts.append(verbalize_mixed_case(piece, config))
    return " ".join(p for p in parts if p)


def _render_email(text: str, config: RuleConfig) -> str:
    local, _, domain = text.partition("@")
    att = config.symbols.get("@", "ätt")
    return f"{_render_url_body(local, config)} {att} {_render_url_body(domain, config)}"


class _Piece:
    __slots__ = ("text", "modified", "first", "last", "is_punct")

    def __init__(self, text, modified, first, last, is_punct=False):
        self.text = text
        self.modified = modified
        self.first = first
        self.last = last
        self.is_punct = is_punct


def _is_letters(token: Token) -> bool:
    return token.kind in _WORDISH_KINDS and token.text.isalpha()


def _render_tokens(tokens, config: RuleConfig) -> list[_Piece]:
    sentence_words = _context_words(t for t in tokens if t.kind in _WORDISH_KINDS)
    pieces: list[_Piece] = []
    i = 0
    n = len(tokens)

    def unchanged(idx):
        pieces.append(_Piece(tokens[idx].text, False, idx, idx, tokens[idx].kind == TokenKind.PUNCT))

    def emit(text, first, last):
        pieces.append(_Piece(text, text != tokens[first].text or first != last, first, last))

    while i < n:
        t = tokens[i]

        # letter-hyphen compounds like "e-post" stay as written
        if (
            len(t.text) == 1
            and _is_letters(t)
            and t.joined_right
            and i + 2 < n
            and tokens[i + 1].text == "-"
            and tokens[i + 1].joined_right
            and _is_letters(tokens[i + 2])
            and len(tokens[i + 2].text) > 1
        ):
            unchanged(i)
            i += 1
            continue

        # number ranges written with a hyphen or en dash
        if t.kind in _NUMERIC_RANGE_KINDS and i + 2 < n:
            spoken = verbalize_range(t, tokens[i + 1], tokens[i + 2], config)
            if spoken is not None:
                emit(spoken, i, i + 2)
                i += 3
                continue

        # colon between numbers: ratio or division
        if (
            t.kind == TokenKind.CARDINAL_NUMBER
            and i + 2 < n
            and tokens[i + 1].text == ":"
            and tokens[i + 2].kind == TokenKind.CARDINAL_NUMBER
        ):
            spaced = not t.joined_right and not tokens[i + 1].joined_right
            joined = t.joined_right and tokens[i + 1].joined_right
            if spaced or joined:
                a, b = int(t.text), int(tokens[i + 2].text)
                word = "koolon" if spaced or (a <= 999 and b <= 999) else "jagatud"
                left = _render_cardinal_text(t.text, config)
                right = _render_cardinal_text(tokens[i + 2].text, config)
                emit(f"{left} {word} {right}", i, i + 2)
                i += 3
                continue

        if t.kind == TokenKind.ROMAN_CANDIDATE:
            left = tokens[i - 1] if i > 0 else None
            right = tokens[i + 1] if i + 1 < n else None
            dot_cue = (
                right is not None
                and right.text == "."
                and t.joined_right
                and i + 2 < n
                and tokens[i + 2].text[:1].islower()
            )
            spoken = expand_roman(t.text, left, right if dot_cue or right is None or right.text != "." else None, config)
            if spoken is not None:
                if dot_cue:
                    emit(spoken, i, i + 1)
                    i += 2
                else:
                    emit(spoken, i, i)
                    i += 1
                continue
            emit(_render_uppercase(t.text, config), i, i)
            i += 1
            continue

        if t.kind == TokenKind.CARDINAL_NUMBER:
            # attached case ending: 20ks / 2023-ks -> genitive stem + ending
            suffix = None
            last = i
            if i + 1 < n and t.joined_right:
                nxt = tokens[i + 1]
                if nxt.text in CASE_SUFFIXES and nxt.text.islower():
                    suffix, last = nxt.text, i + 1
                elif (
                    nxt.text == "-"
                    and nxt.joined_right
                    and i + 2 < n
                    and tokens[i + 2].text in CASE_SUFFIXES
                    and tokens[i + 2].text.islower()
                ):
                    suffix, last = tokens[i + 2].text, i + 2
            if suffix is not None and t.text[0] != "0":
                stem = cardinal(int(t.text), numwords.GENITIVE, config.numbers)
                head, _, tail = stem.rpartition(" ")
                joined = (head + " " if head else "") + tail + suffix
                emit(joined, i, last)
                i = last + 1
                continue
            emit(_render_cardinal_text(t.text, config), i, i)
            i += 1
            continue

        spoken = _render_single(t, config, sentence_words)
        if spoken is None:
            unchanged(i)
        else:
            emit(spoken, i, i)
        i += 1
    return pieces


def _render_single(t: Token, config: RuleConfig, sentence_words) -> str | None:
    """Spoken form of one context-free token; None means pass through."""
    kind = t.kind
    if kind == TokenKind.URL:
        return _render_url_body(t.text, config)
    if kind == TokenKind.EMAIL:
        return _render_email(t.text, config)
    if kind == TokenKind.PHONE:
        return verbalize_digit_sequence(t.text, config)
    if kind == TokenKind.DATE_LIKE:
        return _render_date(t.text, config)
    if kind == TokenKind.TIME_LIKE:
        return _render_time(t.text, config)
    if kind == TokenKind.DECIMAL_NUMBER:
        int_part, frac_part = re.split(r"[.,]", t.text, maxsplit=1)
        return decimal(int_part, frac_part, config.numbers)
    if kind == TokenKind.DIGIT_GROUP_SEQ:
        return _render_grouped(t.text, config)
    if kind == TokenKind.ORDINAL_DOT:
        return _render_ordinal_dot(t.text, config)
    if kind == TokenKind.CASE_SUFFIXED_ACRONYM:
        match = _ATTACHED_SUFFIX_RE.match(t.text)
        if match:
            stem, suffix = match.groups()
            rendered = _render_uppercase(stem, config, suffix)
            return None if rendered == t.text else rendered
        return None
    if kind == TokenKind.UPPERCASE_SEQ:
        rendered = _render_uppercase(t.text, config)
        return None if rendered == t.text else rendered
    if kind == TokenKind.MIXED_CASE:
        return verbalize_mixed_case(t.text, config)
    if kind in (TokenKind.LOWERCASE_CONSONANTS, TokenKind.WORD):
        entry = config.abbreviations.get(t.text) or config.abbreviations.get(t.text.lower())
        if entry is not None:
            if entry.force_spellout:
                return _safe_spell(t.text, config)
            if entry.speak_as_word:
                return None
            return expand_abbreviation(t.text, sentence_words, config.abbreviations)
        if kind == TokenKind.LOWERCASE_CONSONANTS:
            return _safe_spell(t.text, config)
        if len(t.text) == 1 and t.text.isalpha():
            return _safe_spell(t.text, config)
        return None
    if kind == TokenKind.SYMBOL:
        return config.symbols.get(t.text, "")
    return None  # PUNCT


def _join(tokens, pieces: list[_Piece]) -> str:
    out = [getattr(tokens, "leading", "")]
    prev: _Piece | None = None
    for piece in pieces:
        if piece.text == "":
            continue
        if prev is not None:
            gap = tokens[piece.first - 1].ws_after if piece.first > 0 else ""
            contiguous = prev.last == piece.first - 1
            if contiguous and not prev.modified and not piece.modified:
                sep = gap
            elif gap == "" and (piece.is_punct or prev.is_punct):
                sep = ""
            else:
                sep = " "
            out.append(sep)
        out.append(piece.text)
        prev = piece
    if prev is not None and not prev.modified:
        out.append(tokens[prev.last].ws_after)
    return "".join(out)


def verbalize(text: str, config: RuleConfig | None = None) -> str:
    """Rewrite ``text`` into fully spoken form under ``config``."""
    config = config or default_config()
    folded = fold_diacritics(text, config.folding)
    tokens = tokenize(folded)
    pieces = _render_tokens(tokens, config)
    return _join(tokens, pieces)
