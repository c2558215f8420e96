"""Tokenization of raw text into classified spans.

One left-to-right pass whose cost is linear in the length of the line.
URLs and e-mail addresses are found anchor-first: the line is scanned
once for the positions where one can start (``https://`` in any case or
``www.``, a run of domain labels with a top-level-domain dot still
ahead, a run of address characters that ends at ``@`` and a valid
domain), and their patterns are tried only there. Every other shape (phone numbers, dates,
times, decimals, grouped digits, ordinal dots, plain numbers, plain
words, acronyms with a case ending, letter runs, sentence punctuation,
symbols) is one named group of a master regex, in priority order; when a
Python post-check rejects a group, the groups after it are tried at the
same position. Each group but the letter run names its token's kind. A
letter run that is not a plain word is classified afterwards in Python
(case-suffixed acronym, Roman candidate, uppercase sequence, mixed case,
lowercase consonant cluster, or a word such as ``Łukasz`` or ``a``).

Tokenization is lossless: every non-whitespace character lands in exactly
one token, each token records the whitespace that follows it, and
``detokenize`` reproduces the input byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .folding import ALPHABET
from .romans import is_roman_shaped


class TokenKind(Enum):
    WORD = "word"
    UPPERCASE_SEQ = "uppercase_seq"
    MIXED_CASE = "mixed_case"
    LOWERCASE_CONSONANTS = "lowercase_consonants"
    CARDINAL_NUMBER = "cardinal_number"
    DECIMAL_NUMBER = "decimal_number"
    DIGIT_GROUP_SEQ = "digit_group_seq"
    ROMAN_CANDIDATE = "roman_candidate"
    DATE_LIKE = "date_like"
    TIME_LIKE = "time_like"
    URL = "url"
    EMAIL = "email"
    PHONE = "phone"
    ORDINAL_DOT = "ordinal_dot"
    CASE_SUFFIXED_ACRONYM = "case_suffixed_acronym"
    SYMBOL = "symbol"
    PUNCT = "punct"

    # members are singletons: hashing by identity keeps kind-set and
    # kind-dict lookups in C (Enum.__hash__ is a Python-level call)
    __hash__ = object.__hash__


@dataclass
class Token:
    """One classified span. ``span`` is byte offsets into the UTF-8 source;
    ``ws_after`` is the exact whitespace that followed the span."""

    text: str
    kind: TokenKind
    span: tuple[int, int]
    ws_after: str = ""

    @property
    def joined_right(self) -> bool:
        return self.ws_after == ""


class TokenList(list):
    """Token sequence that also remembers whitespace before the first token."""

    leading: str = ""


_UC = ALPHABET.upper()
_LC = ALPHABET
_VOWELS = frozenset("aeiouõäöüy")
_CASED_VOWELS = "".join(sorted(_VOWELS)).upper() + "".join(sorted(_VOWELS))
# A plain word: a letter of the alphabet and one or more lowercase ones,
# holding a vowel, with no letter or digit after it. The tokenizer's
# "word" group and the pass-through gate's word are this pattern.
_PLAIN_WORD = rf"(?=[^\W\d_{_CASED_VOWELS}]*[{_CASED_VOWELS}])[{_UC}{_LC}][{_LC}]+(?![^\W_])"

# Case endings (plus the linking vowel variants) that may attach to an
# acronym: MTÜle, EAS-i, ERR-ile, NATOsse, CVsid, ...
CASE_SUFFIXES = frozenset(
    "i it id iks ile ilt il iga ist isse is ini ina ita ide idele "
    "le lt l ks ga st sse s ni na ta t d de dele sid te tele".split()
)
_SUFFIX = "|".join(sorted(CASE_SUFFIXES, key=lambda s: (-len(s), s)))  # longest first

_SENTENCE_PUNCT = frozenset(".,!?;:()[]{}\"'«»‘’“”…–—-·")
_PUNCT = re.escape("".join(sorted(_SENTENCE_PUNCT)))  # the body of a regex class

_WS_RE = re.compile(r"\s*")

# URL and e-mail grammar; the pieces also locate where a match can start
_URL_PREFIX = r"(?i:https?)://|www\."
_LABEL = "[A-Za-z0-9-]"  # one character of a domain label
_DOMAIN_RUN = rf"{_LABEL}+(?:\.{_LABEL}+)*"
_TLD_DOT = r"\.(?:ee|com|org|net|eu|fi|lv|lt|gl|io)(?![^\W\d_])"  # no letter after it
_ADDRESS = "[A-Za-z0-9_.+-]"  # one character before the "@" of an address
_EMAIL_DOMAIN = rf"@{_LABEL}+(?:\.{_LABEL}+)+"
_URL_RE = re.compile(rf"(?:{_URL_PREFIX})[^\s<>\"]*|{_DOMAIN_RUN}{_TLD_DOT}(?:/[^\s<>\"]*)?")
_EMAIL_RE = re.compile(rf"{_ADDRESS}+{_EMAIL_DOMAIN}")
_URL_PREFIX_RE = re.compile(_URL_PREFIX)
_TLD_DOT_RE = re.compile(_TLD_DOT)
# A maximal run of domain labels (the lookbehinds pin it to the start of
# its run), cut at its last top-level-domain dot: a bare domain can start
# at any label character before that dot.
_DOMAIN_HEAD_RE = re.compile(rf"(?<!{_LABEL})(?<!{_LABEL}\.){_DOMAIN_RUN}(?={_TLD_DOT})")
# A maximal run of address characters that ends at "@" and a valid domain.
_ADDRESS_HEAD_RE = re.compile(rf"(?<!{_ADDRESS}){_ADDRESS}+(?={_EMAIL_DOMAIN})")

_D = "[0-9]"  # ASCII digits only; \d would also match other scripts' digits
_THOUSANDS = rf"{_D}{{1,3}}(?:[ \xa0.]{_D}{{3}})+"  # digits grouped by thousands
_THOUSANDS_SHAPE_RE = re.compile(rf"{_THOUSANDS}$")


def _letters_below(stop: int) -> str:
    """Regex class body of the letters below code point ``stop``, as
    str.isalpha (and so the running Python's Unicode tables) decides."""
    ranges, first = [], None
    for cp in range(stop + 1):
        if cp < stop and chr(cp).isalpha():
            first = cp if first is None else first
        elif first is not None:
            ranges.append(f"\\u{first:04x}-\\u{cp - 1:04x}")
            first = None
    return "".join(ranges)


# the letters a word run matches in one regex step
_LATIN_LETTERS = _letters_below(0x0250)
_LETTER_OR_DIGIT_RUN_RE = re.compile(f"[0-9{_LATIN_LETTERS}]*")

# Every shape but URLs and e-mail addresses, in priority order, as (group
# name, pattern, led by a digit or "+"). A group is named after its
# TokenKind value. A "word_run" is classified afterwards, and a "letter"
# starts a word run that the "word_run" group cannot take. The digit-led
# shapes come first.
_SHAPES = (
    # at most 8 groups: 8 or more hold at least 16 digits, which the
    # post-check rejects, so the cap changes no token and keeps each try
    # from scanning the rest of a long run of groups
    ("phone", rf"(?:\+{_D}(?:[ \xa0-]?{_D}){{6,14}}|{_D}{{2,4}}(?:[ \xa0-]{_D}{{2,4}}){{2,7}})(?!{_D})", True),
    ("date_like", rf"{_D}{{1,2}}\.{_D}{{1,2}}\.{_D}{{4}}(?!{_D})", True),
    ("time_like", rf"{_D}{{1,2}}:{_D}{{2}}(?::{_D}{{2}})?(?!{_D})", True),
    ("decimal_number", rf"{_D}+(?:,{_D}+|\.{_D}{{1,2}})(?!{_D})", True),
    ("digit_group_seq", rf"(?:{_THOUSANDS}|{_D}{{7,}})(?!{_D})", True),
    ("ordinal_dot", rf"{_D}{{1,6}}\.(?=[–-]|\s+[{_LC}])", True),
    ("cardinal_number", rf"{_D}{{1,6}}(?!{_D})", True),
    ("word", _PLAIN_WORD, False),
    ("case_suffixed_acronym", rf"[{_UC}]{{2,}}-(?:{_SUFFIX})(?![^\W\d_])", False),
    # A word run is letters plus ASCII digits, led by a letter. One made of
    # Latin letters matches here whole. Any other character that \w-based
    # classes admit (a rarer letter, or a non-decimal numeric such as "²"
    # or "Ⅻ", which ends the run) is left to "letter", whose post-check
    # extends the run in Python: no rescan of the rest of a long run.
    ("word_run", rf"[{_LATIN_LETTERS}][0-9{_LATIN_LETTERS}]*(?![^\W\d_]|{_D})", False),
    ("letter", r"[^\W\d_]", False),
    ("punct", f"[{_PUNCT}]", False),
    ("symbol", r"(?s:.)", False),
)
_POST_CHECKED = frozenset({"phone", "letter"})


def _alternation(shapes) -> re.Pattern:
    """One regex trying ``shapes`` in order, then eating trailing whitespace.
    The digit-led shapes share one guard: none starts right after a digit,
    and any other character skips them all in one test."""
    digit_led = "|".join(f"(?P<{name}>{body})" for name, body, led in shapes if led)
    rest = [f"(?P<{name}>{body})" for name, body, led in shapes if not led]
    guarded = [rf"(?=[+0-9])(?<!{_D})(?:{digit_led})"] if digit_led else []
    return re.compile("(?:" + "|".join(guarded + rest) + r")\s*")


_MASTER_RE = _alternation(_SHAPES)
# where to resume when a post-check rejects the group of that name
_RESUME_RE = {
    name: _alternation(_SHAPES[i + 1:]) for i, (name, _, _) in enumerate(_SHAPES) if name in _POST_CHECKED
}
_KIND_OF_GROUP = {kind.value: kind for kind in TokenKind}

# an acronym and its case ending, with or without a hyphen: "EAS-i", "MTÜle"
_ATTACHED_SUFFIX_RE = re.compile(rf"([{_UC}]{{2,}})-?({_SUFFIX})")
_HAS_LOWER_UPPER_RE = re.compile(rf"[{_LC}][{_UC}]")
_TRAILING_PUNCT = ".,;:!?)]}\"'»’”"


def _classify_word_run(surface: str) -> TokenKind:
    if not surface[0].islower():  # both shapes below start with a capital
        if _ATTACHED_SUFFIX_RE.fullmatch(surface):
            return TokenKind.CASE_SUFFIXED_ACRONYM
        if is_roman_shaped(surface):
            return TokenKind.ROMAN_CANDIDATE
    if surface.isalpha():
        if surface.isupper():
            return TokenKind.UPPERCASE_SEQ
        if surface.islower():
            if len(surface) >= 2 and _VOWELS.isdisjoint(surface):
                return TokenKind.LOWERCASE_CONSONANTS
            return TokenKind.WORD
        if _HAS_LOWER_UPPER_RE.search(surface):
            return TokenKind.MIXED_CASE
        if surface[0].isupper() and surface[1:].islower():
            return TokenKind.WORD
        if len(surface) >= 3 and surface[:-1].isupper() and surface[-1].islower():
            # uppercase run with a one-letter tail that is not a case ending
            return TokenKind.MIXED_CASE
        return TokenKind.WORD
    return TokenKind.MIXED_CASE  # letters with digits attached


def _trim_trailing_punct(text: str, start: int, end: int) -> int:
    while end > start and text[end - 1] in _TRAILING_PUNCT:
        end -= 1
    return end


def _match_url(text: str, pos: int):
    match = _URL_RE.match(text, pos)
    if not match:
        return None
    end = _trim_trailing_punct(text, pos, match.end())
    surface = text[pos:end]
    # a prefix that trimming cut to "www" (or to nothing) is no URL
    return end if "." in surface or "://" in surface else None


def _match_email(text: str, pos: int):
    match = _EMAIL_RE.match(text, pos)
    if not match:
        return None
    return _trim_trailing_punct(text, pos, match.end())


def _url_starts(text: str) -> list[tuple[int, int]]:
    """[start, stop) ranges holding every position where ``_URL_RE`` can
    match, sorted by start, in reverse (see ``_in_ranges``)."""
    ranges = []
    if "://" in text or "www." in text:
        ranges = [(m.start(), m.start() + 1) for m in _URL_PREFIX_RE.finditer(text)]
    if _TLD_DOT_RE.search(text):
        ranges += [m.span() for m in _DOMAIN_HEAD_RE.finditer(text)]
        ranges.sort()
    ranges.reverse()
    return ranges


def _email_starts(text: str) -> list[tuple[int, int]]:
    """Like ``_url_starts`` for ``_EMAIL_RE``: the address runs that end at
    an "@" and a valid domain."""
    if "@" not in text:
        return []
    return [m.span() for m in _ADDRESS_HEAD_RE.finditer(text)][::-1]


def _in_ranges(ranges: list[tuple[int, int]], pos: int) -> bool:
    """Whether ``pos`` lies in one of ``ranges`` (reverse-sorted by start).
    Ranges that end at or before ``pos`` are dropped, so ``pos`` must not
    decrease from one call to the next."""
    while ranges and ranges[-1][1] <= pos:
        ranges.pop()
    return bool(ranges) and ranges[-1][0] <= pos


def _is_phone(surface: str) -> bool:
    """The post-check of a phone number. One without "+" mixes no dash with
    spaces: "100 000-200 000" is a range."""
    if surface[0] == "+":
        return True
    digit_count = sum(ch.isdigit() for ch in surface)
    mixed = "-" in surface and (" " in surface or "\xa0" in surface)
    return 7 <= digit_count <= 15 and not mixed and not _THOUSANDS_SHAPE_RE.match(surface)


def _word_end(text: str, pos: int) -> int:
    """End of the run of letters and ASCII digits that starts at ``pos``."""
    end = pos
    while end < len(text) and (text[end].isalpha() or text[end] in "0123456789"):
        end = _LETTER_OR_DIGIT_RUN_RE.match(text, end + 1).end()
    return end


def _post_check(name: str, text: str, pos: int, end: int, ws_end: int) -> tuple[str, int, int]:
    """Run the post-check of group ``name`` on text[pos:end]; while one
    rejects, try the groups after it at ``pos``. Returns the group name, the
    token end and the end of the whitespace after the token."""
    while name in _POST_CHECKED:
        if name == "letter":
            if text[pos].isalpha():
                end = _word_end(text, pos)
                return "word_run", end, _WS_RE.match(text, end).end()
        elif _is_phone(text[pos:end]):
            break
        match = _RESUME_RE[name].match(text, pos)
        name = match.lastgroup
        end, ws_end = match.end(name), match.end()
    return name, end, ws_end


def tokenize(text: str) -> TokenList:
    """Split text into classified tokens; whitespace is recorded, not emitted."""
    tokens = TokenList()
    tokens.leading = _WS_RE.match(text).group()
    pos = len(tokens.leading)
    length = len(text)
    ascii_text = text.isascii()
    # UTF-8 bytes beyond one per character so far: byte offset = pos + extra
    extra = 0 if ascii_text else len(tokens.leading.encode("utf-8")) - pos
    url_starts = _url_starts(text)
    email_starts = _email_starts(text)

    while pos < length:
        end = None
        if url_starts and _in_ranges(url_starts, pos):
            end = _match_url(text, pos)
            kind = TokenKind.URL
        if end is None and email_starts and _in_ranges(email_starts, pos):
            end = _match_email(text, pos)
            kind = TokenKind.EMAIL
        if end is not None:
            ws_end = _WS_RE.match(text, end).end()
        else:
            match = _MASTER_RE.match(text, pos)
            name = match.lastgroup
            end = match.end(name)
            ws_end = match.end()
            if name in _POST_CHECKED:
                name, end, ws_end = _post_check(name, text, pos, end, ws_end)
            kind = _KIND_OF_GROUP.get(name)
        surface = text[pos:end]
        if kind is None:  # a "word_run"
            kind = _classify_word_run(surface)
        ws_after = text[end:ws_end]
        if ascii_text:
            span = (pos, end)
        else:
            start = pos + extra
            if not surface.isascii():
                extra += len(surface.encode("utf-8")) - len(surface)
            span = (start, end + extra)
            if not ws_after.isascii():
                extra += len(ws_after.encode("utf-8")) - len(ws_after)
        tokens.append(Token(surface, kind, span, ws_after))
        pos = ws_end
    return tokens


def detokenize(tokens) -> str:
    """Rebuild the exact source text from a token sequence."""
    leading = getattr(tokens, "leading", "")
    return leading + "".join(t.text + t.ws_after for t in tokens)
