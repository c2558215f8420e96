"""Tokenization of raw text into classified spans.

One left-to-right pass whose cost is linear in the length of the line.
URLs and e-mail addresses are found anchor-first: the line is scanned
once for the set of positions where one can start (the start of
``https://`` in any case or of ``www.``, each position of a run of domain
labels with a top-level-domain dot still ahead, each position of a run
of address characters that ends at ``@`` and a valid domain), and their
patterns are tried only at a token start in that set. The prefix, domain and
address head regexes read only the whitespace-delimited chunks from the
one that holds the first anchor (``://`` or ``www.``, a top-level-domain
dot, an ``@``) to the one that holds the last. That is exact: a URL
prefix, a domain run or an address run holds no whitespace and holds its
anchor, or ends at it, so every head lies in a chunk with an anchor. A
lookbehind at the first chunk's start sees whitespace or the start of
the line, as in a scan of the whole line, and a lookahead stops at the
last chunk's end as it would at the whitespace after it, since no head
pattern reads whitespace. Every other shape (phone numbers, dates,
times, decimals, grouped digits, ordinal dots, plain numbers, plain
words, acronyms with a case ending, word runs, sentence punctuation,
symbols) is one named group of a master regex, in priority order. One
Python post-check follows: a phone number that ``_is_phone`` rejects is
matched again by the groups after it. Each group but the word run names
its token's kind. A word run that is not a plain word is classified
afterwards in Python (case-suffixed acronym, Roman candidate, uppercase
sequence, mixed case, lowercase consonant cluster, or a word such as
``Łukasz`` or ``a``); one that starts with a letter outside the alphabet
is matched as a symbol and extended there.

Tokenization is lossless: every non-whitespace character lands in exactly
one token, each token records the whitespace that follows it, and
``detokenize`` reproduces the input byte for byte. (The private arguments
of ``tokenize`` leave plain text untokenized, and the token list keeps it
before the first token and in the gaps after tokens' whitespace, so
``detokenize`` reproduces that input too.)
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
    ``ws_after`` is the text after it that no token holds: its whitespace,
    then, under ``tokenize``'s private ``_plain`` only, a copied plain run."""

    text: str
    kind: TokenKind
    span: tuple[int, int]
    ws_after: str = ""

    @property
    def joined_right(self) -> bool:
        return self.ws_after == ""


class TokenList(list):
    """Token sequence that also remembers the text before the first token:
    whitespace, and what was left untokenized before it (see ``tokenize``).
    Any other text no token holds is in the ``ws_after`` of the token
    before it."""

    leading: str = ""
    abbreviation_context: frozenset[str] | None = None  # the line's words, once an expansion is picked


_UC = ALPHABET.upper()
_LC = ALPHABET
_VOWELS = frozenset("aeiouõäöüy")
_CASED_VOWELS = "".join(sorted(_VOWELS)).upper() + "".join(sorted(_VOWELS))
_CASED_CONSONANTS = "".join(ch for ch in _UC + _LC if ch not in _CASED_VOWELS)
# A plain word: a letter of the alphabet and one or more lowercase ones,
# holding a vowel, with no letter or digit after it. The tokenizer's
# "word" group and the pass-through gate's word are this pattern. The
# word is a whole run of the alphabet's letters, so its vowel lies in that
# run: the lookahead scans no further, which keeps a try at each character
# of a long run of other letters or numerics ("½½½") from rescanning it.
_PLAIN_WORD = rf"(?=[{_CASED_CONSONANTS}]*[{_CASED_VOWELS}])[{_UC}{_LC}][{_LC}]+(?![^\W_])"

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
_NON_WS_RE = re.compile(r"\S*")
# the most pieces (a word with the whitespace and marks after it up to a
# dot, a run of whitespace and marks, or a dot) one match of the plain-line
# grammar reads: a bounded repeat keeps the regex engine's backtracking
# stack small
_PLAIN_REPEAT = 1000
_CHUNK_BACK_RE = re.compile(r"\S*\s*\S*")  # matched on a reversed text: two chunks back

# URL and e-mail grammar; the pieces also locate where a match can start
_URL_SCHEME = r"(?i:https?)://"
_URL_PREFIX = rf"{_URL_SCHEME}|www\."
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


# the letters and digits a word run matches in one regex step
_LETTER_OR_DIGIT_RUN_RE = re.compile(f"[0-9{_UC}{_LC}]*")

# Every shape but URLs and e-mail addresses, in priority order, as (group
# name, pattern, led by a digit or "+"). A group is named after its
# TokenKind value, and a "word_run" is classified afterwards. The
# digit-led shapes come first.
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
    # the alphabet's letters matches here whole. Before a rarer letter, or
    # a non-decimal numeric such as "²" or "Ⅻ" that ends the run, it
    # fails, and "symbol" takes the first character;
    # ``tokenize`` extends a letter into the whole run, so no later try
    # rescans the rest of it.
    ("word_run", rf"[{_UC}{_LC}][0-9{_UC}{_LC}]*(?![^\W\d_]|{_D})", False),
    ("punct", f"[{_PUNCT}]", False),
    ("symbol", r"(?s:.)", False),
)


def _alternation(shapes) -> re.Pattern:
    """One regex trying ``shapes`` in order, then eating trailing whitespace.
    The digit-led shapes share one guard: none starts right after a digit,
    and any other character skips them all in one test."""
    digit_led = "|".join(f"(?P<{name}>{body})" for name, body, led in shapes if led)
    rest = "|".join(f"(?P<{name}>{body})" for name, body, led in shapes if not led)
    return re.compile(rf"(?:(?=[+0-9])(?<!{_D})(?:{digit_led})|{rest})\s*")


_MASTER_RE = _alternation(_SHAPES)
# Where to resume when ``_is_phone`` rejects a "phone" match. A run of 2-4
# digits leads it, and there the groups after "phone" give a thousands
# group or a cardinal: never a phone or a symbol to check again.
_PHONE_RESUME_RE = _alternation(_SHAPES[1:])
_KIND_OF_GROUP = {kind.value: kind for kind in TokenKind}
_WORD = TokenKind.WORD

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


def _match_url(text: str, pos: int):
    match = _URL_RE.match(text, pos)
    if not match:
        return None
    end = match.end()
    while end > pos and text[end - 1] in _TRAILING_PUNCT:
        end -= 1
    surface = text[pos:end]
    # a prefix that trimming cut to "www" (or to nothing) is no URL
    return end if "." in surface or "://" in surface else None


def _chunk_start(text: str, pos: int) -> int:
    """The start of the whitespace-delimited chunk that holds ``pos``. The
    back-scan reads no further than the last ASCII space before ``pos``."""
    low = text.rfind(" ", 0, pos) + 1
    return pos - _NON_WS_RE.match(text[low:pos][::-1]).end()


def _heads(pattern: re.Pattern, text: str, first: int, last: int):
    """The matches of ``pattern`` in ``text``, read only over the chunks
    from the one that holds ``first`` to the one that holds ``last``."""
    end = _NON_WS_RE.match(text, last).end()
    return pattern.finditer(text, _chunk_start(text, first), end)


def _url_starts(text: str) -> set[int]:
    """Every position where ``_URL_RE`` can match."""
    starts = set()
    if "://" in text or "www." in text:
        first = min(i for i in (text.find("://"), text.find("www.")) if i >= 0)
        last = max(text.rfind("://"), text.rfind("www."))
        # the start of each prefix only: its other positions would try URLs inside it
        starts = {m.start() for m in _heads(_URL_PREFIX_RE, text, first, last)}
    dots = [m.start() for m in _TLD_DOT_RE.finditer(text)]
    if dots:
        for m in _heads(_DOMAIN_HEAD_RE, text, dots[0], dots[-1]):
            starts.update(range(*m.span()))
    return starts


def _email_starts(text: str) -> set[int]:
    """Like ``_url_starts`` for ``_EMAIL_RE``: the positions of the address
    runs that end at an "@" and a valid domain."""
    starts = set()
    first = text.find("@")
    if first >= 0:
        for m in _heads(_ADDRESS_HEAD_RE, text, first, text.rfind("@")):
            starts.update(range(*m.span()))
    return starts


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


def _plain_end(match, text: str, start: int) -> int:
    """Where the plain-line grammar stops reading ``text`` from ``start``.
    ``match`` is the bound ``match`` of ``RuleConfig.plain_line_re``, which
    repeats at most ``_PLAIN_REPEAT`` pieces, so it is called again until a
    match stops short of that bound."""
    # the greedy match is the only parse, and match, unlike fullmatch, is not retried on failure
    end = start
    while True:
        pos, end = end, match(text, end).end()
        if end - pos < _PLAIN_REPEAT:  # a piece is at least one character: the grammar stopped by itself
            return end


def _chunk_before(text: str, end: int, low: int) -> int:
    """The start of the whitespace-delimited chunk before the one that
    holds ``end``, scanning back no further than ``low``: back from ``end``
    over its chunk's head, the whitespace and the chunk before. ``end``
    itself when it is the end of the text, where no chunk is left to keep."""
    if end == len(text):
        return end
    return end - _CHUNK_BACK_RE.match(text[low:end][::-1]).end()


def tokenize(text: str, _plain=None, _stop=None) -> TokenList:
    """Split text into classified tokens; whitespace is recorded, not emitted.

    ``_plain``, private to ``verbalize``, is the config's
    ``plain_line_re.match``. With it, plain text is copied as it is,
    neither tokenized nor classified, by one rule: where the grammar, read
    from the start of a chunk (a run of non-whitespace), stops, the text up
    to the start of the chunk before the one that holds the stop is copied
    (all of it when the grammar reads to the end). The rule is applied from
    the start of the line, copying into ``TokenList.leading`` (``_stop``,
    when given, is where that read stops), and wherever a chunk ends in a
    WORD token and the chunk before it did too, copying into the
    ``ws_after`` of that word, after its whitespace. So a gap holds text
    other than whitespace only after a word that ends a plain chunk, and
    before a plain chunk or at the end of the line; ``detokenize`` still
    gives the text back.

    The tokens kept are those of the whole text, spans included: copied
    text is words and marks and ends in whitespace, and only a digit-led
    token crosses whitespace, so no token of the whole text reaches across
    the end of a copy. (Why the rules read them the same is in the module
    docstring of ``verbalize``.) A read that stops within the next chunk
    copies nothing, and after a copy the scan resumes at the chunk before
    the stop, so each chunk is read a bounded number of times: the cost
    stays linear."""
    tokens = TokenList()
    pos = 0
    if _plain is not None:
        stop = _plain_end(_plain, text, 0) if _stop is None else _stop
        pos = _chunk_before(text, stop, 0)
    pos = _WS_RE.match(text, pos).end()
    tokens.leading = text[:pos]
    length = len(text)
    if pos == length:  # nothing left, or the line is plain to its end
        return tokens
    ascii_text = text.isascii()
    # UTF-8 bytes beyond one per character so far: byte offset = pos + extra;
    # a lone surrogate is encoded as its three bytes, as Python spells it
    extra = 0 if ascii_text else len(tokens.leading.encode("utf-8", "surrogatepass")) - pos
    url_starts = _url_starts(text)
    email_starts = _email_starts(text)
    # the current chunk's start, the end of the last chunk to end in a WORD
    chunk, after_word = pos, -1

    while pos < length:
        end = None
        if url_starts and pos in url_starts:
            end = _match_url(text, pos)
            kind = TokenKind.URL
        if end is None and email_starts and pos in email_starts:
            # Address characters, "@" and a valid domain follow each
            # position of an address run, so the match cannot fail. It ends
            # on a label character, never on a trailing mark to trim.
            end = _EMAIL_RE.match(text, pos).end()
            kind = TokenKind.EMAIL
        if end is not None:
            ws_end = _WS_RE.match(text, end).end()
        else:
            match = _MASTER_RE.match(text, pos)
            name = match.lastgroup
            end, ws_end = match.end(name), match.end()
            if name == "phone" and not _is_phone(text[pos:end]):
                match = _PHONE_RESUME_RE.match(text, pos)
                name = match.lastgroup
                end, ws_end = match.end(name), match.end()
            elif name == "symbol" and text[pos].isalpha():
                # a letter outside the alphabet starts a word run
                name = "word_run"
                end = _word_end(text, pos)
                ws_end = _WS_RE.match(text, end).end()
            kind = _KIND_OF_GROUP.get(name)
        surface = text[pos:end]
        if kind is None:  # a "word_run"
            kind = _classify_word_run(surface)
        if ws_end > end:  # the token ends a chunk
            if kind is _WORD:
                if after_word == chunk and _plain is not None:  # and so did the chunk before
                    resume = _chunk_before(text, _plain_end(_plain, text, chunk), ws_end)
                    if resume > ws_end:  # the grammar read past the next chunk: copy the run into this gap
                        ws_end = resume
                after_word = ws_end
            chunk = ws_end
        ws_after = text[end:ws_end]
        if ascii_text:
            span = (pos, end)
        else:
            start = pos + extra
            if not surface.isascii():
                extra += len(surface.encode("utf-8", "surrogatepass")) - len(surface)
            span = (start, end + extra)
            if not ws_after.isascii():
                extra += len(ws_after.encode("utf-8", "surrogatepass")) - len(ws_after)
        tokens.append(Token(surface, kind, span, ws_after))
        pos = ws_end
    return tokens


def detokenize(tokens) -> str:
    """Rebuild the exact source text from a token sequence."""
    return getattr(tokens, "leading", "") + "".join(t.text + t.ws_after for t in tokens)
