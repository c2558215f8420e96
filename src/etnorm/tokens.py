"""Tokenization of raw text into classified spans.

One left-to-right pass whose cost is linear in the length of the line.
Each token is one match, read one way: the named group that matched gives
its kind and end, the match's end that of the whitespace after it.
``_LINK_RE`` reads URLs and e-mail addresses, ``_MASTER_RE`` every other
shape (phone numbers, dates, times, decimals, grouped digits, ordinal
dots, plain numbers, plain words, capitals with a hyphenated case ending,
word runs, sentence punctuation, symbols), one group each, in priority
order; no shape has a Python check after its pattern. A word run, the one
group that names no kind, is classified afterwards (capitals, numeral or
not, with or without a case ending; mixed case, lowercase consonants, or a
word such as ``Łukasz``); one led by a letter outside the alphabet is
matched as a symbol and extended in Python.

A link is decided at the token, as the loop reaches it. Every URL and
address starts with an address character and holds an anchor (``://``,
``www.``, ``@`` or a top-level-domain dot) in its own chunk, a run of
non-whitespace. So ``_LINK_RE`` is tried only at a token start with such
a character that lies in the chunk of the next anchor, and a match is the
token there; a line with no anchor tries none. The starts skipped are
those where no link can match, so the tokens are those of a try at every
token start. Trying every such start would rescan a long run once per
token, so a try that fails rules out what follows it in its chunk. An
address ends at the first ``@`` after its start, so none starts inside
the address run of a failed try, before that ``@``. A bare domain that
starts inside its domain-label run reads labels and a top-level-domain
dot that one from the failed start would read too, so none starts there.
Inside the label run only a URL with a prefix (``https://``, ``www.``)
can start, and inside the rest of the address run only a URL, for which
``_URL_RE`` is tried. Each run is read once, when a later token of the
same chunk needs it, and a URL-only try that fails moves the label run
on. The next full try starts past the address run and the next URL-only
try past the label run, and each anchor search starts past the last
anchor, so each character is read a bounded number of times: the cost
stays linear.

Tokenization is lossless: every non-whitespace character lands in exactly
one token, each token records the whitespace that follows it, and
``detokenize`` reproduces the input byte for byte. (The private argument
of ``tokenize`` copies runs of plain text into PLAIN tokens, which
``detokenize`` gives back as they are.)
"""

from __future__ import annotations

import re
from enum import Enum

from .folding import ALPHABET
from .romans import LETTERS as _ROMAN_LETTERS, roman_value
from .textfiles import Record


class TokenKind(Enum):
    WORD = "word"
    UPPERCASE_SEQ = "uppercase_seq"
    MIXED_CASE = "mixed_case"
    LOWERCASE_CONSONANTS = "lowercase_consonants"
    CARDINAL_NUMBER = "cardinal_number"
    DECIMAL_NUMBER = "decimal_number"
    DIGIT_GROUP_SEQ = "digit_group_seq"
    DATE_LIKE = "date_like"
    TIME_LIKE = "time_like"
    URL = "url"
    EMAIL = "email"
    PHONE = "phone"
    ORDINAL_DOT = "ordinal_dot"
    SYMBOL = "symbol"
    PUNCT = "punct"
    # a run of plain text copied as it is, only under ``tokenize``'s private
    # ``_plain``: no shape matches one, and no rule handles one
    PLAIN = "plain"

    # members are singletons: hashing by identity keeps kind-set and
    # kind-dict lookups in C (Enum.__hash__ is a Python-level call)
    __hash__ = object.__hash__


class Token(Record):
    """One classified span. ``span`` is its ``(start, end)`` character
    offsets in the tokenized text; folding keeps each character's place,
    so the span of a token of a folded line slices the raw line too.
    ``ws_after`` is the whitespace after it."""

    __slots__ = ("text", "kind", "span", "ws_after")

    def __init__(self, text: str, kind: TokenKind, span: tuple[int, int], ws_after: str = ""):
        self.text = text  # one assignment each: a tuple assignment is slower, and tokens are many
        self.kind = kind
        self.span = span
        self.ws_after = ws_after

    @property
    def joined_right(self) -> bool:
        return self.ws_after == ""


class TokenList(list):
    """Token sequence that also remembers the whitespace before the first
    token; any other whitespace is in the ``ws_after`` of the token before it."""

    leading: str = ""
    abbreviation_context: frozenset[str] | None = None  # the line's words, once an expansion is picked


_UC = ALPHABET.upper()
_LC = ALPHABET
_VOWELS = frozenset("aeiouõäöüy")
_WORD_END = r"(?![^\W_])"  # no letter or digit after it


def _plain_words(first: str, lower: str) -> list[str]:
    """The patterns of a plain word led by a letter of ``first``, one for
    its vowels and one for its consonants: that letter and one or more of
    ``lower``, holding a vowel, with no letter or digit after it; the
    tokenizer's "word" group and the gate's words. Each repeat reads a
    character class, possessively: a parse that gave a letter back would
    leave a letter before ``_WORD_END``."""
    vowel_led = "".join(ch for ch in first if ch.lower() in _VOWELS)
    consonant_led = "".join(ch for ch in first if ch not in vowel_led)
    vowels = "".join(ch for ch in lower if ch in _VOWELS)
    consonants = "".join(ch for ch in lower if ch not in _VOWELS)
    words = (f"[{vowel_led}][{lower}]++", f"[{consonant_led}][{consonants}]*+[{vowels}][{lower}]*+")
    return [word + _WORD_END for word, led in zip(words, (vowel_led, consonant_led)) if led]


# Case endings (plus the linking vowel variants) that may attach to an
# acronym: MTÜle, EAS-i, ERR-ile, NATOsse, CVsid, ...
CASE_SUFFIXES = frozenset(
    "i it id iks ile ilt il iga ist isse is ini ina ita ide idele "
    "le lt l ks ga st sse s ni na ta t d de dele sid te tele".split()
)
_SUFFIX = "|".join(sorted(CASE_SUFFIXES, key=lambda s: (-len(s), s)))  # longest first

_SENTENCE_PUNCT = frozenset(".,!?;:()[]{}\"'«»‘’“”„‚…–—-·")
_PUNCT = re.escape("".join(sorted(_SENTENCE_PUNCT)))  # the body of a regex class

_WS_RE = re.compile(r"\s*")
_CHUNK_BACK_RE = re.compile(r"\S*\s*\S*")  # matched on a reversed text: two chunks back

# URL and e-mail grammar
_URL_SCHEME = r"(?i:https?)://"
_URL_PREFIX = rf"{_URL_SCHEME}|www\."
_LABEL = "[A-Za-z0-9-]"  # one character of a domain label
_DOMAIN_RUN = rf"{_LABEL}+(?:\.{_LABEL}+)*"
_TLD = r"(?:ee|com|org|net|eu|fi|lv|lt|gl|io)(?![^\W\d_])"  # no letter after it
_TLD_DOT = rf"\.{_TLD}"
_ADDRESS = "[A-Za-z0-9_.+-]"  # one character before the "@" of an address
_ADDRESS_CHARS = frozenset(filter(re.compile(_ADDRESS).match, map(chr, range(128))))  # the only ones a link starts with
_EMAIL_DOMAIN = rf"@{_LABEL}+(?:\.{_LABEL}+)+"
_TRAILING_PUNCT = ".,;:!?)]}\"'»’”"  # marks that end a sentence or a quote, not a URL
# The lookbehind backs a URL off the marks after it: a "www." with only
# marks after it is no URL, since its own dot is one.
_URL = (
    rf"(?P<url>(?:(?:{_URL_PREFIX})[^\s<>\"]*|{_DOMAIN_RUN}{_TLD_DOT}(?:/[^\s<>\"]*)?)"
    rf"(?<![{re.escape(_TRAILING_PUNCT)}]))"
)
# A URL or an e-mail address, each group named after its TokenKind value,
# then whitespace; ``_URL_RE`` where no address can start.
_LINK_RE = re.compile(rf"(?:{_URL}|(?P<email>{_ADDRESS}+{_EMAIL_DOMAIN}))\s*")
_URL_RE = re.compile(rf"{_URL}\s*")
_URL_PREFIX_RE = re.compile(_URL_PREFIX)
_ANCHOR_RE = re.compile(rf"://|www\.|@|{_TLD_DOT}")  # every link holds one of these
_NON_WS_RE = re.compile(r"\S*")
# the runs a failed link try rules out: its domain labels, its address characters
_DOMAIN_RUN_RE = re.compile(f"(?:{_DOMAIN_RUN})?")
_ADDRESS_RUN_RE = re.compile(f"{_ADDRESS}*")

_D = "[0-9]"  # ASCII digits only; \d would also match other scripts' digits
_THOUSANDS = rf"{_D}{{1,3}}(?:[ \xa0.]{_D}{{3}})+"  # digits grouped by thousands

# A phone number is "+" and 7-15 digits, with a space, no-break space or
# "-" allowed between two of them. Without "+", it is a run of 2-4-digit
# groups, three or more, that
# - is maximal: no separator, 2-4 digits and a non-digit follow it
#   (``_RUN_END``);
# - mixes no separators: its groups are joined by "-" or by spaces, never
#   both, as "100 000-200 000" is a range;
# - holds 7-15 digits, counted one ``_RUN_STEP`` at a time from its start.
#   A step crosses a separator only into a 2-4-digit group, so the count
#   stays inside the run;
# - is not grouped by thousands: no ``_THOUSANDS`` ends at its end.
# A cheap lookahead for a first group and the start of a second comes
# first, so most numbers fail in one test; it also bounds the first group.
_RUN_STEP = rf"(?:[ \xa0-](?={_D}{{2,4}}(?!{_D})))?{_D}"
_RUN_END = f"(?!{_RUN_STEP})"
_PHONE = (
    rf"\+{_D}(?:[ \xa0-]?{_D}){{6,14}}(?!{_D})"
    rf"|(?={_D}{{2,4}}[ \xa0-]{_D}{{2}})(?=(?:{_RUN_STEP}){{7,15}}{_RUN_END})(?!{_THOUSANDS}{_RUN_END})"
    rf"{_D}{{2,4}}(?:(?:-{_D}{{2,4}}){{2,}}|(?:[ \xa0]{_D}{{2,4}}){{2,}}){_RUN_END}"
)


# the letters and digits a word run matches in one regex step
_LETTER_OR_DIGIT_RUN_RE = re.compile(f"[0-9{_UC}{_LC}]*")

# Every shape but links, in priority order, as (group name, pattern, led
# by a digit or "+"). A group is named after its TokenKind value, and a
# "word_run" is classified afterwards. The digit-led shapes come first.
_SHAPES = (
    # the groups of a phone number need no cap: the digit count comes
    # first and reads at most 16 digits, so no try scans the rest of a
    # long run of groups
    ("phone", _PHONE, True),
    ("date_like", rf"{_D}{{1,2}}\.{_D}{{1,2}}\.{_D}{{4}}(?!{_D})", True),
    ("time_like", rf"{_D}{{1,2}}:{_D}{{2}}(?::{_D}{{2}})?(?!{_D})", True),
    ("decimal_number", rf"{_D}+(?:,{_D}+|\.{_D}{{1,2}})(?!{_D})", True),
    ("digit_group_seq", rf"(?:{_THOUSANDS}|{_D}{{7,}})(?!{_D})", True),
    ("ordinal_dot", rf"{_D}{{1,6}}\.(?=[–-]|\s+[{_LC}])", True),
    ("cardinal_number", rf"{_D}{{1,6}}(?!{_D})", True),
    ("word", "|".join(_plain_words(_UC + _LC, _LC)), False),
    # a run of capitals and a case ending after a hyphen: "EAS-i", "XIV-le"
    ("uppercase_seq", rf"[{_UC}]{{2,}}-(?:{_SUFFIX})(?![^\W\d_])", False),
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


_DIGIT_LED = "|".join(f"(?P<{name}>{body})" for name, body, led in _SHAPES if led)
_OTHER_SHAPES = "|".join(f"(?P<{name}>{body})" for name, body, led in _SHAPES if not led)
# The shapes in order, then the whitespace after. The digit-led shapes
# share one guard: none starts right after a digit, and any other
# character skips them all in one test.
_MASTER_RE = re.compile(rf"(?:(?=[+0-9])(?<!{_D})(?:{_DIGIT_LED})|{_OTHER_SHAPES})\s*")
_KIND_OF_GROUP = {kind.value: kind for kind in TokenKind}
_WORD, _UPPERCASE, _PLAIN = TokenKind.WORD, TokenKind.UPPERCASE_SEQ, TokenKind.PLAIN
_NO_PLAIN_AFTER = "0123456789+"  # a plain run stops at these, and at the end of the line ("" is in any string)

# an acronym and its case ending, with or without a hyphen: "EAS-i", "MTÜle"
_ATTACHED_SUFFIX_RE = re.compile(rf"([{_UC}]{{2,}})-?({_SUFFIX})")
_HAS_LOWER_UPPER_RE = re.compile(rf"[{_LC}][{_UC}]")


def _classify_word_run(surface: str) -> TokenKind:
    if surface.isalpha():
        if surface.islower():
            if len(surface) >= 2 and _VOWELS.isdisjoint(surface):
                return TokenKind.LOWERCASE_CONSONANTS
            return TokenKind.WORD
        if surface.isupper() or _ATTACHED_SUFFIX_RE.fullmatch(surface):  # no lowercase run pays the regex
            return _UPPERCASE
        if _HAS_LOWER_UPPER_RE.search(surface):
            return TokenKind.MIXED_CASE
        if surface[0].isupper() and surface[1:].islower():
            return TokenKind.WORD
        if len(surface) >= 3 and surface[:-1].isupper() and surface[-1].islower():
            # uppercase run with a one-letter tail that is not a case ending
            return TokenKind.MIXED_CASE
        return TokenKind.WORD
    return TokenKind.MIXED_CASE  # letters with digits attached


def _word_end(text: str, pos: int) -> int:
    """End of the run of letters and ASCII digits that starts at ``pos``."""
    end = pos
    while end < len(text) and (text[end].isalpha() or text[end] in "0123456789"):
        end = _LETTER_OR_DIGIT_RUN_RE.match(text, end + 1).end()
    return end


def _copy_end(text: str, stop: int, low: int) -> int:
    """The end of a copy whose read of the plain-line grammar stopped at
    ``stop``: the start of the chunk that holds the stop, scanning back no
    further than ``low``, or ``stop`` itself when it is the end of the text.
    The chunk before the stop's is kept, and the copy ends at its start,
    where it is read from the stop's chunk: when the stop's chunk starts
    with a Roman letter, as ``_roman`` reads the capitalized word before a
    numeral, or with a character that is neither a letter nor an ASCII
    digit, a symbol that may be dropped, as ``_join`` then glues the mark
    before it to what follows."""
    if stop == len(text):
        return stop
    back = text[low:stop][::-1]
    start = stop - _NON_WS_RE.match(back).end()
    first = text[start]
    if first in _ROMAN_LETTERS or not (first.isalpha() or first in "0123456789"):
        start = stop - _CHUNK_BACK_RE.match(back).end()
    return start


def _roman_reads_next(tokens: TokenList) -> bool:
    """Whether ``_roman`` reads the token after ``tokens`` as a word: they end
    in a Roman numeral (its right cue). Its dot cue reads only a first
    letter, which a copy keeps (see ``verbalize._roman``)."""
    return bool(tokens) and tokens[-1].kind is _UPPERCASE and roman_value(tokens[-1].text) is not None


def _plain_token(text: str, pos: int, copy_end: int) -> Token:
    """The PLAIN token of the run copied from ``pos`` to ``copy_end``."""
    run = text[pos:copy_end].rstrip()
    end = pos + len(run)
    return Token(run, _PLAIN, (pos, end), text[end:copy_end])


def tokenize(text: str, _plain=None) -> TokenList:
    """Split text into classified tokens; whitespace is recorded, not emitted.

    ``_plain``, private to ``verbalize``, is the config's
    ``plain_line_re.match``. With it, plain text is copied as it is,
    neither tokenized nor classified, into one PLAIN token per run: its
    text runs from the run's first non-whitespace character to its last,
    and its ``ws_after`` is the whitespace after it. A copy is read at
    the start of the line and at a token of the ``word`` group that starts
    a chunk (a run of non-whitespace): one match of the grammar from there,
    and the text up to the start of the chunk that holds its stop is
    copied (``_copy_end``, which keeps the chunk before that one where a
    rule reads it; all of the text when the grammar reads to its end). At
    a word, the read copies only when it stops past the word's whitespace,
    and it is skipped where the character there is an ASCII digit or "+",
    or the line ends, since the grammar stops there; nor is it made right
    after a Roman numeral, whose right cue reads the next token
    (``_roman_reads_next``).

    The other tokens are those of the whole text, spans included: copied
    text is whole chunks of words and marks, and only a digit-led token
    crosses whitespace, so no token of the whole text reaches across either
    end of a copy. (Why the rules read them the same is in the module
    docstring of ``verbalize``.) A read that copies nothing stops no
    further than the chunk after its own, and after a copy the scan
    resumes at the stop's chunk or the one before it, so each chunk is
    read a bounded number of times: the cost stays linear."""
    tokens = TokenList()
    pos = _WS_RE.match(text).end()
    tokens.leading = text[:pos]
    length = len(text)
    if _plain is not None and pos < length:
        copy_end = _copy_end(text, _plain(text, pos).end(), pos)
        if copy_end > pos:
            tokens.append(_plain_token(text, pos, copy_end))
            pos = copy_end
    # the next anchor, looked for at the first token past the last one, and
    # the start of its chunk: no link starts before it
    anchor = anchored = -1
    # the last link try that failed, whose runs are not read yet; the ends
    # of the runs read: no address starts before ``address_end``, and no
    # bare domain before ``label_end``
    failed = label_end = address_end = -1
    chunk = pos  # the current chunk's start

    while pos < length:
        match = None
        if pos > anchor:  # find the next anchor and its chunk's start, read back no further than here
            found = _ANCHOR_RE.search(text, pos)
            anchor = found.start() if found else length
            anchored = anchor - _NON_WS_RE.match(text[pos:anchor][::-1]).end() if found else length
        if pos >= anchored and text[pos] in _ADDRESS_CHARS:
            if failed >= chunk:  # a try failed earlier in this chunk: read its runs, once
                if failed >= address_end:  # it tried an address too
                    address_end = _ADDRESS_RUN_RE.match(text, failed).end()
                label_end = _DOMAIN_RUN_RE.match(text, failed).end()
                failed = -1
            if pos >= label_end:
                match = (_LINK_RE if pos >= address_end else _URL_RE).match(text, pos)
                if match is None:
                    failed = pos
            elif _URL_PREFIX_RE.match(text, pos):  # only a URL with a prefix starts in the label run
                match = _URL_RE.match(text, pos)
        match = match or _MASTER_RE.match(text, pos)
        name = match.lastgroup
        end, ws_end = match.end(name), match.end()
        if name == "symbol" and text[pos].isalpha():
            # a letter outside the alphabet starts a word run
            name, end = "word_run", _word_end(text, pos)
            ws_end = _WS_RE.match(text, end).end()
        kind = _KIND_OF_GROUP.get(name)
        if pos == chunk and kind is _WORD and _plain is not None:
            if text[ws_end : ws_end + 1] not in _NO_PLAIN_AFTER and not _roman_reads_next(tokens):
                stop = _plain(text, pos).end()
                if stop > ws_end and (copy_end := _copy_end(text, stop, pos)) > pos:
                    tokens.append(_plain_token(text, pos, copy_end))
                    pos = chunk = copy_end
                    continue
        surface = text[pos:end]
        if kind is None:  # a "word_run"
            kind = _classify_word_run(surface)
        if ws_end > end:  # the token ends a chunk
            chunk = ws_end
        tokens.append(Token(surface, kind, (pos, end), text[end:ws_end]))
        pos = ws_end
    return tokens


def detokenize(tokens) -> str:
    """Rebuild the exact source text from a token sequence."""
    return getattr(tokens, "leading", "") + "".join(t.text + t.ws_after for t in tokens)
