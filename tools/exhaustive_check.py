"""Check the fast paths of ``verbalize`` on every string of a small scope.

Each fast path is exact by an argument in a docstring: the pass-through
gate and its cut, the plain runs copied untokenized, the link tries the
tokenizer skips and the letters folding finds. Bugs in such arguments
show on short inputs, so every string up to a small size is checked (the
small-scope hypothesis). Six sets are run:

- every string of 4 pieces from ``PIECES`` (810,000 strings). Each must
  pass all of ``failures``: ``verbalize`` raises nothing and leaves no
  ASCII digit, equals the full path (every token offered to the rules),
  whose readings tile its tokens (``tiles``), ``detokenize(tokenize(x))
  == x``, at each token start, without and with the copy path,
  ``_LINK_RE`` matches exactly the URL or e-mail token there or nothing
  (``link_failures``, what deciding links at the token rests on), the
  plain-line grammar stops where its first formulation
  (``reference_plain_line_re``) does, folding equals ``fold_char``
  character by character, and each rule call of the full path reads no
  token outside the chunks of its reading but where the copy path keeps
  that token (``cross_chunk_failures``);
- every string of 3 pieces under each of ``other_configs`` (5 x 27,000
  strings), which must pass ``failures`` too: no config that passes
  validation puts a digit in the output;
- every line of 6 chunks from ``CHUNKS``, joined by one space (531,441
  lines), two more than the fewest chunks where a copied plain run is
  followed by a kept chunk and a stop (``10 ja ja XII``). ``verbalize``
  must equal the full path, the tokens of the copy path must give the
  line back, and the line must pass ``cross_chunk_failures``;
- every run of 1-5 groups of 1-5 digits (``DIGIT_GROUPS``), each
  separator one of ``RUN_SEPARATORS``, and every run of 6-9 groups of 2-4
  digits joined by one separator throughout, each followed by each of
  ``RUN_TAILS``, with and without a leading "+" (10,105,260 + 1,399,680
  strings). ``_MASTER_RE`` must read a phone number where the shape's
  first formulation does, a match checked in Python
  (``reference_phone_end``);
- every string of 1-4 pieces from ``URL_PIECES`` (292,560 strings).
  The ``url`` group of ``_LINK_RE`` must end a URL at each position
  where the first formulation, a match trimmed in a loop, does
  (``reference_url_end``), and each string must pass ``link_failures``.

The tier-1 tests run the first check on every string of 3 pieces, the
phone check on the runs of up to 4 groups and of 6, and the URL check on
strings of up to 3 pieces; they share ``full_path``, ``copy_path``,
``cut_of`` and ``reference_plain_line_re`` as references. Run:

    python tools/exhaustive_check.py

It prints the size of each set and the first mismatches, and exits 1 if
any string fails. Standard library only; etnorm is imported from
``src/`` beside this file.
"""

from __future__ import annotations

import re
import sys
from itertools import chain, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from etnorm.folding import FoldingTable, fold_diacritics  # noqa: E402
from etnorm.lexicon import default_config  # noqa: E402
from etnorm.tokens import _LC, _PUNCT, _TLD_DOT, _UC, _VOWELS  # noqa: E402
from etnorm.tokens import _D, _DOMAIN_RUN, _LINK_RE, _MASTER_RE, _THOUSANDS, _URL_PREFIX  # noqa: E402
from etnorm.tokens import TokenKind, TokenList, detokenize, tokenize  # noqa: E402
from etnorm.verbalize import _RULES, _join, _line_words, _number_range, _ratio, _render_tokens, _roman  # noqa: E402
from etnorm.verbalize import verbalize  # noqa: E402

# words: plain, capitalized, an abbreviation with two expansions, lone
# letters of both cases, a spelled acronym and a Roman numeral; numbers of
# one, two and four digits and a zero; marks that join numbers, dates,
# times, ratios, ranges and URLs; symbols and a non-decimal numeric;
# whitespace the gate must keep (ASCII, no-break, Unicode line separator);
# the anchors of URLs and domains and the clock cue; a letter of the
# alphabet outside ASCII and one that folds
PIECES = (
    "ja", "Tere", "km", "a", "E", "MTÜ", "XX", "5", "12", "2020", "0",
    ".", ",", ":", "-", "–", "/", "@", "%", "€", "½",
    " ", "\xa0", "\u2028", "www.", ".ee", "http://", "kell ", "õ", "é",
)

# a plain word; the left cue of a Roman numeral and the numeral; a spaced
# ratio; an abbreviation with two expansions and a keyword that flips it;
# a word that folds, so the gate reads the line again; a symbol that is
# dropped, before which a mark is glued to what follows
CHUNKS = ("ja", "Karl", "summa", ":", "XII", "10", "km", "Zoë", "½")

_ASCII_DIGITS = frozenset("0123456789")
_LINK_KINDS = (TokenKind.URL, TokenKind.EMAIL)


def full_readings(text, config):
    """The tokens of ``text`` folded and their readings, as ``verbalize``
    renders them without its pass-through gate."""
    tokens = tokenize(fold_diacritics(text, config.folding))
    return tokens, _render_tokens(tokens, config)


def full_path(text, config):
    """``verbalize`` without its pass-through gate: every line is tokenized
    and every token offered to the rules."""
    return _join(*full_readings(text, config))


def tiles(tokens, readings) -> bool:
    """Whether the readings cover the tokens in order: the first starts at
    token 0, each later one just after the one before it ends, and the
    last ends at the last token. ``_join`` takes two readings for
    neighbours when one starts just after the other ends."""
    start = 0
    for first, last, _ in readings:
        if first != start:
            return False
        start = last + 1
    return start == len(tokens)


# The tokenizer's plain word in its first formulation: a letter of the
# alphabet and one or more lowercase ones, holding a vowel (found by a
# lookahead), with no letter or digit after it.
_CASED_VOWELS = "".join(sorted(_VOWELS)).upper() + "".join(sorted(_VOWELS))
_CASED_CONSONANTS = "".join(ch for ch in _UC + _LC if ch not in _CASED_VOWELS)
REFERENCE_PLAIN_WORD = rf"(?=[{_CASED_CONSONANTS}]*[{_CASED_VOWELS}])[{_UC}{_LC}][{_LC}]+(?![^\W_])"


def reference_plain_line_re(config):
    """``RuleConfig.plain_line_re`` in its first formulation: a separator
    (whitespace or a sentence mark, not at a top-level-domain dot) or a
    word (``REFERENCE_PLAIN_WORD`` that is, in no case, an abbreviation
    surface lowercase after its first letter, and that folding keeps), one
    piece each. The config's grammar must stop where this one does."""
    lowered = [s.lower() for s in config.abbreviations if s[1:] == s[1:].lower()]
    surfaces = [s for s in lowered if set(s) <= set(_LC) and not _VOWELS.isdisjoint(s)]
    not_surface = f"(?!(?i:{'|'.join(map(re.escape, surfaces))})(?![{_LC}]))" if surfaces else ""
    foldable = "".join(ch for ch in _UC + _LC if not ch.isascii() and ch not in config.folding.protected)
    kept = f"(?![{_UC}{_LC}]*[{foldable}])" if foldable else ""
    separator = rf"(?!{_TLD_DOT})[\s{_PUNCT}]"
    return re.compile(rf"(?:{separator}|{not_surface}{kept}{REFERENCE_PLAIN_WORD})*")


def copy_path(text, config):
    """The line ``verbalize`` tokenizes, ``text`` folded, and its tokens
    there, each run of plain text copied into one PLAIN token: one token
    when the line is plain to its end."""
    line = fold_diacritics(text, config.folding)
    return line, tokenize(line, _plain=config.plain_line_re.match)


def cut_of(tokens):
    """Where the copy path starts keeping tokens: None when it keeps none
    (the line is empty, or plain and copied whole), else the start of the
    first token after the PLAIN token that a copy from the start of the
    line makes, or 0 when no such copy is made."""
    if not tokens:
        return None
    if tokens[0].kind is not TokenKind.PLAIN:
        return 0
    return tokens[1].span[0] if len(tokens) > 1 else None


def may_read_across(rule, tokens, i) -> bool:
    """Whether ``rule`` at ``tokens[i]`` is one of the reads across chunks
    that the copy path keeps the tokens for: ``_roman``'s cues, also through
    ``_number_range`` on a run of capitals, and the spaced ``_ratio``."""
    return (
        rule is _roman
        or (rule is _number_range and tokens[i].kind is TokenKind.UPPERCASE_SEQ)
        or (rule is _ratio and not tokens[i].joined_right)
    )


def cross_chunk_failures(tokens, readings, config) -> list[str]:
    """The rule calls of the full path, at the first token of each reading,
    whose result changes when every token outside the chunks of that
    reading is re-kinded to PLAIN, other than ``may_read_across``. The
    words of the whole line, which an expansion is picked with, are read
    as they were."""
    chunk_of, chunk = [], 0
    for token in tokens:
        chunk_of.append(chunk)
        chunk += token.ws_after != ""
    context = _line_words(tokens)
    failed = []
    for first, last, _ in readings:
        own = range(chunk_of[first], chunk_of[last] + 1)
        rekinded = TokenList(t if chunk_of[j] in own else t.replace(kind=TokenKind.PLAIN) for j, t in enumerate(tokens))
        rekinded.abbreviation_context = context
        for rule in _RULES.get(tokens[first].kind, ()):
            hit = rule(tokens, first, config)
            if hit != rule(rekinded, first, config) and not may_read_across(rule, tokens, first):
                failed.append(f"{rule.__name__} at token {first} reads outside its chunks")
            if hit is not None:
                break
    return failed


def link_failures(text, config) -> list[str]:
    """The tokens of ``text``, without and with the copy path's grammar,
    at whose start ``_LINK_RE`` does not match exactly that token: a link
    there that the token is not, or a link token where it matches nothing.
    A try at every token start passes this by definition, so it is all
    that trying only at some token starts, and ruling others out, rests on."""
    failed = []
    for tokens in tokenize(text), tokenize(text, _plain=config.plain_line_re.match):
        pos = len(tokens.leading)
        for token in tokens:
            match = _LINK_RE.match(text, pos)
            link = (match.lastgroup, match.end(match.lastgroup)) if match else None
            if link != ((token.kind.value, pos + len(token.text)) if token.kind in _LINK_KINDS else None):
                failed.append(f"link at {pos}")
            pos += len(token.text) + len(token.ws_after)
    return failed


# Runs of digit groups for the phone shape: groups of 1-5 digits, the
# separators a phone or a thousands group may hold and ".", and what may
# follow a run
DIGIT_GROUPS = ("1", "12", "123", "1234", "12345")
RUN_SEPARATORS = (" ", "\xa0", "-", ".")
RUN_TAILS = ("", " ", "\xa0", "-", ".", "a")

# pieces of URLs: prefixes and a near miss, a domain and top-level
# domains, label and path characters, the marks a URL does not end in,
# and characters no URL holds
URL_PIECES = (
    "www.", "http://", "Https://", "www", "err", ".ee", ".com", ".", "/", "a", "5", "-", "_",
    ")", "(", "»", "”", ",", ":", "?", "'", " ", '"',
)

# The phone shape as first written: the "phone" group proposed a match,
# and Python rejected one without "+" that held fewer than 7 or more than
# 15 digits, mixed a dash with spaces or was grouped by thousands; the
# groups after "phone" then read the text again.
_REFERENCE_PHONE_RE = re.compile(
    rf"(?:\+{_D}(?:[ \xa0-]?{_D}){{6,14}}|{_D}{{2,4}}(?:[ \xa0-]{_D}{{2,4}}){{2,7}})(?!{_D})"
)
_REFERENCE_THOUSANDS_RE = re.compile(rf"{_THOUSANDS}$")
# The URL shape as first written: a match, then its trailing marks trimmed
# in a loop; a prefix trimmed to "www" or to nothing was no URL.
_REFERENCE_URL_RE = re.compile(rf"(?:{_URL_PREFIX})[^\s<>\"]*|{_DOMAIN_RUN}{_TLD_DOT}(?:/[^\s<>\"]*)?")
_REFERENCE_TRAILING = ".,;:!?)]}\"'»’”"


def reference_phone_end(text):
    """Where the phone number that starts ``text`` ends, or None."""
    match = _REFERENCE_PHONE_RE.match(text)
    if not match:
        return None
    surface = match.group()
    if surface[0] == "+":
        return match.end()
    digit_count = sum(ch.isdigit() for ch in surface)
    mixed = "-" in surface and (" " in surface or "\xa0" in surface)
    if 7 <= digit_count <= 15 and not mixed and not _REFERENCE_THOUSANDS_RE.match(surface):
        return match.end()
    return None


def reference_url_end(text, pos):
    """Where the URL at ``pos`` of ``text`` ends, or None."""
    match = _REFERENCE_URL_RE.match(text, pos)
    if not match:
        return None
    end = match.end()
    while end > pos and text[end - 1] in _REFERENCE_TRAILING:
        end -= 1
    surface = text[pos:end]
    return end if "." in surface or "://" in surface else None


def phone_failures(text, config) -> list[str]:
    """A failure when ``_MASTER_RE`` reads a phone number at the start of
    ``text`` other than the reference does (none, or one ending elsewhere)."""
    match = _MASTER_RE.match(text)
    end = match.end("phone") if match.lastgroup == "phone" else None
    return [] if end == reference_phone_end(text) else [f"phone ends at {end}"]


def url_failures(text, config) -> list[str]:
    """The positions of ``text`` where the ``url`` group of ``_LINK_RE``
    ends a URL elsewhere than the reference, and ``link_failures``."""
    failed = link_failures(text, config)
    for pos in range(len(text)):
        match = _LINK_RE.match(text, pos)
        end = match.end("url") if match and match.lastgroup == "url" else None
        if end != reference_url_end(text, pos):
            failed.append(f"URL at {pos} ends at {end}")
    return failed


def digit_runs(sizes, groups, one_separator=False):
    """Every run of ``sizes`` groups from ``groups``, its separators from
    ``RUN_SEPARATORS`` (the same one throughout with ``one_separator``),
    followed by each of ``RUN_TAILS``, with and without a leading "+"."""
    for size in sizes:
        if one_separator:
            joins = [(sep,) * (size - 1) for sep in RUN_SEPARATORS]
        else:
            joins = list(product(RUN_SEPARATORS, repeat=size - 1))
        for parts in product(groups, repeat=size):
            for join in joins:
                run = "".join(chain.from_iterable(zip(parts, join + ("",))))
                for tail in RUN_TAILS:
                    yield run + tail
                    yield "+" + run + tail


def url_strings(size):
    """Every string of 1 to ``size`` pieces from ``URL_PIECES``."""
    return chain.from_iterable(strings(URL_PIECES, n) for n in range(1, size + 1))


_REFERENCES = {}  # id(config) -> (config, its reference grammar); the config is kept so its id is not reused


def _reference_match(config):
    if id(config) not in _REFERENCES:
        _REFERENCES[id(config)] = config, reference_plain_line_re(config)
    return _REFERENCES[id(config)][1].match


def failures(text, config) -> list[str]:
    """The names of the checks that ``text`` fails."""
    try:
        spoken = verbalize(text, config)
    except Exception as error:  # noqa: BLE001 - totality is the check
        return [f"raises {type(error).__name__}"]
    failed = []
    if not _ASCII_DIGITS.isdisjoint(spoken):
        failed.append("digit in output")
    tokens, readings = full_readings(text, config)
    if spoken != _join(tokens, readings):
        failed.append("differs from the full path")
    if not tiles(tokens, readings):
        failed.append("readings do not tile")
    failed += cross_chunk_failures(tokens, readings, config)
    if detokenize(tokenize(text)) != text:
        failed.append("round trip")
    failed += link_failures(text, config)
    if config.plain_line_re.match(text).end() != _reference_match(config)(text).end():
        failed.append("grammar stop")
    table = config.folding
    if fold_diacritics(text, table) != "".join(table.fold_char(ch) for ch in text):
        failed.append("folding")
    return failed


def strings(pieces, size):
    """Every string of ``size`` pieces."""
    return ("".join(parts) for parts in product(pieces, repeat=size))


def copy_failures(text, config) -> list[str]:
    """The checks of the copy path that ``text`` fails."""
    failed = []
    if verbalize(text, config) != full_path(text, config):
        failed.append("differs from the full path")
    line, tokens = copy_path(text, config)
    if detokenize(tokens) != line:
        failed.append("copy path round trip")
    return failed + cross_chunk_failures(*full_readings(text, config), config)


def other_configs(config):
    """The bundled config with one table emptied: the variants whose
    output must hold no digit either."""
    return {
        "no symbols": config.replace(symbols={}),
        "no letter names": config.replace(letter_names={}),
        "no protected letters": config.replace(folding=FoldingTable(frozenset())),
        "no Roman context": config.replace(roman_context_stems=()),
        "no abbreviations": config.replace(abbreviations={}),
    }


def run(name, texts, check, config) -> int:
    count = bad = 0
    for text in texts:
        count += 1
        failed = check(text, config)
        if failed:
            bad += 1
            if bad <= 20:
                print(f"  {text!r}: {', '.join(failed)}")
    print(f"{name}: {count} strings, {bad} failing")
    return bad


def main() -> int:
    config = default_config()
    bad = run("4 pieces", strings(PIECES, 4), failures, config)
    for name, other in other_configs(config).items():
        bad += run(f"3 pieces, {name}", strings(PIECES, 3), failures, other)
    lines = (" ".join(parts) for parts in product(CHUNKS, repeat=6))
    bad += run("6 chunks", lines, copy_failures, config)
    bad += run("phone, 1-5 groups", digit_runs(range(1, 6), DIGIT_GROUPS), phone_failures, config)
    long_runs = digit_runs(range(6, 10), DIGIT_GROUPS[1:4], one_separator=True)
    bad += run("phone, 6-9 groups", long_runs, phone_failures, config)
    bad += run("URL, 1-4 pieces", url_strings(4), url_failures, config)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
