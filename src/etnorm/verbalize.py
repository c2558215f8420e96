"""The rule pipeline that rewrites text into fully spoken form.

Text is folded (diacritics outside the Estonian alphabet), tokenized,
rewritten token by token and reassembled. The rewriting is ``_RULES``:
for each token kind, the named rules tried in order, the first that
applies giving the spoken form of the tokens it covers. That table is
the one place the order of the rules is written down. Sections the rules
do not touch keep their original spacing, so plain sentences pass
through unchanged apart from diacritic folding.

Pass-through contract: the gate, the first step of ``verbalize``, is one
``fullmatch`` of the raw line against one grammar,
``RuleConfig.plain_line_re``, built from the tokenizer's own patterns and
the config. A line that it matches, a plain line, is returned as it is,
without folding or tokenizing. A plain line is separators and words. A
separator is whitespace or ``_SENTENCE_PUNCT`` that does not start a
top-level-domain dot. A word is the tokenizer's ``word`` token
(``tokens._plain_words``: a letter of ``_UC`` or ``_LC`` and one or more
of ``_LC``, holding a vowel, with no letter or digit after it) that is
no abbreviation surface as written or lowercased, and whose letters the
config's folding keeps (ASCII or protected ones). Folding changes
letters only, so a plain line is its own folding. It tokenizes to WORD
and PUNCT tokens only: every other kind needs a digit, a symbol, a run
of capitals, a case change inside a word or a domain. Of their rules,
the letter compound and the lone letter need a one-letter word, the
abbreviation rule a surface, and the rule of a dot, comma or hyphen a
number. The tokenizer is lossless, so the reassembled line is the line,
byte for byte. The gate may send a line nothing would rewrite (a title,
``Krt``) down the full path, which reads it the same.

Any other line is folded, tokenized and rendered. The tokenizer reads
the folded line with the same grammar and copies the plain text it finds
as it is, neither tokenized nor classified, into one PLAIN token per run
(the copy rule, ``tokenize``'s ``_plain``): from the start of the line,
and from each word that starts a chunk, up to the start of the chunk
where the grammar stops. No rule handles a PLAIN token, so ``_join``
reads it as a one-token reading spoken as written, like the words and
marks it stands for, and the gaps between tokens hold whitespace only.

This is exact. Copied text is plain, so its tokens are words and marks
that no rule rewrites, and the tokens kept are those of the whole line.
A rule reads its own token and the tokens joined to it (a letter
compound, a range, a case ending, the token joined before
``_mark_at_number``'s mark), and only two rules read a token in another
chunk; the tokenizer keeps each such token that a copy would change.
``_roman`` reads the word before a numeral (its left cue), so the chunk
before a stop chunk led by a Roman letter is kept, and the token after
the numeral (its right cue), so no copy starts right after a numeral.
Its dot cue reads only the first letter of the token after a dot joined
to the numeral, which a PLAIN token there shares with the word it starts
at. The spaced ``_ratio`` reads a colon and a number in the chunks after
its own; neither is a word, so no copy starts there.
``_join`` glues a mark to what follows a symbol dropped after it, so the
chunk before a stop chunk led by a character that is neither a letter
nor an ASCII digit is kept too. The pick of an expansion, which reads
further, reads the words of the PLAIN tokens too (``_line_words``).
``tools/exhaustive_check.py`` checks the claim (``cross_chunk_failures``):
no other rule call changes its result when every token outside the
chunks of its reading is made PLAIN.

What is derived from the config is cached on the ``RuleConfig`` on first
use: changing ``config.abbreviations`` in place after that is not
supported; build a new config with ``load_config`` or ``config.replace``.
"""

from __future__ import annotations

import re
from itertools import chain

from . import numwords
from .folding import fold_diacritics
from .lexicon import RuleConfig, default_config
from .numwords import _CARDINAL_DIGITS, NOMINATIVE, _is_ascii_digits, cardinal, decimal, digits, ordinal
from .romans import roman_value
from .tokens import _ATTACHED_SUFFIX_RE, _LC, _UC, _URL_SCHEME, _VOWELS, CASE_SUFFIXES
from .tokens import TokenKind, TokenList, tokenize

_SEGMENT_RE = re.compile(rf"[{_UC}]+(?![{_LC}])|[{_UC}][{_LC}]+|[{_LC}]+|[0-9]+|[^\W\d_]+")
_DIGIT_GROUP_SEP_RE = re.compile(r"[ \xa0.\-]+")  # between the digit groups of a phone number or ID
_DECIMAL_MARK_RE = re.compile(r"[.,]")
_TITLE_MIN_LENGTH = 6  # a run of capitals this long is a word set in capitals; a shorter one is an acronym
_URL_SCHEME_RE = re.compile("^" + _URL_SCHEME)
_URL_PIECE_RE = re.compile(r"[^\W_]+|.")  # a label or one character
_LOWER_RUN_RE = re.compile(f"[{_LC}]+")  # a word of lowercased plain text

_WORDISH_KINDS = frozenset({TokenKind.WORD, TokenKind.UPPERCASE_SEQ, TokenKind.MIXED_CASE, TokenKind.LOWERCASE_CONSONANTS})
# tokens read out as numbers, between which a joined dot or comma is spoken
_NUMBER_KINDS = frozenset(
    {TokenKind.CARDINAL_NUMBER, TokenKind.DECIMAL_NUMBER, TokenKind.DIGIT_GROUP_SEQ,
     TokenKind.DATE_LIKE, TokenKind.TIME_LIKE, TokenKind.PHONE}
)
# numbers a minus sign may open
_SIGNED_KINDS = frozenset({TokenKind.CARDINAL_NUMBER, TokenKind.DECIMAL_NUMBER, TokenKind.DIGIT_GROUP_SEQ})
_MARK_KINDS = frozenset({TokenKind.PUNCT, TokenKind.SYMBOL})


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


def _pick_expansion(entry, line) -> str:
    """The expansion of ``entry`` that scores highest in the context of
    ``line`` (``_line_words``): weight * (1 + its keywords among them);
    ties go to the expansion listed first. An entry with one expansion
    has nothing to choose, and builds no context."""
    if len(entry.expansions) == 1:
        return entry.expansions[0].text
    words = _line_words(line)
    return max(entry.expansions, key=lambda e: e.weight * (1 + sum(kw in words for kw in e.keywords))).text


def _line_words(line) -> frozenset[str]:
    """The lowered words of ``line``'s word-like tokens, and those of its
    PLAIN tokens, the text ``verbalize`` copied: the context an
    expansion is picked in. Built on the first abbreviation with more than
    one expansion and kept on the token list, so a line costs one pass
    over its words however many abbreviations it holds."""
    words = line.abbreviation_context
    if words is None:
        plain, wordish = [], []
        for t in line:
            if t.kind is TokenKind.PLAIN:  # copied text is plain: marks and words of the alphabet's letters
                plain.append(t.text)
            elif t.kind in _WORDISH_KINDS:
                wordish.append(t.text.lower())
        words = frozenset(chain(_LOWER_RUN_RE.findall(" ".join(plain).lower()), wordish))
        line.abbreviation_context = words
    return words


def verbalize_digit_sequence(token: str, config: RuleConfig | None = None) -> str:
    """Read a long digit sequence one digit at a time.

    Grouping separators become pauses (commas); a leading plus sign is
    spoken through the symbol table ("pluss"), or dropped if it is unlisted.
    """
    config = config or default_config()
    rest = token.removeprefix("+")
    groups = [g for g in _DIGIT_GROUP_SEP_RE.split(rest) if g]
    if not groups or not all(_is_ascii_digits(g) for g in groups):
        raise ValueError(f"expected digits with optional grouping, got {token!r}")
    spoken = ", ".join(digits(g, config.numbers) for g in groups)
    plus = config.symbols.get("+") if rest != token else None
    return f"{plus} {spoken}" if plus else spoken


def verbalize_mixed_case(token: str, config: RuleConfig | None = None) -> str:
    """Read a mixed-case or digit-bearing name segment by segment.

    Splits at lowercase-to-uppercase and letter-digit boundaries. Single
    letters and all-uppercase runs are spelled, runs of 0-9 become numbers,
    and word segments are lowercased (with the foreign letter c read as k);
    adjacent word segments merge back into one word. Other numeric
    characters (other scripts' digits, superscripts, fractions, Roman
    numeral signs) are dropped, as they are outside a name, where the
    tokenizer makes each an unlisted symbol.
    """
    config = config or default_config()
    if token.isalpha() and token.isupper():
        return _render_uppercase(token, config, TokenList())  # a name read alone has no line
    out, prev_glue = "", None
    for segment in _SEGMENT_RE.findall(token):
        # glue: what joins the segment to one before it of the same kind
        if _is_ascii_digits(segment):
            glue, text = None, _render_cardinal_text(segment, config)
        else:
            if not segment.isalpha():
                segment = "".join(ch for ch in segment if ch.isalpha())
                if not segment:
                    continue
            if len(segment) == 1 or segment.isupper() or _VOWELS.isdisjoint(segment.lower()):
                glue, text = "-", _safe_spell(segment, config)
            else:
                glue, text = "", segment.lower().replace("c", "k")
        if out:
            out += glue if glue is not None and glue == prev_glue else " "
        out += text
        prev_glue = glue
    return out


def _safe_spell(token: str, config: RuleConfig, suffix: str | None = None) -> str:
    if len(token) == 1 and not suffix:  # one letter: its name, or the letter when it has none
        return config.letter_names.get(token.upper(), token)
    try:
        return spell_letters(token, config.letter_names, suffix)
    except ValueError:
        return token + (suffix or "")


def _render_uppercase(surface: str, config: RuleConfig, line: TokenList) -> str:
    suffix = None
    if not surface.isupper():  # a case ending attached to the run: "MTÜle", "EAS-i"
        surface, suffix = _ATTACHED_SUFFIX_RE.fullmatch(surface).groups()
    entry = config.abbreviations.get(surface)
    spoken = None if entry is None else _read_entry(surface, entry, config, line, suffix)
    if spoken is not None:
        return spoken
    if len(surface) >= _TITLE_MIN_LENGTH:
        return surface + (suffix or "")
    return _safe_spell(surface, config, suffix)


def _read_entry(surface: str, entry, config: RuleConfig, line: TokenList, suffix: str | None = None) -> str | None:
    """How a dictionary abbreviation is read: spelled, kept as written, or
    the expansion ``_pick_expansion`` picks with the words of ``line`` as
    context. None when a case ending is attached to an expanded entry."""
    if entry.force_spellout:
        return _safe_spell(surface, config, suffix)
    if entry.speak_as_word:
        return surface + (suffix or "")
    if suffix is not None:
        return None
    return _pick_expansion(entry, line)


def _render_cardinal_text(text: str, config: RuleConfig, value: int | None = None) -> str:
    """A run of 0-9 read as a cardinal, with ``value`` its value when the
    caller has parsed it. Zero-led runs and numbers too large to name are
    read digit by digit."""
    if (text[0] == "0" and len(text) > 1) or len(text) > _CARDINAL_DIGITS:
        return digits(text, config.numbers)
    return cardinal(int(text) if value is None else value, NOMINATIVE, config.numbers)


# The rules. Each reads ``tokens[i]``, the first token it would cover, and
# returns ``(last, spoken)``: the spoken form of ``tokens[i..last]``. None
# means the rule does not apply there.


def _letter_compound(tokens, i, config):
    """A letter-hyphen compound ("e-post", "A-rühm") stays as written."""
    if len(tokens[i].text) == 1 and tokens[i].joined_right and i + 2 < len(tokens):
        dash, word = tokens[i + 1], tokens[i + 2]
        word_of_letters = word.kind in _WORDISH_KINDS and len(word.text) > 1 and word.text.isalpha()
        if dash.text == "-" and dash.joined_right and word_of_letters:
            return i, tokens[i].text
    return None


def _number_range(tokens, i, config):
    """A hyphen or en dash joined to two numbers of ``_RANGE_KINDS`` reads
    "a kuni b": "5-7", "5.–7.", "10:30-11:00". Each number is read by the
    last rule of its kind, two runs of capitals by ``_roman`` as one span of
    numerals ("XIX-XX sajand"); a run of capitals and a number are no range."""
    if not tokens[i].joined_right or i + 2 >= len(tokens):
        return None
    a, dash, b = tokens[i], tokens[i + 1], tokens[i + 2]
    if dash.text not in ("-", "–") or not dash.joined_right or not {a.kind, b.kind} <= _RANGE_KINDS:
        return None
    if TokenKind.UPPERCASE_SEQ in (a.kind, b.kind):
        return _roman(tokens, i, config, i + 2) if a.kind is b.kind else None
    left = _RULES[a.kind][-1](tokens, i, config)[1]
    return i + 2, f"{left} kuni {_RULES[b.kind][-1](tokens, i + 2, config)[1]}"


def _ratio(tokens, i, config):
    """A colon between numbers: a ratio, or a division when joined to
    numbers above 999. A spaced one reads the chunks after its own, a
    colon and a number, at which no copy starts (see the module docstring)."""
    if i + 2 < len(tokens) and tokens[i + 1].text == ":" and tokens[i + 2].kind is TokenKind.CARDINAL_NUMBER:
        a, colon, b = tokens[i], tokens[i + 1], tokens[i + 2]
        spaced = not a.joined_right and not colon.joined_right
        if spaced or (a.joined_right and colon.joined_right):
            a_value, b_value = int(a.text), int(b.text)
            word = "koolon" if spaced or (a_value <= 999 and b_value <= 999) else "jagatud"
            left = _render_cardinal_text(a.text, config, a_value)
            return i + 2, f"{left} {word} {_render_cardinal_text(b.text, config, b_value)}"
    return None


def _joined_ending(tokens, i):
    """The index of a lowercase case ending joined after ``tokens[i]``,
    directly or by a hyphen ("20ks", "2023-ks", "kpl-i"), or None."""
    if not tokens[i].joined_right or i + 1 == len(tokens):
        return None
    last = i + 2 if tokens[i + 1].text == "-" and tokens[i + 1].joined_right else i + 1
    ending = tokens[last].text if last < len(tokens) else ""
    return last if ending in CASE_SUFFIXES and ending.islower() else None


def _case_ending(tokens, i, config):
    """A case ending attached to a number ("20ks", "2023-ks") follows the
    genitive stem."""
    last = None if tokens[i].text[0] == "0" else _joined_ending(tokens, i)
    if last is None:
        return None
    return last, cardinal(int(tokens[i].text), numwords.GENITIVE, config.numbers) + tokens[last].text


def _cardinal(tokens, i, config):
    return i, _render_cardinal_text(tokens[i].text, config)


def _ordinal(tokens, i, config):
    body = tokens[i].text[:-1]
    value = int(body)
    if body[0] != "0" and value <= numwords.MAX_ORDINAL:
        return i, ordinal(value, NOMINATIVE, config.numbers)
    return i, _render_cardinal_text(body, config, value)


def _mark_at_number(tokens, i, config):
    """A dot, comma, hyphen or en dash joined before a number, read by what
    is joined before it.

    After a number, or a name ending in a digit, a dot is spoken "punkt" and
    a comma as the lexicon's decimal separator: "1.1.10000", "1,5,7",
    "v1.2.3", "A3,5". After nothing, or a mark other than a dot, comma or
    dash, the mark opens the number: a hyphen or an en dash is a minus sign,
    read by the symbol table's entry for "−" ("-5 kraadi", "(–5)"), and a
    dot or a comma before a run of digits is a decimal mark after 0 (".5"
    reads as "0,5"; a run that starts a range, ".5-7", is left to the
    range). After a word or a run of marks, the mark stays as written."""
    if i + 1 == len(tokens) or tokens[i + 1].kind not in _NUMBER_KINDS:
        return None
    mark, right = tokens[i], tokens[i + 1]
    if mark.text not in ("-", "–", ".", ",") or not mark.joined_right:
        return None
    left = tokens[i - 1] if i and tokens[i - 1].joined_right else None  # joined before the mark
    if left is None or (left.kind in _MARK_KINDS and left.text not in ".,-–—"):
        if mark.text in "-–":
            spoken = config.symbols.get("−")
            return (i, spoken) if spoken and right.kind in _SIGNED_KINDS else None
        if _is_ascii_digits(right.text) and not _number_range(tokens, i + 1, config):
            return i + 1, decimal("0", right.text, config.numbers)
        return None
    number_left = left.kind in _NUMBER_KINDS or (
        left.kind is TokenKind.MIXED_CASE and _is_ascii_digits(left.text[-1])
    )
    if mark.text in ".," and number_left:
        return i, "punkt" if mark.text == "." else config.numbers.words["decimal.separator"]
    return None


def _roman(tokens, i, config, last=None):
    """Capitals read as an ordinal when they are a well-formed Roman numeral, at
    most ``MAX_ORDINAL`` and no dictionary surface, and have a context cue: a
    joined dot before a lowercase word, which is its ordinal mark and is read
    with it; an era or part keyword, or a capitalized word, to the right; or a
    capitalized word to the left. With ``last``, the numerals at ``i`` and
    ``last`` are a range, which the cues around the whole span license or refuse
    as one. The cues read the chunks beside the numeral's, which the tokenizer
    keeps: ``tokens._copy_end`` keeps the chunk before a stop chunk led by a
    Roman letter, and no copy starts right after a numeral
    (``_roman_reads_next``). The dot cue needs no rule: it reads the first
    letter of the token after the dot, and a PLAIN token there starts with the
    word it replaces, as a copy starts at a word that starts a chunk."""
    values = [roman_value(tokens[i].text)]
    if last is None:
        last = i
    else:
        values.append(roman_value(tokens[last].text))
    if None in values:  # no numeral: turned away before any cue is read
        return None
    left = tokens[i - 1] if i > 0 else None
    right = tokens[last + 1] if last + 1 < len(tokens) else None
    dot_cue = (
        right is not None
        and right.text == "."
        and tokens[last].joined_right
        and last + 2 < len(tokens)
        and tokens[last + 2].text[:1].islower()
    )
    cue = (
        dot_cue
        or (
            right is not None
            and right.kind in _WORDISH_KINDS
            and (
                right.text.lower().startswith(config.roman_context_stems)
                or (right.kind is TokenKind.WORD and right.text[:1].isupper())
            )
        )
        or (left is not None and left.kind is TokenKind.WORD and left.text[:1].isupper())
    )
    if not cue or max(values) > numwords.MAX_ORDINAL or any(tokens[j].text in config.abbreviations for j in (i, last)):
        return None
    return (last + 1 if dot_cue else last), " kuni ".join(ordinal(v, NOMINATIVE, config.numbers) for v in values)


def _uppercase(tokens, i, config):
    return i, _render_uppercase(tokens[i].text, config, tokens)


def _abbreviation(tokens, i, config):
    """A dictionary abbreviation, looked up as written, then lowercased; an
    entry flagged ``word`` or ``spellout`` reads a case ending joined after it."""
    text = tokens[i].text
    entry = config.abbreviations.get(text) or config.abbreviations.get(text.lower())
    if entry is None:
        return None
    last = _joined_ending(tokens, i)
    spoken = None if last is None else _read_entry(text, entry, config, tokens, tokens[last].text)
    return (i, _read_entry(text, entry, config, tokens)) if spoken is None else (last, spoken)


def _spelled(tokens, i, config):
    return i, _safe_spell(tokens[i].text, config)


def _lone_letter(tokens, i, config):
    return _spelled(tokens, i, config) if len(tokens[i].text) == 1 else None


def _mixed_case(tokens, i, config):
    return i, verbalize_mixed_case(tokens[i].text, config)


def _decimal(tokens, i, config):
    int_part, frac_part = _DECIMAL_MARK_RE.split(tokens[i].text, maxsplit=1)
    return i, decimal(int_part, frac_part, config.numbers)


def _grouped(tokens, i, config):
    """Digits grouped by thousands ("2 500 000", "1.000.000") read as a
    cardinal, or digit by digit when they start with 0 or are above
    ``MAX_CARDINAL``. A run with no separator, which the tokenizer makes
    this kind only from 7 digits on, is read digit by digit."""
    text = tokens[i].text
    digits_only = _DIGIT_GROUP_SEP_RE.sub("", text)
    if digits_only == text or digits_only[0] == "0" or len(digits_only) > _CARDINAL_DIGITS:
        return i, verbalize_digit_sequence(text, config)
    return i, cardinal(int(digits_only), NOMINATIVE, config.numbers)


def _phone(tokens, i, config):
    return i, verbalize_digit_sequence(tokens[i].text, config)


def _date(tokens, i, config):
    day, month, year = tokens[i].text.split(".")
    parts = []
    for raw, upper in ((day, 31), (month, 12)):
        value = int(raw)
        if 1 <= value <= upper:
            parts.append(ordinal(value, NOMINATIVE, config.numbers))
        else:
            parts.append(_render_cardinal_text(raw, config, value))
    parts.append(_render_cardinal_text(year, config))
    return i, " ".join(parts)


def _time(tokens, i, config):
    parts = tokens[i].text.split(":")
    return i, " koolon ".join(cardinal(int(part), NOMINATIVE, config.numbers) for part in parts)


def _link(tokens, i, config):
    """A URL or an e-mail address, read a label or one character at a time."""
    text = tokens[i].text
    body = _URL_SCHEME_RE.sub("", text) or text.partition(":")[0]  # a scheme with no host reads its name
    parts: list[str] = []
    for piece in _URL_PIECE_RE.findall(body):
        if piece == ".":
            if not parts or parts[-1]:  # the dot after a label read as nothing is not spoken
                parts.append("punkt")
        elif piece == "_":
            parts.append("alakriips")
        elif piece == "-":
            parts.append("sidekriips")
        elif len(piece) == 1 and not piece.isalnum():  # "@", "/", "+", ...: spoken or dropped
            spoken = config.symbols.get(piece)
            if spoken:
                parts.append(spoken)
        elif piece.lower() == "www":
            parts.append("vee-vee-vee")
        elif _is_ascii_digits(piece):
            parts.append(digits(piece, config.numbers))
        else:
            parts.append(verbalize_mixed_case(piece, config))
    return i, " ".join(p for p in parts if p)


def _symbol(tokens, i, config):
    """An audible symbol is spoken; any other is dropped."""
    return i, config.symbols.get(tokens[i].text, "")


# TokenKind -> the rules tried in order on a token of that kind; the first
# that applies is used. A token no rule applies to passes through.
_RULES = {
    TokenKind.WORD: (_letter_compound, _abbreviation, _lone_letter),
    TokenKind.UPPERCASE_SEQ: (_number_range, _letter_compound, _roman, _uppercase),
    TokenKind.CARDINAL_NUMBER: (_number_range, _ratio, _case_ending, _cardinal),
    TokenKind.ORDINAL_DOT: (_number_range, _ordinal),
    TokenKind.PUNCT: (_mark_at_number,),
    TokenKind.LOWERCASE_CONSONANTS: (_abbreviation, _spelled),
    TokenKind.MIXED_CASE: (_mixed_case,),
    TokenKind.DECIMAL_NUMBER: (_number_range, _decimal),
    TokenKind.DIGIT_GROUP_SEQ: (_number_range, _grouped),
    TokenKind.PHONE: (_number_range, _phone),
    TokenKind.DATE_LIKE: (_number_range, _date),
    TokenKind.TIME_LIKE: (_number_range, _time),
    TokenKind.URL: (_link,),
    TokenKind.EMAIL: (_link,),
    TokenKind.SYMBOL: (_symbol,),
}
# the kinds a range joins; of each but a run of capitals, the last rule never declines
_RANGE_KINDS = frozenset(kind for kind, rules in _RULES.items() if _number_range in rules)


def _render_tokens(tokens: TokenList, config: RuleConfig) -> list[tuple[int, int, str]]:
    """The readings of ``tokens``, in order: ``(first, last, spoken)``, the spoken form of ``tokens[first..last]``."""
    readings = []
    i = 0
    while i < len(tokens):
        t = tokens[i]
        for rule in _RULES.get(t.kind, ()):
            hit = rule(tokens, i, config)
            if hit is not None:
                last, spoken = hit
                break
        else:
            last, spoken = i, t.text
        readings.append((i, last, spoken))
        i = last + 1
    return readings


def _join(tokens: TokenList, readings: list[tuple[int, int, str]]) -> str:
    out = [tokens.leading]
    prev_last, prev_modified, prev_mark = None, True, False  # no reading yet, so no whitespace kept after it
    for first, last, spoken in readings:
        if spoken == "":
            continue
        token = tokens[first]
        modified = last != first or spoken != token.text
        # a spoken dot ("punkt") is spaced as a word, not as punctuation
        mark = not modified and token.kind is TokenKind.PUNCT
        if prev_last is not None:
            gap = tokens[first - 1].ws_after
            if prev_last == first - 1 and not prev_modified and not modified:
                sep = gap
            elif gap == "" and (mark or prev_mark):  # also across a dropped symbol (see tokens._copy_end)
                sep = ""
            else:
                sep = " "
            out.append(sep)
        out.append(spoken)
        prev_last, prev_modified, prev_mark = last, modified, mark
    if not prev_modified:
        out.append(tokens[prev_last].ws_after)
    return "".join(out)


def verbalize(text: str, config: RuleConfig | None = None) -> str:
    """Rewrite ``text`` into fully spoken form under ``config``."""
    config = config or default_config()
    if config.plain_line_re.fullmatch(text):  # a plain line: its own folding, and no rule rewrites it
        return text
    line = fold_diacritics(text, config.folding)
    tokens = tokenize(line, _plain=config.plain_line_re.match)
    return _join(tokens, _render_tokens(tokens, config))
