"""Decoding generator output into verifiable sketches.

A sketch is one JSON object, {"answer": <label>, "claims": [<sentence>,
...]}, where every claim is a short unary sentence such as "anne is kind"
or "bob is not green". Generators do not always comply, so parsing runs
a bounded repair pass before giving up:

    1. keep the first balanced {...} span, discarding code fences and
       surrounding prose
    2. remove trailing commas before } or ]
    3. normalize smart quotes to plain quotes
    4. case-fold the answer into {True, False, Unknown}, mapping the
       synonyms yes/no/cannot be determined/unproven/uncertain

One decoder makes both passes. Output that it decodes as it stands, with
exact labels, is Clean; output that needs any repair step is Repaired.
Everything else is Failed: the claims are emptied and the answer falls
back to the last occurrence of a label word anywhere in the raw text
(Unknown when none appears). A sketch whose claims all fail to
canonicalize is likewise Failed, since an unverifiable sketch has no
standing.

parse_sketch takes the completion text and never raises, whatever bytes
the generator produced. anchor_claims then keeps the claims about the
queried entity and counts the rest as dropped.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from typing import Any, Callable, NamedTuple

from .theory import Label, Literal, ParseError, Question, Theory, _parse_fact, _words

_LABEL_VALUES = tuple(label.value for label in Label)
_LABEL_WORD_RE = re.compile(rf"\b({'|'.join(_LABEL_VALUES)})\b", re.IGNORECASE)
_TRAILING_COMMA_RE = re.compile(r",(\s*[}\]])")
_CONTRACTION_RE = re.compile(r"\bisn'?t\b", re.IGNORECASE)
# The characters that move a span scan: braces, quotes and backslashes.
_SPAN_CHARS_RE = re.compile(r'[{}"\\]')

_SMART_QUOTES = str.maketrans({"“": '"', "”": '"', "„": '"',
                               "‘": "'", "’": "'", "‚": "'"})

_ANSWER_SYNONYMS = {
    "yes": Label.TRUE,
    "no": Label.FALSE,
    "cannot be determined": Label.UNKNOWN,
    "unproven": Label.UNKNOWN,
    "uncertain": Label.UNKNOWN,
}


class ParseStatus(str, Enum):
    CLEAN = "Clean"
    REPAIRED = "Repaired"
    FAILED = "Failed"


class ParsedSketch(NamedTuple):
    """Decoded sketch: an answer plus canonical, deduplicated claims, none
    when Failed. parse_sketch makes it and guarantees both; anchor_claims
    only removes claims, adding each removed one to dropped_claims."""

    answer: Label
    claims: tuple[Literal, ...]
    parse_status: ParseStatus
    dropped_claims: int = 0


def _balanced_object_span(text: str) -> str | None:
    """First {...} span with balanced braces, tracking JSON string context:
    the span a scan from each "{" in turn would find first, in one pass.

    A scan is in one of three string states at each character: outside a
    string, inside one, or just after a backslash inside one. Scans in the
    same state at the same character move in step from there on, their
    depths a constant apart, so the pass follows one track per state. A
    track keeps its depth and, for each depth that an unclosed "{" on it
    closes at, the first such "{". Where two tracks reach the same state
    they merge, the smaller into the larger.
    """
    first = text.find("{")
    if first == -1:
        return None
    # A track is [depth, {depth before an unclosed "{": its position}].
    outside = inside = escaped = None
    best: tuple[int, int] | None = None
    next_position = first
    for match in _SPAN_CHARS_RE.finditer(text, first):
        position, char = match.start(), match.group()
        if position != next_position and escaped is not None:
            # The ordinary character after a backslash ended the escape.
            inside, escaped = _merge_tracks(inside, escaped), None
        next_position = position + 1
        if char == '"':
            outside, inside, escaped = inside, _merge_tracks(outside, escaped), None
        elif char == "\\":
            inside, escaped = escaped, inside
        else:
            if escaped is not None:
                inside, escaped = _merge_tracks(inside, escaped), None
            if char == "{":
                if outside is None:
                    outside = [0, {}]
                outside[1][outside[0]] = position
                outside[0] += 1
            elif outside is not None:  # "}"
                outside[0] -= 1
                start = outside[1].pop(outside[0], None)
                if start is not None and (best is None or start < best[0]):
                    best = (start, position)
                if not outside[1]:
                    outside = None
                    if inside is None and escaped is None:
                        break  # every later "{" starts after best
    return None if best is None else text[best[0] : best[1] + 1]


def _merge_tracks(a: list | None, b: list | None) -> list | None:
    if a is None or b is None:
        return a if b is None else b
    if len(a[1]) < len(b[1]):
        a, b = b, a
    shift = a[0] - b[0]
    opens = a[1]
    for depth, start in b[1].items():
        depth += shift
        if depth not in opens or start < opens[depth]:
            opens[depth] = start
    return a


def _fold_answer(raw: Any) -> Label | None:
    if not isinstance(raw, str):
        return None
    return Label.from_text(raw) or _ANSWER_SYNONYMS.get(raw.strip().lower())


def _exact_label(raw: Any) -> Label | None:
    return Label(raw) if raw in _LABEL_VALUES else None


def _repair(text: str) -> str:
    """The first balanced {...} span with trailing commas removed and smart
    quotes made plain; empty when text has no such span."""
    span = _balanced_object_span(text) or ""
    return _TRAILING_COMMA_RE.sub(r"\1", span).translate(_SMART_QUOTES)


def _decode(text: str, fold: Callable[[Any], Label | None]) -> tuple[Label, list[str]] | None:
    """The answer, folded by fold, and claim strings of one JSON object."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        return None
    if not isinstance(obj, dict):
        return None
    answer, claims = fold(obj.get("answer")), obj.get("claims")
    if answer is None or not isinstance(claims, list):
        return None
    return (answer, claims) if all(isinstance(claim, str) for claim in claims) else None


def last_label_word(text: str) -> Label | None:
    """The last of the words True/False/Unknown in text, in any case."""
    words = _LABEL_WORD_RE.findall(text)
    return Label.from_text(words[-1]) if words else None


def canonicalize_claim(claim_text: str, theory: Theory) -> Literal | None:
    """Map one claim sentence onto the theory's vocabulary, or None.

    Accepts "<entity> is [not] <attribute>" with "isn't" expanded to
    "is not". Both symbols must already be known to the theory; a claim
    about unknown vocabulary is unverifiable and therefore unmappable.
    """
    expanded = _CONTRACTION_RE.sub("is not", claim_text.strip().rstrip("."))
    try:
        literal = _parse_fact(_words(expanded))
    except ParseError:
        return None
    if literal.entity not in theory.entities or literal.attribute not in theory.attributes:
        return None
    return literal


def parse_sketch(text: str, theory: Theory) -> ParsedSketch:
    """Decode raw generator text into a ParsedSketch. Total: never raises."""
    status = ParseStatus.CLEAN
    decoded = _decode(text, _exact_label)
    if decoded is None:
        status = ParseStatus.REPAIRED
        decoded = _decode(_repair(text), _fold_answer)
    if decoded is None:
        return ParsedSketch(last_label_word(text) or Label.UNKNOWN, (), ParseStatus.FAILED)

    answer, claim_texts = decoded
    claims: list[Literal] = []
    dropped = 0
    for claim_text in claim_texts:
        literal = canonicalize_claim(claim_text, theory)
        if literal is None:
            dropped += 1
        elif literal not in claims:
            claims.append(literal)
    if not claims:
        return ParsedSketch(last_label_word(text) or Label.UNKNOWN, (), ParseStatus.FAILED,
                            dropped_claims=dropped)
    return ParsedSketch(answer, tuple(claims), status, dropped_claims=dropped)


def anchor_claims(parsed: ParsedSketch, question: Question) -> ParsedSketch:
    """parsed with only its claims about the queried entity, in order; the
    others are added to dropped_claims."""
    anchored = tuple(claim for claim in parsed.claims if claim.entity == question.target.entity)
    if len(anchored) == len(parsed.claims):
        return parsed
    dropped = parsed.dropped_claims + len(parsed.claims) - len(anchored)
    return parsed._replace(claims=anchored, dropped_claims=dropped)
