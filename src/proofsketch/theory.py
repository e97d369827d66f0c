"""Vocabulary and parsers for unary logical theories.

A theory talks about entities (named individuals) and attributes (unary
properties). Facts assert that an entity has, or explicitly lacks, an
attribute. Rules are definite clauses over attributes of a single subject:
if the subject satisfies every body condition, it satisfies the head.
A rule's subject is either one named entity or a universal placeholder
that ranges over every entity the theory mentions.

Negation here is classical and explicit. "anne is not green" is an
assertion in its own right, not the absence of "anne is green". Questions
therefore have three possible labels: True, False, Unknown.

Two input formats are supported.

Natural-language text is a sequence of period-terminated sentences, in
which, as in claims and declarative questions, any run of whitespace
reads as one space:

    FACT      <Name> is [not] <Attribute>.
    RULE-IF   If <someone|something|Name> is [not] <Attr> [and [is] [not]
              <Attr> ...] then <they|it|Name> is/are [not] <Attr>.
    RULE-ALL  All <Attr>[, <Attr>] (people|things) are [not] <Attr>.

Questions are either declarative ("Anne is kind.") or interrogative
("Is Anne kind?"), both naming a single entity/attribute pair. A 'not'
needs an attribute after it: "Anne is not." is an error.

The structured format is a JSON object:

    {"facts": [{"entity": ..., "attribute": ..., "negated": ...}],
     "rules": [{"subject": "*" | <name>,
                "body": [{"attribute": ..., "negated": ...}],
                "head": {"attribute": ..., "negated": ...}}]}

A structured theory reaches the generator as Theory.to_text, so each of
its facts and rules must read back from its own sentence as itself:
the reader renders each element and parses the sentence again, and a
fact entity 'if' ("If is big.") or a rule subject 'someone' is rejected
that way. The sentence grammar is stated once, in the parser.

All symbols pass through one canonicalizer, so "Anne", " anne " and
"Anne." name the same entity, and "the bald eagle" becomes "bald-eagle".
The canonicalizer is memoized: it keeps the canonical forms of the last
_SYMBOL_CACHE_SIZE distinct raw strings it was given.
The parsers are the only place text becomes a symbol, so Literal and Rule
take their names as given.

A Theory holds its asserted facts of both polarities in one literal set;
a fact asserted together with its negation is rejected at construction.

Literal, Rule and Question are named tuples and Theory is a slotted
class, all immutable. Rule checks its fields in __new__, and CheckedTuple
gives it, like each checked named tuple, a _make that checks too.
Literal and Rule compare and hash as the tuples of their fields; Theory
and Question compare on what they say, not on the text they were read from.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from typing import Any, Iterable, NamedTuple

_ARTICLES = ("the", "a", "an")
_DISALLOWED_RE = re.compile(r"[^a-z0-9 \-]")
_HYPHEN_RUN_RE = re.compile(r"-{2,}")
# Raw strings whose canonical form canonicalize_symbol keeps: a theory
# repeats its few symbols in every sentence, and questions and sketch
# claims repeat them again.
_SYMBOL_CACHE_SIZE = 4096

# The sentence patterns read text that has been through _words.
_FACT_RE = re.compile(r"^(?P<subj>.+?) is (?:(?P<neg>not) )?(?P<attr>.+)$", re.IGNORECASE)
_IF_RE = re.compile(r"^if (?P<body>.+?) then (?P<head>.+)$", re.IGNORECASE)
_AND_RE = re.compile(r" and ", re.IGNORECASE)
_ALL_RE = re.compile(
    r"^all (?P<attrs>.+?) (?:people|things) are (?:(?P<neg>not) )?(?P<head>.+)$", re.IGNORECASE
)
_COND_FULL_RE = re.compile(
    r"^(?P<ref>.+?) (?:is|are) (?:(?P<neg>not) )?(?P<attr>.+)$", re.IGNORECASE
)
_COND_BARE_RE = re.compile(r"^(?:(?:is|are) )?(?:(?P<neg>not) )?(?P<attr>.+)$", re.IGNORECASE)

_UNIVERSAL_SUBJECTS = frozenset({"someone", "something"})
_PRONOUN_REFS = frozenset({"they", "it"})
_QUESTION_WORDS = frozenset({"who", "whom", "whose", "what", "which", "where", "when", "why", "how"})


class ParseError(ValueError):
    """A sentence falls outside the supported grammar."""

    def __init__(self, reason: str, sentence_index: int | None = None,
                 sentence: str | None = None) -> None:
        self.reason = reason
        self.sentence_index = sentence_index
        self.sentence = sentence
        where = f"sentence {sentence_index}: " if sentence_index is not None else ""
        shown = f" ({sentence!r})" if sentence else ""
        super().__init__(f"{where}{reason}{shown}")


class EmptySymbolError(ParseError):
    """Nothing is left of a symbol after canonicalization."""


class InconsistentFactsError(ValueError):
    """Both polarities of the same entity/attribute pair were asserted."""


class SchemaError(ValueError):
    """A structured theory document or a --config file is missing or
    mis-typing a field."""


def _words(text: str) -> str:
    """text with each run of whitespace read as one space, none at either end."""
    return " ".join(text.split())


@functools.lru_cache(maxsize=_SYMBOL_CACHE_SIZE)
def canonicalize_symbol(raw: str) -> str:
    """Normalize an entity or attribute name to its canonical form.

    Lowercases, drops punctuation other than hyphens, strips leading
    articles (the/a/an), and joins internal whitespace with single
    hyphens. Hyphens at either end of a word go before the article check,
    so "A-" is the article "a" and leaves nothing. Idempotent: canonical
    output passes through unchanged. Raises EmptySymbolError when nothing
    survives; an error is raised afresh on every call, never cached.
    """
    text = _DISALLOWED_RE.sub("", _words(raw.lower()))
    words = [word for word in (part.strip("-") for part in text.split(" ")) if word]
    while words and words[0] in _ARTICLES:
        words.pop(0)
    text = _HYPHEN_RUN_RE.sub("-", "-".join(words))
    if not text:
        raise EmptySymbolError(f"no symbol left after canonicalizing {raw!r}")
    return text


class Polarity(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"

    def negated(self) -> "Polarity":
        return _NEGATED[self]


class Label(str, Enum):
    """Three-valued answer to a question."""

    TRUE = "True"
    FALSE = "False"
    UNKNOWN = "Unknown"

    @classmethod
    def from_text(cls, text: str) -> "Label | None":
        """Case-insensitive exact match on the three label words."""
        return _LABEL_WORDS.get(text.strip().lower())


# Lookup tables built once from the enums (a dict in an Enum body would be a member).
_NEGATED = {Polarity.POSITIVE: Polarity.NEGATIVE, Polarity.NEGATIVE: Polarity.POSITIVE}
_LABEL_WORDS = {label.value.lower(): label for label in Label}


class Literal(NamedTuple):
    """One polarized attribute assertion about one entity."""

    entity: str
    attribute: str
    polarity: Polarity

    def negated(self) -> "Literal":
        return Literal(self.entity, self.attribute, self.polarity.negated())

    @property
    def positive(self) -> bool:
        return self.polarity is Polarity.POSITIVE

    def to_text(self) -> str:
        link = "is" if self.positive else "is not"
        return f"{self.entity} {link} {self.attribute}"


def literal_sort_key(literal: Literal) -> tuple[str, str, str]:
    return (literal.entity, literal.attribute, literal.polarity.value)


class CheckedTuple:
    """Base of the named tuples that check their fields in __new__ (Rule,
    GenerationRequest, OracleNoiseConfig, PipelineConfig), listed before
    the fields class. Its _make builds through the class, so _make, and
    _replace through it, check too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Any:
        return cls(*iterable)


class _RuleFields(NamedTuple):
    subject: str | None
    body: tuple[tuple[str, Polarity], ...]
    head: tuple[str, Polarity]


class Rule(CheckedTuple, _RuleFields):
    """Definite clause over one subject's attributes.

    subject is a canonical entity name, or None when the rule ranges over
    every entity the theory mentions. body conditions and the head are
    (attribute, polarity) pairs. A rule with an empty body, a repeated
    condition, or a head among its conditions raises ParseError, however
    it is built: _make, and so _replace, construct through __new__.
    """

    __slots__ = ()

    def __new__(cls, subject: str | None, body: tuple[tuple[str, Polarity], ...],
                head: tuple[str, Polarity]) -> "Rule":
        if not body:
            raise ParseError("rule body must have at least one condition")
        seen: set[tuple[str, Polarity]] = set()
        for attribute, polarity in body:
            if (attribute, polarity) in seen:
                raise ParseError(f"duplicate body condition {attribute!r}")
            seen.add((attribute, polarity))
        if head in seen:
            raise ParseError(f"rule head {head[0]!r} repeats a body condition")
        return super().__new__(cls, subject, body, head)


class Theory:
    """Asserted facts of either polarity plus rules.

    A Theory is immutable. It compares and hashes on its facts and rules
    only; source_text is the text it was parsed from, if any. The entity
    and attribute vocabularies are computed once, at construction: claim
    canonicalization checks them for every claim.
    """

    __slots__ = ("facts", "rules", "source_text", "_entities", "_attributes")

    facts: frozenset[Literal]
    rules: tuple[Rule, ...]
    source_text: str | None

    def __init__(self, facts: frozenset[Literal], rules: tuple[Rule, ...] = (),
                 source_text: str | None = None) -> None:
        denied = {(l.entity, l.attribute) for l in facts if not l.positive}
        clash = min(((l.entity, l.attribute) for l in facts
                     if l.positive and (l.entity, l.attribute) in denied), default=None)
        if clash is not None:
            raise InconsistentFactsError(f"both polarities asserted for ({clash[0]}, {clash[1]})")
        entities = {literal.entity for literal in facts}
        entities.update(rule.subject for rule in rules if rule.subject is not None)
        attributes = {literal.attribute for literal in facts}
        for rule in rules:
            attributes.update(attribute for attribute, _ in rule.body)
            attributes.add(rule.head[0])
        set_field = object.__setattr__  # this class's own __setattr__ refuses
        set_field(self, "facts", facts)
        set_field(self, "rules", rules)
        set_field(self, "source_text", source_text)
        set_field(self, "_entities", frozenset(entities))
        set_field(self, "_attributes", frozenset(attributes))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.facts == other.facts and self.rules == other.rules

    def __hash__(self) -> int:
        return hash((self.facts, self.rules))

    def __repr__(self) -> str:
        return (f"Theory(facts={self.facts!r}, rules={self.rules!r}, "
                f"source_text={self.source_text!r})")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, not through __setattr__.
        return Theory, (self.facts, self.rules, self.source_text)

    def entities(self) -> frozenset[str]:
        """Entities named by facts or by a concrete rule subject."""
        return self._entities

    def attributes(self) -> frozenset[str]:
        return self._attributes

    def to_text(self) -> str:
        """Render as grammar-conforming sentences. For every theory that
        parse_theory_structured accepts, parse_theory_nl reads the text back
        as an equal theory."""
        lines = []
        for literal in sorted(self.facts, key=literal_sort_key):
            lines.append(_capitalize(literal.to_text()) + ".")
        for rule in self.rules:
            lines.append(_rule_to_text(rule))
        return "\n".join(lines)


class Question(NamedTuple):
    """A single entity/attribute query with its original wording.
    Questions compare and hash on their target only."""

    target: Literal
    raw_text: str = ""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.target == other.target

    # tuple's own != would compare raw_text too; object's negates __eq__.
    __ne__ = object.__ne__

    def __hash__(self) -> int:
        return hash((self.target,))


def _capitalize(sentence: str) -> str:
    return sentence[0].upper() + sentence[1:] if sentence else sentence


def _rule_to_text(rule: Rule) -> str:
    subject = "someone" if rule.subject is None else rule.subject
    parts = []
    for index, (attribute, polarity) in enumerate(rule.body):
        negation = "not " if polarity is Polarity.NEGATIVE else ""
        if index == 0:
            parts.append(f"{subject} is {negation}{attribute}")
        else:
            parts.append(f"{negation}{attribute}")
    body = " and ".join(parts)
    ref = "they are" if rule.subject is None else f"{rule.subject} is"
    negation = "not " if rule.head[1] is Polarity.NEGATIVE else ""
    return _capitalize(f"if {body} then {ref} {negation}{rule.head[0]}.")


def _split_sentences(text: str) -> list[str]:
    return [part.strip() for part in text.split(".") if part.strip()]


def _condition(neg: str | None, text: str) -> tuple[str, Polarity]:
    """A clause's '[not] <attribute>' tail; a lone 'not' is no attribute."""
    attribute = canonicalize_symbol(text)
    if attribute == "not":
        raise ParseError("'not' needs an attribute after it")
    return attribute, Polarity.NEGATIVE if neg else Polarity.POSITIVE


def _parse_fact(sentence: str) -> Literal:
    match = _FACT_RE.match(sentence)
    if not match:
        raise ParseError("expected '<name> is [not] <attribute>'")
    entity = canonicalize_symbol(match["subj"])
    return Literal(entity, *_condition(match["neg"], match["attr"]))


def _parse_rule_if(sentence: str) -> Rule:
    match = _IF_RE.match(sentence)
    if not match:
        raise ParseError("expected 'If <conditions> then <conclusion>'")
    conjuncts = _AND_RE.split(match["body"])

    first = _COND_FULL_RE.match(conjuncts[0])
    if not first:
        raise ParseError("rule condition must name its subject: '<subject> is <attribute>'")
    subject_word = canonicalize_symbol(first["ref"])
    subject = None if subject_word in _UNIVERSAL_SUBJECTS else subject_word
    body = [_condition(first["neg"], first["attr"])]

    echoes = set(_PRONOUN_REFS)
    echoes.update(_UNIVERSAL_SUBJECTS if subject is None else {subject})
    for conjunct in conjuncts[1:]:
        full = _COND_FULL_RE.match(conjunct)
        if full:
            ref = canonicalize_symbol(full["ref"])
            if ref not in echoes:
                raise ParseError(f"rule condition subject {ref!r} does not match the rule subject")
            body.append(_condition(full["neg"], full["attr"]))
            continue
        bare = _COND_BARE_RE.match(conjunct)  # matches any non-empty conjunct
        body.append(_condition(bare["neg"], bare["attr"]))

    head_match = _COND_FULL_RE.match(match["head"])
    if not head_match:
        raise ParseError("rule conclusion must be '<they|it|name> is [not] <attribute>'")
    ref = canonicalize_symbol(head_match["ref"])
    if ref not in _PRONOUN_REFS and ref != subject:
        raise ParseError(f"rule conclusion subject {ref!r} does not match the rule subject")
    return Rule(subject, tuple(body), _condition(head_match["neg"], head_match["attr"]))


def _parse_rule_all(sentence: str) -> Rule:
    match = _ALL_RE.match(sentence)
    if not match:
        raise ParseError("expected 'All <attributes> (people|things) are [not] <attribute>'")
    attributes = [part.strip() for part in match["attrs"].split(",") if part.strip()]
    if not attributes:
        raise ParseError("no attributes before 'people'/'things'")
    body = tuple(_condition(None, part) for part in attributes)
    return Rule(None, body, _condition(match["neg"], match["head"]))


def parse_theory_nl(text: str) -> Theory:
    """Parse period-terminated sentences into a Theory.

    Any sentence outside the grammar raises ParseError carrying the
    sentence index; asserting both polarities of one fact raises
    InconsistentFactsError.
    """
    facts: set[Literal] = set()
    rules: list[Rule] = []
    for index, sentence in enumerate(_split_sentences(text)):
        words = _words(sentence)
        keyword = words.split(" ", 1)[0].lower()
        try:
            if keyword == "if":
                rules.append(_parse_rule_if(words))
            elif keyword == "all":
                rules.append(_parse_rule_all(words))
            else:
                facts.add(_parse_fact(words))
        except ParseError as exc:
            raise ParseError(exc.reason, index, sentence) from exc
    return Theory(frozenset(facts), tuple(rules), source_text=text)


def _expect(value: Any, kind: type, path: str) -> Any:
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise SchemaError(f"{path}: expected {kind.__name__}")
    return value


def _field(mapping: Any, key: str, kind: type, path: str) -> Any:
    if not isinstance(mapping, dict):
        raise SchemaError(f"{path}: expected object")
    if key not in mapping:
        raise SchemaError(f"{path}.{key}: missing")
    return _expect(mapping[key], kind, f"{path}.{key}")


def _canonical_field(mapping: Any, key: str, path: str) -> str:
    raw = _field(mapping, key, str, path)
    try:
        return canonicalize_symbol(raw)
    except EmptySymbolError as exc:
        raise SchemaError(f"{path}.{key}: {exc.reason}") from exc


def _parse_condition_obj(obj: Any, path: str) -> tuple[str, Polarity]:
    attribute = _canonical_field(obj, "attribute", path)
    negated = _field(obj, "negated", bool, path)
    return attribute, Polarity.NEGATIVE if negated else Polarity.POSITIVE


def _read_back(element: Theory, path: str) -> None:
    """Reject a one-element theory whose sentence parses as anything else."""
    sentence = element.to_text()
    try:
        same = parse_theory_nl(sentence) == element
    except ParseError:
        same = False
    if not same:
        raise SchemaError(f"{path}: its sentence {sentence!r} reads back differently")


def parse_theory_structured(doc: Any) -> Theory:
    """Parse the structured JSON shape into a Theory.

    Raises SchemaError naming the offending field or the fact or rule that
    does not read back, or InconsistentFactsError for contradictory facts.
    """
    if not isinstance(doc, dict):
        raise SchemaError("document: expected object")
    facts = _field(doc, "facts", list, "document")
    rules = _field(doc, "rules", list, "document")

    literals: set[Literal] = set()
    for index, entry in enumerate(facts):
        path = f"facts[{index}]"
        entity = _canonical_field(entry, "entity", path)
        literal = Literal(entity, *_parse_condition_obj(entry, path))
        _read_back(Theory(frozenset({literal})), path)
        literals.add(literal)

    parsed_rules: list[Rule] = []
    for index, entry in enumerate(rules):
        path = f"rules[{index}]"
        raw_subject = _field(entry, "subject", str, path)
        if raw_subject == "*":
            subject = None
        else:
            subject = _canonical_field(entry, "subject", path)
        body_entries = _field(entry, "body", list, path)
        body = tuple(_parse_condition_obj(item, f"{path}.body[{position}]")
                     for position, item in enumerate(body_entries))
        head = _parse_condition_obj(_field(entry, "head", dict, path), f"{path}.head")
        try:
            rule = Rule(subject, body, head)
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        _read_back(Theory(frozenset(), (rule,)), path)
        parsed_rules.append(rule)

    return Theory(frozenset(literals), tuple(parsed_rules))


def parse_question(text: str) -> Question:
    """Parse a declarative or interrogative question about one literal.

    "Anne is kind." and "Is Anne kind?" produce equal questions. In the
    interrogative form the attribute is the final word; everything between
    "Is" and an optional "not" names the entity.
    """
    stripped = text.strip().rstrip("?.").strip()
    if not stripped:
        raise ParseError("empty question")
    if stripped.lower().startswith("is "):
        words = stripped.split()
        if len(words) < 3:
            raise ParseError("expected 'Is <name> [not] <attribute>?'")
        remainder = words[1:-1]
        neg = remainder.pop() if remainder and remainder[-1].lower() == "not" else None
        attribute, polarity = _condition(neg, words[-1])
        if not remainder:
            raise ParseError("question names no entity")
        entity = canonicalize_symbol(" ".join(remainder))
    else:
        literal = _parse_fact(_words(stripped))
        entity, attribute, polarity = literal.entity, literal.attribute, literal.polarity
    if entity in _QUESTION_WORDS:
        raise ParseError(f"{entity!r} is not an entity name")
    return Question(Literal(entity, attribute, polarity), raw_text=text)
