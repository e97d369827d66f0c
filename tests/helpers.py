"""Shared builders for randomized test corpora, and the reference
implementations the production code is checked against.

Everything random here is driven by an explicit random.Random so corpora
are reproducible from a seed. Symbol pools avoid grammar keywords.
"""

from __future__ import annotations

import random

from typing import Any

from proofsketch.theory import Literal, Polarity, Question, Rule, Theory, literal_sort_key
from proofsketch.closure import Closure, decide_from_closure, forward_chain
from proofsketch.dataset import DatasetRecord

ENTITY_POOL = ("anne", "bob", "carol", "dave", "erin", "fiona", "gary", "harry")
ATTRIBUTE_POOL = ("big", "kind", "green", "quiet", "smart", "round",
                  "nice", "furry", "young", "blue")


def random_theory(rng: random.Random, *, max_entities: int = 6, max_attributes: int = 6,
                  max_rules: int = 8, max_facts: int = 10) -> Theory:
    entities = rng.sample(ENTITY_POOL, rng.randint(1, max_entities))
    attributes = rng.sample(ATTRIBUTE_POOL, rng.randint(2, max_attributes))

    pairs = [(entity, attribute) for entity in entities for attribute in attributes]
    fact_count = rng.randint(1, min(max_facts, len(pairs)))
    facts: set[Literal] = set()
    for entity, attribute in rng.sample(pairs, fact_count):
        polarity = Polarity.POSITIVE if rng.random() < 0.7 else Polarity.NEGATIVE
        facts.add(Literal(entity, attribute, polarity))

    rules: list[Rule] = []
    for _ in range(rng.randint(0, max_rules)):
        rules.append(random_rule(rng, entities, attributes))
    return Theory(frozenset(facts), tuple(rules))


def random_rule(rng: random.Random, entities: list[str], attributes: list[str]) -> Rule:
    conditions = [
        (attribute, Polarity.POSITIVE if rng.random() < 0.8 else Polarity.NEGATIVE)
        for attribute in attributes
    ] + [
        (attribute, Polarity.NEGATIVE if rng.random() < 0.8 else Polarity.POSITIVE)
        for attribute in attributes
    ]
    rng.shuffle(conditions)
    seen: set[tuple[str, Polarity]] = set()
    distinct = [c for c in conditions if not (c in seen or seen.add(c))]
    body_size = rng.randint(1, min(3, len(distinct) - 1))
    body = tuple(distinct[:body_size])
    head = distinct[body_size]
    subject = None if rng.random() < 0.8 else rng.choice(entities)
    return Rule(subject, body, head)


def random_question(rng: random.Random, theory: Theory) -> Question:
    entities = sorted(theory.entities) or ["anne"]
    attributes = sorted(theory.attributes) or ["big"]
    entity = rng.choice(entities)
    attribute = rng.choice(attributes)
    polarity = Polarity.POSITIVE if rng.random() < 0.7 else Polarity.NEGATIVE
    link = "" if polarity is Polarity.POSITIVE else "not "
    text = f"Is {entity} {link}{attribute}?"
    return Question(Literal(entity, attribute, polarity), raw_text=text)


def record_for(theory: Theory, question: Question, record_id: str) -> DatasetRecord:
    closure = forward_chain(theory)
    return DatasetRecord(
        record_id=record_id,
        closure=closure,
        question=question,
        gold_label=decide_from_closure(closure, question),
    )


def tiny_theory(rng: random.Random) -> Theory:
    """Small enough instance to verify by hand."""
    return random_theory(rng, max_entities=3, max_attributes=3, max_rules=3, max_facts=4)


def brute_force_closure(theory: Theory) -> Closure:
    """Reference fixpoint: sweep every rule over every entity until stable.

    Each sweep reads only the literals found by earlier sweeps, so the
    sweep in which a literal first appears is the length of its shortest
    derivation. Slower than forward_chain; used to cross-check the
    production engine, depths included.
    """
    depths: dict[Literal, int] = {literal: 0 for literal in theory.facts}
    entities = theory.entities
    sweep = 0
    while True:
        sweep += 1
        found = set()
        for rule in theory.rules:
            subjects = entities if rule.subject is None else (rule.subject,)
            for entity in subjects:
                if all(Literal(entity, attribute, polarity) in depths
                       for attribute, polarity in rule.body):
                    found.add(Literal(entity, rule.head[0], rule.head[1]))
        found.difference_update(depths)
        if not found:
            break
        depths.update(dict.fromkeys(found, sweep))
    return Closure(
        table=closure_table(depths),
        contradictory=any(literal.negated() in depths for literal in depths),
        theory=theory,
    )


def closure_table(depths: dict[Literal, int]) -> dict[str, dict[tuple[str, Polarity], int]]:
    """The Closure.table shape of a literal -> depth map."""
    table: dict[str, dict[tuple[str, Polarity], int]] = {}
    for literal, depth in depths.items():
        table.setdefault(literal.entity, {})[literal.attribute, literal.polarity] = depth
    return table


def closure_depths(closure: Closure) -> dict[Literal, int]:
    """Every literal in the closure with its depth."""
    return {Literal(entity, attribute, polarity): depth
            for entity, pairs in closure.table.items()
            for (attribute, polarity), depth in pairs.items()}


def rescanning_object_span(text: str) -> str | None:
    """Reference for the sketch parser's span search: scan afresh from
    each "{" in turn, tracking JSON string context, and return the first
    balanced span found. Quadratic in the worst case."""
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = escaped = False
        for position in range(start, len(text)):
            char = text[position]
            if in_string:
                if escaped:
                    escaped = False
                elif char == "\\":
                    escaped = True
                elif char == '"':
                    in_string = False
            elif char == '"':
                in_string = True
            elif char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    return text[start : position + 1]
        start = text.find("{", start + 1)
    return None


def to_structured(theory: Theory) -> dict[str, Any]:
    """Serialize to the structured JSON shape. Facts are emitted sorted."""
    facts = [
        {"entity": l.entity, "attribute": l.attribute, "negated": not l.positive}
        for l in sorted(theory.facts, key=literal_sort_key)
    ]
    rules = [
        {
            "subject": "*" if rule.subject is None else rule.subject,
            "body": [
                {"attribute": attribute, "negated": polarity is Polarity.NEGATIVE}
                for attribute, polarity in rule.body
            ],
            "head": {
                "attribute": rule.head[0],
                "negated": rule.head[1] is Polarity.NEGATIVE,
            },
        }
        for rule in theory.rules
    ]
    return {"facts": facts, "rules": rules}
