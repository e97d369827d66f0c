"""Shared builders for randomized test corpora, and the reference
implementations the production code is checked against.

Everything random here is driven by an explicit random.Random so corpora
are reproducible from a seed. Symbol pools avoid grammar keywords.
"""

from __future__ import annotations

import random

from typing import Any

from proofsketch.theory import Literal, Polarity, Question, Rule, Theory, literal_sort_key
from proofsketch.closure import (Closure, _index_by_entity, _is_contradictory,
                                 decide_from_closure, forward_chain)
from proofsketch.harness import DatasetRecord

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
    entities = sorted(theory.entities()) or ["anne"]
    attributes = sorted(theory.attributes()) or ["big"]
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

    Slower than forward_chain and records no depths; used to cross-check
    the production engine.
    """
    literals: set[Literal] = set(theory.facts)
    entities = theory.entities()
    changed = True
    while changed:
        changed = False
        for rule in theory.rules:
            subjects = entities if rule.subject is None else (rule.subject,)
            for entity in subjects:
                if all(
                    Literal(entity, attribute, polarity) in literals
                    for attribute, polarity in rule.body
                ):
                    head = Literal(entity, rule.head[0], rule.head[1])
                    if head not in literals:
                        literals.add(head)
                        changed = True
    frozen = frozenset(literals)
    return Closure(
        literals=frozen,
        depth={},
        contradictory=_is_contradictory(frozen),
        entity_index=_index_by_entity(frozen),
        theory=theory,
    )


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
