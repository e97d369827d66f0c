"""Symbolic closure of a theory under forward chaining.

The closure is the least fixpoint of the rules over the asserted facts.
Rules with a concrete subject fire for that entity only; rules with a
universal subject are instantiated over every entity the theory mentions
(in a fact or as a concrete rule subject). Because the fragment is unary
with explicit negation, the closure is finite: at most one literal per
(entity, attribute, polarity) triple.

Deriving both polarities of the same pair does not abort the fixpoint.
The closure is computed in full and marked contradictory, so callers can
keep inspecting it while refusing to treat the theory as trustworthy.

forward_chain is the production path: delta-driven rounds touch only
rules whose bodies mention a literal added in the previous round, and
record for every literal the length of its shortest derivation.
brute_force_closure re-applies every rule to every entity until nothing
changes; it exists as an independent reference for equivalence testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .theory import ClosureDecision, Label, Literal, Polarity, Question, Rule, Theory


@dataclass(frozen=True)
class Closure:
    """Fixpoint literal set with derivation depths and a per-entity index.

    theory is the theory the closure was computed from, so a closure is
    everything a question about that theory needs.
    """

    literals: frozenset[Literal]
    depth: Mapping[Literal, int]
    contradictory: bool
    entity_index: Mapping[str, frozenset[Literal]]
    theory: Theory = field(compare=False)


def _index_by_entity(literals: frozenset[Literal]) -> dict[str, frozenset[Literal]]:
    grouped: dict[str, set[Literal]] = {}
    for literal in literals:
        grouped.setdefault(literal.entity, set()).add(literal)
    return {entity: frozenset(group) for entity, group in grouped.items()}


def _is_contradictory(literals: frozenset[Literal]) -> bool:
    return any(literal.negated() in literals for literal in literals)


def forward_chain(theory: Theory) -> Closure:
    """Compute the closure with shortest-derivation depths.

    Depth 0 marks asserted facts; a derived literal gets 1 plus the
    largest body depth of the rule instance that first produced it.
    Round-based evaluation makes that the minimum over all derivations.
    """
    known: dict[Literal, int] = {literal: 0 for literal in theory.facts()}
    entities = theory.entities()

    rules_by_condition: dict[tuple[str, Polarity], list[int]] = {}
    for index, rule in enumerate(theory.rules):
        for condition in rule.body:
            rules_by_condition.setdefault(condition, []).append(index)

    def candidates_for(literal: Literal) -> set[tuple[int, str]]:
        found: set[tuple[int, str]] = set()
        for index in rules_by_condition.get((literal.attribute, literal.polarity), ()):
            rule = theory.rules[index]
            if rule.subject is None or rule.subject == literal.entity:
                found.add((index, literal.entity))
        return found

    contradictory = _is_contradictory(frozenset(known))
    pending: set[tuple[int, str]] = set()
    for literal in known:
        pending |= candidates_for(literal)

    while pending:
        fresh: dict[Literal, int] = {}
        for index, entity in pending:
            rule = theory.rules[index]
            if entity not in entities:
                continue
            body = [Literal(entity, attribute, polarity) for attribute, polarity in rule.body]
            if any(literal not in known for literal in body):
                continue
            head = Literal(entity, rule.head[0], rule.head[1])
            if head in known or head in fresh:
                continue
            fresh[head] = 1 + max(known[literal] for literal in body)
        if not fresh:
            break
        known.update(fresh)
        pending = set()
        for literal in fresh:
            if literal.negated() in known:
                contradictory = True
            pending |= candidates_for(literal)

    literals = frozenset(known)
    return Closure(
        literals=literals,
        depth=known,
        contradictory=contradictory,
        entity_index=_index_by_entity(literals),
        theory=theory,
    )


def brute_force_closure(theory: Theory) -> Closure:
    """Reference fixpoint: sweep every rule over every entity until stable.

    Slower than forward_chain and records no depths; used to cross-check
    the production engine.
    """
    literals: set[Literal] = set(theory.facts())
    entities = theory.entities()
    changed = True
    while changed:
        changed = False
        for rule in theory.rules:
            subjects = entities if rule.subject is None else (
                (rule.subject,) if rule.subject in entities else ()
            )
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


def decide_from_closure(closure: Closure, question: Question) -> ClosureDecision:
    """Three-valued verdict for a question against a closure.

    The target literal present alone decides True; its negation present
    alone decides False. Neither, or both (a contradictory pair), leaves
    the question undecided with the Unknown label: a theory that proves
    both polarities is not allowed to settle anything.
    """
    target = question.target
    affirmed = target in closure.literals
    refuted = target.negated() in closure.literals
    if affirmed and refuted:
        return ClosureDecision(Label.UNKNOWN, decided=False)
    if affirmed:
        return ClosureDecision(Label.TRUE, decided=True)
    if refuted:
        return ClosureDecision(Label.FALSE, decided=True)
    return ClosureDecision(Label.UNKNOWN, decided=False)


def entity_has_closure_facts(closure: Closure, entity: str) -> bool:
    return bool(closure.entity_index.get(entity))
