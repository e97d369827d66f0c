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

forward_chain computes it: delta-driven rounds touch only rules whose
bodies mention a literal added in the previous round, and record for
every literal the length of its shortest derivation. The independent
reference it is tested against, a fixpoint that re-applies every rule to
every entity until nothing changes, lives in tests/helpers.py.

What the closure says about a literal is answered here only: verify_claim
gives its verdict (Verified, Contradicted, Unsupported),
decide_from_closure reads a question's label off the verdicts of its
target and the target's negation, Unknown meaning undecided, and
verified_literals lists the literals about one entity that verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .theory import Label, Literal, Polarity, Question, Theory


class VerdictStatus(str, Enum):
    VERIFIED = "Verified"
    CONTRADICTED = "Contradicted"
    UNSUPPORTED = "Unsupported"


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
    known: dict[Literal, int] = {literal: 0 for literal in theory.facts}

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

    pending: set[tuple[int, str]] = set()
    for literal in known:
        pending |= candidates_for(literal)

    while pending:
        fresh: dict[Literal, int] = {}
        for index, entity in pending:
            rule = theory.rules[index]
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
            pending |= candidates_for(literal)

    literals = frozenset(known)
    return Closure(
        literals=literals,
        depth=known,
        contradictory=_is_contradictory(literals),
        entity_index=_index_by_entity(literals),
        theory=theory,
    )


def verify_claim(claim: Literal, closure: Closure) -> VerdictStatus:
    """Check one claim against the closure.

    A claim whose negation is derivable is Contradicted even when the
    claim itself is also derivable: refutation evidence outweighs support
    inside a contradictory closure.
    """
    if claim.negated() in closure.literals:
        return VerdictStatus.CONTRADICTED
    if claim in closure.literals:
        return VerdictStatus.VERIFIED
    return VerdictStatus.UNSUPPORTED


def decide_from_closure(closure: Closure, question: Question) -> Label:
    """True when the target verifies, False when it is contradicted and not
    itself derivable, else Unknown (undecided): neither polarity is
    derivable, or both are, and a theory that proves both polarities is not
    allowed to settle anything."""
    verdict = verify_claim(question.target, closure)
    if verdict is VerdictStatus.VERIFIED:
        return Label.TRUE
    if verdict is VerdictStatus.CONTRADICTED and question.target not in closure.literals:
        return Label.FALSE
    return Label.UNKNOWN


def entity_has_closure_facts(closure: Closure, entity: str) -> bool:
    return bool(closure.entity_index.get(entity))


def verified_literals(closure: Closure, entity: str) -> list[Literal]:
    """The claims about entity that verify, shallowest derivation first
    (ties by attribute, then polarity): only closure literals verify, and
    only when their negation is not derivable."""
    return sorted((literal for literal in closure.entity_index.get(entity, ())
                   if verify_claim(literal, closure) is VerdictStatus.VERIFIED),
                  key=lambda l: (closure.depth[l], l.attribute, l.polarity.value))
