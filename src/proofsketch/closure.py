"""Symbolic closure of a theory under forward chaining.

The closure is the least fixpoint of the rules over the asserted facts.
Rules with a concrete subject fire for that entity only; rules with a
universal subject are instantiated over every entity the theory mentions
(in a fact or as a concrete rule subject). Because the fragment is unary
with explicit negation, the closure is finite: at most one literal per
(entity, attribute, polarity) triple.

A Closure holds it as one table: entity -> (attribute, polarity) ->
depth, the length of that literal's shortest derivation (0 for a fact).
An entity is a key only when some literal about it is derivable. The
(attribute, polarity) pair is the shape of a rule's body conditions and
head, so the fixpoint and every lookup run on the table directly.

Deriving both polarities of the same pair does not abort the fixpoint.
The closure is computed in full and marked contradictory, so callers can
keep inspecting it while refusing to treat the theory as trustworthy.

forward_chain computes it in rounds: round n tries only the rule
instances whose body holds a pair added in round n - 1, so every pair it
adds has depth n. The independent reference it is tested against, a
fixpoint that re-applies every rule to every entity until nothing
changes, lives in tests/helpers.py.

What the closure says about a literal is answered here only: verify_claim
gives its verdict (Verified, Contradicted, Unsupported),
decide_from_closure reads a question's label off the verdicts of its
target and the target's negation, Unknown meaning undecided, and
verified_literals lists the literals about one entity that verify.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple

from .theory import Label, Literal, Polarity, Question, Rule, Theory


class VerdictStatus(str, Enum):
    VERIFIED = "Verified"
    CONTRADICTED = "Contradicted"
    UNSUPPORTED = "Unsupported"


class Closure(NamedTuple):
    """Derivable literals as entity -> (attribute, polarity) -> depth.

    theory is the theory the closure was computed from, so a closure is
    everything a question about that theory needs. Closures compare on
    table and contradictory only, and are unhashable, as the table is a
    dict.
    """

    table: Mapping[str, Mapping[tuple[str, Polarity], int]]
    contradictory: bool
    theory: Theory

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.table == other.table and self.contradictory == other.contradictory

    # tuple's own != would compare theory too; object's negates __eq__.
    __ne__ = object.__ne__
    __hash__ = None


_NO_PAIRS: Mapping[tuple[str, Polarity], int] = {}


def forward_chain(theory: Theory) -> Closure:
    """Compute the closure with shortest-derivation depths.

    A body is checked against the table as it stood before the round, so
    a rule instance fires in the first round after its last condition
    appeared: that round is the minimum depth over all derivations.
    """
    table: dict[str, dict[tuple[str, Polarity], int]] = {}
    for literal in theory.facts:
        table.setdefault(literal.entity, {})[literal.attribute, literal.polarity] = 0

    rules_by_condition: dict[tuple[str, Polarity], list[Rule]] = {}
    for rule in theory.rules:
        for condition in rule.body:
            rules_by_condition.setdefault(condition, []).append(rule)

    added = {entity: list(pairs) for entity, pairs in table.items()}
    depth = 0
    while added:
        depth += 1
        # Keyed by head, so a head that several rule instances reach in
        # one round is carried into the next round once.
        fresh: dict[str, dict[tuple[str, Polarity], None]] = {}
        for entity, pairs in added.items():
            known = table[entity]
            for pair in pairs:
                for rule in rules_by_condition.get(pair, ()):
                    if ((rule.subject is None or rule.subject == entity)
                            and rule.head not in known
                            and all(condition in known for condition in rule.body)):
                        fresh.setdefault(entity, {})[rule.head] = None
        for entity, heads in fresh.items():
            known = table[entity]
            for head in heads:
                known.setdefault(head, depth)
        added = fresh

    contradictory = any((attribute, polarity.negated()) in pairs
                        for pairs in table.values() for attribute, polarity in pairs)
    return Closure(table=table, contradictory=contradictory, theory=theory)


def _verdict(pairs: Mapping[tuple[str, Polarity], int], attribute: str,
             polarity: Polarity) -> VerdictStatus:
    if (attribute, polarity.negated()) in pairs:
        return VerdictStatus.CONTRADICTED
    if (attribute, polarity) in pairs:
        return VerdictStatus.VERIFIED
    return VerdictStatus.UNSUPPORTED


def verify_claim(claim: Literal, closure: Closure) -> VerdictStatus:
    """Check one claim against the closure.

    A claim whose negation is derivable is Contradicted even when the
    claim itself is also derivable: refutation evidence outweighs support
    inside a contradictory closure.
    """
    return _verdict(closure.table.get(claim.entity, _NO_PAIRS), claim.attribute, claim.polarity)


def decide_from_closure(closure: Closure, question: Question) -> Label:
    """True when the target verifies, False when it is contradicted and not
    itself derivable, else Unknown (undecided): neither polarity is
    derivable, or both are, and a theory that proves both polarities is not
    allowed to settle anything."""
    target = question.target
    verdict = verify_claim(target, closure)
    if verdict is VerdictStatus.VERIFIED:
        return Label.TRUE
    if (verdict is VerdictStatus.CONTRADICTED
            and (target.attribute, target.polarity)
            not in closure.table.get(target.entity, _NO_PAIRS)):
        return Label.FALSE
    return Label.UNKNOWN


def verified_literals(closure: Closure, entity: str) -> list[Literal]:
    """The claims about entity that verify, shallowest derivation first
    (ties by attribute, then polarity): only closure literals verify, and
    only when their negation is not derivable."""
    pairs = closure.table.get(entity, _NO_PAIRS)
    # Polarity is a str enum, so polarities sort by their values.
    verified = sorted((depth, attribute, polarity)
                      for (attribute, polarity), depth in pairs.items()
                      if _verdict(pairs, attribute, polarity) is VerdictStatus.VERIFIED)
    return [Literal(entity, attribute, polarity) for _, attribute, polarity in verified]
