"""Forward-chaining engine tests, cross-checked against hand computations
and a brute-force reference implementation."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from proofsketch.theory import Label, Literal, Polarity, parse_question, parse_theory_nl
from proofsketch.closure import (VerdictStatus, decide_from_closure, forward_chain,
                                 verified_literals, verify_claim)

from helpers import (brute_force_closure, closure_depths, closure_table, random_question,
                     random_theory, tiny_theory)

# Closures worked out by hand from the rendered theory text of
# tiny_theory(random.Random(seed)).  Tuples are (entity, attribute,
# polarity sign, derivation depth).  These freeze both the engine output
# and the generator, so neither may drift silently.
HAND_CLOSURES = {
    9: {
        ("carol", "big", "+", 0),
        ("carol", "green", "-", 0),
        ("fiona", "green", "-", 0),
        ("carol", "big", "-", 1),
        ("fiona", "big", "-", 1),
        ("carol", "green", "+", 2),
        ("fiona", "green", "+", 2),
    },
    150: {
        ("bob", "furry", "-", 0),
        ("gary", "furry", "+", 0),
        ("bob", "smart", "+", 1),
        ("gary", "smart", "-", 1),
    },
    270: {
        ("fiona", "blue", "+", 0),
        ("fiona", "smart", "+", 1),
        ("fiona", "smart", "-", 2),
        ("fiona", "blue", "-", 3),
    },
    311: {
        ("fiona", "furry", "+", 0),
        ("fiona", "nice", "+", 0),
        ("fiona", "furry", "-", 1),
        ("fiona", "nice", "-", 2),
    },
    390: {
        ("bob", "round", "+", 0),
        ("bob", "quiet", "+", 1),
        ("erin", "big", "+", 0),
        ("erin", "round", "-", 1),
        ("gary", "round", "+", 0),
        ("gary", "quiet", "+", 1),
    },
}
HAND_CONTRADICTORY = {9: True, 150: False, 270: True, 311: True, 390: False}

_SIGN = {"+": Polarity.POSITIVE, "-": Polarity.NEGATIVE}


def _as_literal_depths(entries):
    return {
        Literal(entity, attribute, _SIGN[sign]): depth
        for entity, attribute, sign, depth in entries
    }


class TestHandComputedClosures:
    @pytest.mark.parametrize("seed", sorted(HAND_CLOSURES))
    def test_forward_chain_matches_hand_work(self, seed: int) -> None:
        theory = tiny_theory(random.Random(seed))
        closure = forward_chain(theory)
        expected = _as_literal_depths(HAND_CLOSURES[seed])
        assert closure.table == closure_table(expected)
        assert closure.contradictory is HAND_CONTRADICTORY[seed]

    @pytest.mark.parametrize("seed", sorted(HAND_CLOSURES))
    def test_brute_force_matches_hand_work(self, seed: int) -> None:
        theory = tiny_theory(random.Random(seed))
        closure = brute_force_closure(theory)
        expected = _as_literal_depths(HAND_CLOSURES[seed])
        assert closure.table == closure_table(expected)
        assert closure.contradictory is HAND_CONTRADICTORY[seed]


class TestAgainstBruteForce:
    def test_literal_sets_agree_on_random_corpus(self) -> None:
        rng = random.Random(424_242)
        for _ in range(300):
            theory = random_theory(rng)
            fast = forward_chain(theory)
            slow = brute_force_closure(theory)
            assert fast.table == slow.table
            assert fast.contradictory is slow.contradictory

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_tables_agree_with_depths(self, seed: int) -> None:
        theory = random_theory(random.Random(seed), max_rules=12)
        fast = forward_chain(theory)
        slow = brute_force_closure(theory)
        assert fast.table == slow.table
        assert fast.contradictory is slow.contradictory


class TestClosureProperties:
    def test_facts_are_depth_zero(self) -> None:
        rng = random.Random(7)
        for _ in range(100):
            theory = random_theory(rng)
            closure = forward_chain(theory)
            for fact in theory.facts:
                assert closure.table[fact.entity][fact.attribute, fact.polarity] == 0

    def test_depth_soundness(self) -> None:
        # Every literal at depth d > 0 must be producible by some rule
        # whose instantiated conditions all sit at depth < d, with at
        # least one at exactly d - 1.
        rng = random.Random(8)
        for _ in range(150):
            theory = random_theory(rng)
            depths = closure_depths(forward_chain(theory))
            for literal, depth in depths.items():
                if depth == 0:
                    assert literal in theory.facts
                    continue
                supported = False
                for rule in theory.rules:
                    if rule.head != (literal.attribute, literal.polarity):
                        continue
                    if rule.subject is not None and rule.subject != literal.entity:
                        continue
                    body = [
                        Literal(literal.entity, attribute, polarity)
                        for attribute, polarity in rule.body
                    ]
                    if not all(b in depths for b in body):
                        continue
                    if max(depths[b] for b in body) == depth - 1:
                        supported = True
                        break
                assert supported, (literal, depth)

    def test_rule_order_does_not_matter(self) -> None:
        rng = random.Random(9)
        for _ in range(60):
            theory = random_theory(rng)
            if len(theory.rules) < 2:
                continue
            shuffled = list(theory.rules)
            rng.shuffle(shuffled)
            reordered = parse_theory_structured_with_rules(theory, tuple(shuffled))
            a = forward_chain(theory)
            b = forward_chain(reordered)
            assert a.table == b.table
            assert a.contradictory is b.contradictory

    def test_closure_contains_all_facts(self) -> None:
        rng = random.Random(10)
        for _ in range(100):
            theory = random_theory(rng)
            assert theory.facts <= closure_depths(forward_chain(theory)).keys()

    def test_termination_bound(self) -> None:
        # The fixpoint can take at most one round per derivable literal,
        # so no depth may reach the total literal count.
        rng = random.Random(11)
        for _ in range(100):
            theory = random_theory(rng)
            depths = closure_depths(forward_chain(theory))
            if depths:
                assert max(depths.values()) < len(depths)

    def test_table_rows_are_non_empty(self) -> None:
        # An entity is a key exactly when some literal about it is derivable.
        rng = random.Random(12)
        for _ in range(60):
            theory = random_theory(rng)
            closure = forward_chain(theory)
            assert all(closure.table.values())
            assert set(closure.table) == {fact.entity for fact in theory.facts}


def parse_theory_structured_with_rules(theory, rules):
    from proofsketch.theory import Theory

    return Theory(facts=theory.facts, rules=rules)


class TestDeepChain:
    def test_linear_chain_depths(self) -> None:
        theory = parse_theory_nl(
            "Anne is a0. "
            "If someone is a0 then they are a1. "
            "If someone is a1 then they are a2. "
            "If someone is a2 then they are a3."
        )
        closure = forward_chain(theory)
        for index in range(4):
            assert closure.table["anne"][f"a{index}", Polarity.POSITIVE] == index

    def test_depth_is_shortest_derivation(self) -> None:
        # a3 is reachable via the long chain (depth 3) and a shortcut
        # (depth 1); the recorded depth must be the shorter one.
        theory = parse_theory_nl(
            "Anne is a0. "
            "If someone is a0 then they are a1. "
            "If someone is a1 then they are a2. "
            "If someone is a2 then they are a3. "
            "If someone is a0 then they are a3."
        )
        closure = forward_chain(theory)
        assert closure.table["anne"]["a3", Polarity.POSITIVE] == 1

    def test_two_condition_rule_waits_for_both(self) -> None:
        theory = parse_theory_nl(
            "Anne is big. "
            "If someone is big then they are smart. "
            "If someone is big and smart then they are kind."
        )
        closure = forward_chain(theory)
        assert closure.table["anne"]["kind", Polarity.POSITIVE] == 2

    def test_ladder_closes_quickly(self) -> None:
        # Both rules of layer k need both heads of layer k - 1, so a loop
        # that carried a head once per rule instance reaching it would
        # handle 2^k copies of each head in round k.
        layers = 40
        sentences = ["Anne is a0.", "Anne is b0."]
        for k in range(layers):
            for head in ("a", "b"):
                sentences.append(f"If someone is a{k} and b{k} then they are {head}{k + 1}.")
        theory = parse_theory_nl(" ".join(sentences))
        started = time.perf_counter()
        closure = forward_chain(theory)
        assert time.perf_counter() - started < 1.0
        assert closure.table["anne"][f"b{layers}", Polarity.POSITIVE] == layers


class TestDecideFromClosure:
    def test_positive_derivable(self) -> None:
        theory = parse_theory_nl("Anne is kind.")
        closure = forward_chain(theory)
        question = parse_question("Is Anne kind?")
        assert decide_from_closure(closure, question) is Label.TRUE

    def test_negation_derivable(self) -> None:
        theory = parse_theory_nl("Anne is not kind.")
        closure = forward_chain(theory)
        question = parse_question("Is Anne kind?")
        assert decide_from_closure(closure, question) is Label.FALSE

    def test_negative_target_flips(self) -> None:
        theory = parse_theory_nl("Anne is kind.")
        closure = forward_chain(theory)
        question = parse_question("Is Anne not kind?")
        assert decide_from_closure(closure, question) is Label.FALSE

    def test_underivable_is_unknown_undecided(self) -> None:
        theory = parse_theory_nl("Anne is kind.")
        closure = forward_chain(theory)
        question = parse_question("Is Bob green?")
        assert decide_from_closure(closure, question) is Label.UNKNOWN

    def test_contradictory_target_never_decided(self) -> None:
        theory = parse_theory_nl(
            "Anne is big. "
            "If someone is big then they are kind. "
            "If someone is big then they are not kind."
        )
        closure = forward_chain(theory)
        assert closure.contradictory
        assert decide_from_closure(closure, parse_question("Is Anne kind?")) is Label.UNKNOWN

    def test_contradiction_elsewhere_does_not_block(self) -> None:
        theory = parse_theory_nl(
            "Anne is big. "
            "Bob is green. "
            "If someone is green then they are quiet. "
            "If someone is green then they are not quiet."
        )
        closure = forward_chain(theory)
        assert closure.contradictory
        assert decide_from_closure(closure, parse_question("Is Anne big?")) is Label.TRUE


class TestEntityHasClosureFacts:
    def test_present_and_absent(self) -> None:
        theory = parse_theory_nl("Anne is kind.")
        closure = forward_chain(theory)
        assert "anne" in closure.table
        assert "bob" not in closure.table

    def test_matches_random_closures(self) -> None:
        rng = random.Random(13)
        for _ in range(60):
            theory = random_theory(rng)
            closure = forward_chain(theory)
            question = random_question(rng, theory)
            entity = question.target.entity
            reference = closure_depths(brute_force_closure(theory))
            expected = any(literal.entity == entity for literal in reference)
            assert (entity in closure.table) is expected


class TestEntityHasVerifiableLiteral:
    def test_matches_brute_force_on_random_theories(self) -> None:
        # verified_literals lists what an entity has to verify, shallowest first.
        rng = random.Random(29)
        for _ in range(200):
            theory = random_theory(rng)
            closure = forward_chain(theory)
            reference = brute_force_closure(theory)
            for entity in sorted(theory.entities()) + ["zed"]:
                expected = {
                    literal for attribute in theory.attributes() for polarity in Polarity
                    if verify_claim(literal := Literal(entity, attribute, polarity), reference)
                    is VerdictStatus.VERIFIED
                }
                found = verified_literals(closure, entity)
                assert len(found) == len(expected) and set(found) == expected
                depths = [closure.table[entity][lit.attribute, lit.polarity] for lit in found]
                assert depths == sorted(depths)
