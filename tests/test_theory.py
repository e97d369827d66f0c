"""Vocabulary, grammar, and interchange-format tests."""

from __future__ import annotations

import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from proofsketch.theory import (EmptySymbolError, InconsistentFactsError, Label, Literal,
                                ParseError, Polarity, Rule, SchemaError, Theory,
                                canonicalize_symbol, parse_question, parse_theory_nl,
                                parse_theory_structured)

from helpers import random_theory, to_structured

# The canonical symbol grammar: ASCII lowercase letters and digits in
# hyphen-joined runs, so alphanumeric at both ends and never two hyphens.
_CANONICAL_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")


class TestCanonicalizeSymbol:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("Anne", "anne"),
            ("the bald eagle", "bald-eagle"),
            ("  Kind.", "kind"),
            ("THE  Bald   Eagle", "bald-eagle"),
            ("a an the cat", "cat"),
            ("rough-skinned", "rough-skinned"),
            ("anne's", "annes"),
            ("kind.)", "kind"),
            ("the-cat", "the-cat"),
        ],
    )
    def test_examples(self, raw: str, expected: str) -> None:
        assert canonicalize_symbol(raw) == expected

    @pytest.mark.parametrize("raw", ["", "   ", "the", "a", "...", "'the'", "A-", "the-"])
    def test_nothing_left(self, raw: str) -> None:
        with pytest.raises(EmptySymbolError):
            canonicalize_symbol(raw)

    @given(st.text(max_size=40))
    def test_idempotent(self, raw: str) -> None:
        try:
            once = canonicalize_symbol(raw)
        except EmptySymbolError:
            return
        assert canonicalize_symbol(once) == once

    @given(st.text(max_size=40))
    def test_memoized_matches_uncached(self, raw: str) -> None:
        def outcome(canonicalize) -> object:
            try:
                return canonicalize(raw)
            except Exception as exc:  # noqa: BLE001 - the error is the outcome
                return type(exc), str(exc)

        expected = outcome(canonicalize_symbol.__wrapped__)
        # The first call may fill the cache and the second reads it.
        assert outcome(canonicalize_symbol) == expected
        assert outcome(canonicalize_symbol) == expected

    @given(st.text(max_size=40))
    def test_output_alphabet(self, raw: str) -> None:
        try:
            result = canonicalize_symbol(raw)
        except EmptySymbolError:
            return
        assert _CANONICAL_RE.fullmatch(result)


class TestPolarityAndLiteral:
    def test_polarity_involution(self) -> None:
        for polarity in Polarity:
            assert polarity.negated().negated() is polarity

    def test_literal_negation_involution(self) -> None:
        literal = Literal("anne", "kind", Polarity.POSITIVE)
        assert literal.negated().negated() == literal
        assert literal.negated().polarity is Polarity.NEGATIVE

    def test_literal_equality_is_fieldwise(self) -> None:
        assert Literal("anne", "kind", Polarity.POSITIVE) == Literal(
            "anne", "kind", Polarity.POSITIVE
        )
        assert Literal("anne", "kind", Polarity.POSITIVE) != Literal(
            "anne", "kind", Polarity.NEGATIVE
        )
        # The hash of the field tuple, so set iteration order, and with it
        # every output, does not depend on how Literal is defined.
        assert hash(Literal("anne", "kind", Polarity.POSITIVE)) == hash(
            ("anne", "kind", Polarity.POSITIVE))

    def test_to_text(self) -> None:
        assert Literal("anne", "kind", Polarity.POSITIVE).to_text() == "anne is kind"
        assert Literal("anne", "kind", Polarity.NEGATIVE).to_text() == "anne is not kind"


class TestRuleInvariants:
    def test_empty_body_rejected(self) -> None:
        with pytest.raises(ValueError):
            Rule(None, (), ("kind", Polarity.POSITIVE))

    def test_duplicate_condition_rejected(self) -> None:
        with pytest.raises(ValueError):
            Rule(
                None,
                (("big", Polarity.POSITIVE), ("big", Polarity.POSITIVE)),
                ("kind", Polarity.POSITIVE),
            )

    def test_head_repeating_body_rejected(self) -> None:
        with pytest.raises(ValueError):
            Rule(None, (("big", Polarity.POSITIVE),), ("big", Polarity.POSITIVE))

    def test_same_attribute_either_polarity_allowed(self) -> None:
        rule = Rule(
            None,
            (("big", Polarity.POSITIVE), ("big", Polarity.NEGATIVE)),
            ("kind", Polarity.POSITIVE),
        )
        assert rule.subject is None

    def test_checked_through_make_and_replace(self) -> None:
        rule = Rule(None, (("big", Polarity.POSITIVE),), ("kind", Polarity.POSITIVE))
        assert Rule._make(rule) == rule
        with pytest.raises(ParseError):
            Rule._make((None, (), ("kind", Polarity.POSITIVE)))
        with pytest.raises(ParseError):
            rule._replace(head=("big", Polarity.POSITIVE))


class TestTheoryInvariants:
    def test_contradictory_facts_rejected(self) -> None:
        with pytest.raises(InconsistentFactsError):
            Theory(facts=frozenset({Literal("anne", "kind", Polarity.POSITIVE),
                                    Literal("anne", "kind", Polarity.NEGATIVE)}))

    def test_vocabulary_covers_rule_subjects(self) -> None:
        theory = parse_theory_nl("Anne is big. If bob is big then bob is kind.")
        assert theory.entities() == {"anne", "bob"}
        assert theory.attributes() == {"big", "kind"}

    @pytest.mark.parametrize("name", ["facts", "rules", "source_text", "_entities"])
    def test_fields_cannot_be_assigned(self, name: str) -> None:
        theory = parse_theory_nl("Anne is big.")
        with pytest.raises(AttributeError):
            setattr(theory, name, None)
        assert theory.facts == {Literal("anne", "big", Polarity.POSITIVE)}

    def test_copies_and_pickles(self) -> None:
        theory = parse_theory_nl("Anne is big. If someone is big then they are kind.")
        for twin in (copy.copy(theory), copy.deepcopy(theory),
                     pickle.loads(pickle.dumps(theory))):
            assert twin == theory and twin.source_text == theory.source_text
            assert twin.entities() == theory.entities()

    def test_source_text_is_not_compared_or_hashed(self) -> None:
        parsed = parse_theory_nl("Anne is big. If someone is big then they are kind.")
        bare = Theory(parsed.facts, parsed.rules)
        assert parsed == bare and not parsed != bare
        assert hash(parsed) == hash(bare)
        assert parsed != Theory(parsed.facts)


class TestNaturalLanguageParsing:
    def test_positive_fact(self) -> None:
        theory = parse_theory_nl("Anne is kind.")
        assert theory.facts == {Literal("anne", "kind", Polarity.POSITIVE)}
        assert not theory.rules

    def test_negative_fact_with_article_entity(self) -> None:
        theory = parse_theory_nl("The bald eagle is not green.")
        assert theory.facts == {Literal("bald-eagle", "green", Polarity.NEGATIVE)}

    def test_universal_conditional(self) -> None:
        theory = parse_theory_nl("If someone is big and strong then they are kind.")
        assert theory.rules == (
            Rule(
                None,
                (("big", Polarity.POSITIVE), ("strong", Polarity.POSITIVE)),
                ("kind", Polarity.POSITIVE),
            ),
        )

    def test_something_it_form(self) -> None:
        theory = parse_theory_nl("If something is big then it is not quiet.")
        assert theory.rules == (
            Rule(None, (("big", Polarity.POSITIVE),), ("quiet", Polarity.NEGATIVE)),
        )

    def test_negated_conditions(self) -> None:
        theory = parse_theory_nl("If someone is not green and is not quiet then they are kind.")
        assert theory.rules == (
            Rule(
                None,
                (("green", Polarity.NEGATIVE), ("quiet", Polarity.NEGATIVE)),
                ("kind", Polarity.POSITIVE),
            ),
        )

    def test_bare_not_condition(self) -> None:
        theory = parse_theory_nl("If someone is big and not green then they are kind.")
        assert theory.rules[0].body == (
            ("big", Polarity.POSITIVE),
            ("green", Polarity.NEGATIVE),
        )

    @pytest.mark.parametrize("sentence", [
        "Anne is not",
        "Anne is NOT",
        "Anne is not not",
        "If someone is not then they are kind",
        "If someone is big and someone is not then they are kind",
        "If someone is big and not then they are kind",
        "If someone is big then they are not",
        "All big things are not",
    ], ids=("fact", "fact-upper", "fact-not-not", "first-condition", "later-condition",
            "bare-condition", "if-conclusion", "all-conclusion"))
    def test_not_needs_an_attribute(self, sentence: str) -> None:
        with pytest.raises(ParseError) as excinfo:
            parse_theory_nl(f"Bob is big. {sentence}.")
        assert str(excinfo.value) == (
            f"sentence 1: 'not' needs an attribute after it ({sentence!r})")

    def test_ground_rule_subject_echo(self) -> None:
        theory = parse_theory_nl("If Anne is big and Anne is smart then Anne is kind.")
        assert theory.rules == (
            Rule(
                "anne",
                (("big", Polarity.POSITIVE), ("smart", Polarity.POSITIVE)),
                ("kind", Polarity.POSITIVE),
            ),
        )

    def test_ground_rule_pronoun_head(self) -> None:
        theory = parse_theory_nl("If Bob is round then they are blue.")
        assert theory.rules == (
            Rule("bob", (("round", Polarity.POSITIVE),), ("blue", Polarity.POSITIVE)),
        )

    def test_all_people_sugar(self) -> None:
        theory = parse_theory_nl("All big, strong people are not quiet.")
        assert theory.rules == (
            Rule(
                None,
                (("big", Polarity.POSITIVE), ("strong", Polarity.POSITIVE)),
                ("quiet", Polarity.NEGATIVE),
            ),
        )

    def test_all_things_sugar(self) -> None:
        theory = parse_theory_nl("All green things are big.")
        assert theory.rules == (
            Rule(None, (("green", Polarity.POSITIVE),), ("big", Polarity.POSITIVE)),
        )

    def test_binary_relation_rejected_with_index(self) -> None:
        with pytest.raises(ParseError) as excinfo:
            parse_theory_nl("Anne is kind. Anne likes Bob.")
        assert excinfo.value.sentence_index == 1

    @pytest.mark.parametrize("sentence, reason", [
        ("If someone is big then red",
         "rule conclusion must be '<they|it|name> is [not] <attribute>'"),
        ("All , people are red", "no attributes before 'people'/'things'"),
    ], ids=("if-conclusion", "all-attributes"))
    def test_malformed_rule_message(self, sentence: str, reason: str) -> None:
        with pytest.raises(ParseError) as excinfo:
            parse_theory_nl(f"Bob is big. {sentence}.")
        assert str(excinfo.value) == f"sentence 1: {reason} ({sentence!r})"

    def test_mismatched_rule_head_subject_rejected(self) -> None:
        with pytest.raises(ParseError):
            parse_theory_nl("If Anne is big then Bob is kind.")

    def test_mismatched_condition_subject_rejected(self) -> None:
        with pytest.raises(ParseError):
            parse_theory_nl("If Anne is big and Bob is smart then Anne is kind.")

    def test_trivially_self_supporting_rule_rejected(self) -> None:
        with pytest.raises(ParseError):
            parse_theory_nl("If someone is big then they are big.")

    def test_contradictory_assertions_rejected(self) -> None:
        with pytest.raises(InconsistentFactsError):
            parse_theory_nl("Anne is kind. Anne is not kind.")

    @pytest.mark.parametrize("text", [
        "Anne\nis big.",
        "The bald\neagle is big.",
        "Anne is big\nred.",
        "If someone\nis big then they are red.",
        "If someone is big\nthen they are red.",
        "If\nsomeone is big then they are red.",
        "All big\npeople are red.",
    ])
    def test_line_break_reads_as_a_space(self, text: str) -> None:
        assert parse_theory_nl(text) == parse_theory_nl(text.replace("\n", " "))

    def test_source_text_kept(self) -> None:
        text = "Anne is kind."
        assert parse_theory_nl(text).source_text == text

    def test_empty_text_is_empty_theory(self) -> None:
        theory = parse_theory_nl("")
        assert not theory.facts and not theory.rules


class TestStructuredParsing:
    def test_round_trip_example(self) -> None:
        doc = {
            "facts": [
                {"entity": "anne", "attribute": "big", "negated": False},
                {"entity": "bob", "attribute": "green", "negated": True},
            ],
            "rules": [
                {
                    "subject": "*",
                    "body": [{"attribute": "big", "negated": False}],
                    "head": {"attribute": "kind", "negated": False},
                }
            ],
        }
        theory = parse_theory_structured(doc)
        assert theory.facts == {Literal("anne", "big", Polarity.POSITIVE),
                                Literal("bob", "green", Polarity.NEGATIVE)}
        assert theory.rules[0].subject is None

    def test_concrete_subject(self) -> None:
        doc = {
            "facts": [],
            "rules": [
                {
                    "subject": "Anne",
                    "body": [{"attribute": "big", "negated": False}],
                    "head": {"attribute": "kind", "negated": True},
                }
            ],
        }
        assert parse_theory_structured(doc).rules[0].subject == "anne"

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ([], "document"),
            ({"rules": []}, "facts"),
            ({"facts": {}, "rules": []}, "facts"),
            ({"facts": [{"attribute": "big", "negated": False}], "rules": []}, "facts[0].entity"),
            (
                {"facts": [{"entity": "anne", "attribute": "big", "negated": "no"}], "rules": []},
                "facts[0].negated",
            ),
            ({"facts": []}, "rules"),
            ({"facts": [], "rules": [{"body": [], "head": {}}]}, "rules[0].subject"),
            (
                {"facts": [], "rules": [{"subject": "*", "head": {"attribute": "kind", "negated": False}}]},
                "rules[0].body",
            ),
            (
                {
                    "facts": [],
                    "rules": [
                        {
                            "subject": "*",
                            "body": [{"attribute": "big"}],
                            "head": {"attribute": "kind", "negated": False},
                        }
                    ],
                },
                "rules[0].body[0].negated",
            ),
            ({"facts": [5], "rules": []}, "facts[0]: expected object"),
        ],
    )
    def test_schema_errors_name_the_field(self, doc, fragment) -> None:
        with pytest.raises(SchemaError) as excinfo:
            parse_theory_structured(doc)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("fact, rule, message", [
        ({"entity": "if"}, None, "facts[0]: its sentence 'If is big.' reads back differently"),
        ({"entity": "All"}, None, "facts[0]: its sentence 'All is big.' reads back differently"),
        ({"attribute": "not"}, None,
         "facts[0]: its sentence 'Anne is not.' reads back differently"),
        (None, {"subject": "someone"},
         "rules[0]: its sentence 'If someone is big then someone is kind.' reads back differently"),
        (None, {"subject": "Something"},
         "rules[0]: its sentence 'If something is big then something is kind.' "
         "reads back differently"),
        (None, {"body": [{"attribute": "then", "negated": False}]},
         "rules[0]: its sentence 'If someone is then then they are kind.' reads back differently"),
        (None, {"body": [{"attribute": "and", "negated": True},
                         {"attribute": "big", "negated": False}]},
         "rules[0]: its sentence 'If someone is not and and big then they are kind.' "
         "reads back differently"),
        (None, {"body": [{"attribute": "not", "negated": False}]},
         "rules[0]: its sentence 'If someone is not then they are kind.' reads back differently"),
        (None, {"head": {"attribute": "not", "negated": True}},
         "rules[0]: its sentence 'If someone is big then they are not not.' "
         "reads back differently"),
    ], ids=("fact-if", "fact-all", "fact-not", "subject-someone", "subject-something",
            "condition-then", "condition-and", "condition-not", "head-not"))
    def test_names_text_cannot_say_rejected(self, fact, rule, message) -> None:
        doc = {"facts": [], "rules": []}
        if fact is not None:
            doc["facts"].append({"entity": "anne", "attribute": "big", "negated": False, **fact})
        if rule is not None:
            doc["rules"].append({"subject": "*", "body": [{"attribute": "big", "negated": False}],
                                 "head": {"attribute": "kind", "negated": False}, **rule})
        with pytest.raises(SchemaError) as excinfo:
            parse_theory_structured(doc)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("subject", ["", " ", "the"])
    def test_subject_with_no_symbol_rejected(self, subject) -> None:
        # Only "*" is universal: an empty subject is not a second spelling of it.
        doc = {"facts": [], "rules": [{"subject": subject,
                                       "body": [{"attribute": "big", "negated": False}],
                                       "head": {"attribute": "kind", "negated": False}}]}
        with pytest.raises(SchemaError) as excinfo:
            parse_theory_structured(doc)
        assert str(excinfo.value) == (
            f"rules[0].subject: no symbol left after canonicalizing {subject!r}")

    def test_reserved_words_allowed_elsewhere(self) -> None:
        # Each word the sentence grammar reads specially is a plain name
        # where the text reads it back.
        doc = {"facts": [{"entity": "then", "attribute": "if", "negated": False},
                         {"entity": "someone", "attribute": "and", "negated": True}],
               "rules": [{"subject": "if", "body": [{"attribute": "all", "negated": False}],
                          "head": {"attribute": "then", "negated": False}}]}
        theory = parse_theory_structured(doc)
        assert parse_theory_nl(theory.to_text()) == theory

    def test_grammar_words_accepted_where_they_read_back(self) -> None:
        # A word the sentence grammar reads specially is a plain name
        # wherever its fact's or rule's sentence reads back as itself,
        # 'and' as a rule's only or last condition among them.
        doc = {"facts": [{"entity": "then", "attribute": "if", "negated": False},
                         {"entity": "someone", "attribute": "and", "negated": True}],
               "rules": [{"subject": "if", "body": [{"attribute": "all", "negated": False}],
                          "head": {"attribute": "then", "negated": False}},
                         {"subject": "*", "body": [{"attribute": "and", "negated": True}],
                          "head": {"attribute": "kind", "negated": False}},
                         {"subject": "*", "body": [{"attribute": "big", "negated": False},
                                                   {"attribute": "and", "negated": False}],
                          "head": {"attribute": "kind", "negated": False}}]}
        theory = parse_theory_structured(doc)
        assert theory.rules[1] == Rule(None, (("and", Polarity.NEGATIVE),),
                                       ("kind", Polarity.POSITIVE))
        assert theory.rules[2].body == (("big", Polarity.POSITIVE), ("and", Polarity.POSITIVE))
        assert parse_theory_nl(theory.to_text()) == theory

    def test_inconsistent_facts_rejected(self) -> None:
        doc = {
            "facts": [
                {"entity": "anne", "attribute": "kind", "negated": False},
                {"entity": "anne", "attribute": "kind", "negated": True},
            ],
            "rules": [],
        }
        with pytest.raises(InconsistentFactsError):
            parse_theory_structured(doc)

    def test_empty_rule_body_rejected(self) -> None:
        doc = {
            "facts": [],
            "rules": [
                {"subject": "*", "body": [], "head": {"attribute": "kind", "negated": False}}
            ],
        }
        with pytest.raises(SchemaError):
            parse_theory_structured(doc)


class TestRoundTrips:
    def test_structured_round_trip_random(self) -> None:
        rng = random.Random(20_240_817)
        for _ in range(150):
            theory = random_theory(rng)
            again = parse_theory_structured(to_structured(theory))
            assert again == theory

    def test_nl_round_trip_random(self) -> None:
        rng = random.Random(20_240_818)
        for _ in range(150):
            theory = random_theory(rng)
            again = parse_theory_nl(theory.to_text())
            assert again == theory

    def test_nl_and_structured_agree(self) -> None:
        rng = random.Random(20_240_819)
        for _ in range(100):
            theory = random_theory(rng)
            from_text = parse_theory_nl(theory.to_text())
            from_doc = parse_theory_structured(to_structured(theory))
            assert from_text == from_doc


# Names for structured theories, grammar words among them, so that
# to_text meets every word the sentence grammar reads specially.
_NAMES = st.sampled_from(("anne", "bob", "big", "kind", "someone", "something", "they", "it",
                          "if", "all", "then", "and", "not", "is", "are", "people", "things",
                          "the", "*"))
_CONDITIONS = st.fixed_dictionaries({"attribute": _NAMES, "negated": st.booleans()})
_STRUCTURED_DOCS = st.fixed_dictionaries({
    "facts": st.lists(st.fixed_dictionaries(
        {"entity": _NAMES, "attribute": _NAMES, "negated": st.booleans()}), max_size=4),
    "rules": st.lists(st.fixed_dictionaries(
        {"subject": _NAMES, "body": st.lists(_CONDITIONS, min_size=1, max_size=3),
         "head": _CONDITIONS}), max_size=3),
})


class TestTextOfStructuredTheories:
    @settings(max_examples=300)
    @given(_STRUCTURED_DOCS)
    def test_text_reads_back_as_the_same_theory(self, doc) -> None:
        try:
            theory = parse_theory_structured(doc)
        except (SchemaError, InconsistentFactsError):
            return
        assert parse_theory_nl(theory.to_text()) == theory


class TestParseQuestion:
    def test_declarative_and_interrogative_agree(self) -> None:
        assert parse_question("Anne is kind.") == parse_question("Is Anne kind?")

    def test_negative_interrogative(self) -> None:
        question = parse_question("Is Bob not green?")
        assert question.target == Literal("bob", "green", Polarity.NEGATIVE)

    def test_article_entity(self) -> None:
        question = parse_question("Is the bald eagle happy?")
        assert question.target == Literal("bald-eagle", "happy", Polarity.POSITIVE)

    def test_raw_text_preserved(self) -> None:
        assert parse_question("Is Anne kind?").raw_text == "Is Anne kind?"

    def test_wording_is_not_compared_or_hashed(self) -> None:
        declarative, interrogative = parse_question("Anne is kind."), parse_question("Is Anne kind?")
        assert not declarative != interrogative
        assert hash(declarative) == hash(interrogative)
        assert declarative != parse_question("Is Anne big?")

    @pytest.mark.parametrize("text", ["Who is kind?", "", "Is kind?", "Anne likes Bob.",
                                      "Is\tAnne kind?"])
    def test_rejected_forms(self, text: str) -> None:
        with pytest.raises(ParseError):
            parse_question(text)

    @pytest.mark.parametrize("text", ["Is Anne not?", "Is Anne not not?", "Anne is not.",
                                      "Anne is Not?"],
                             ids=("interrogative", "interrogative-not-not", "declarative",
                                  "declarative-upper"))
    def test_not_needs_an_attribute(self, text: str) -> None:
        with pytest.raises(ParseError, match="^'not' needs an attribute after it$"):
            parse_question(text)

    def test_question_without_entity_rejected(self) -> None:
        with pytest.raises(ParseError, match="^question names no entity$"):
            parse_question("Is not big?")

    def test_label_from_text(self) -> None:
        assert Label.from_text("true") is Label.TRUE
        assert Label.from_text(" Unknown ") is Label.UNKNOWN
        assert Label.from_text("maybe") is None
