"""Sketch decoding tests: strict parse, repair pass, keyword fallback,
claim canonicalization, and anchoring."""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from proofsketch.theory import Label, Literal, Polarity, parse_question, parse_theory_nl
from proofsketch.sketch import (ParseStatus, ParsedSketch, _balanced_object_span, anchor_claims,
                                canonicalize_claim, parse_sketch)

from helpers import rescanning_object_span

THEORY = parse_theory_nl(
    "Anne is big. Bob is not green. Carol is quiet. "
    "If someone is big then they are kind."
)

ANNE_BIG = Literal("anne", "big", Polarity.POSITIVE)
ANNE_KIND = Literal("anne", "kind", Polarity.POSITIVE)
BOB_GREEN_NEG = Literal("bob", "green", Polarity.NEGATIVE)


class TestStrictParse:
    def test_clean_sketch(self) -> None:
        parsed = parse_sketch('{"answer": "True", "claims": ["anne is big"]}', THEORY)
        assert parsed.parse_status is ParseStatus.CLEAN
        assert parsed.answer is Label.TRUE
        assert parsed.claims == (ANNE_BIG,)
        assert parsed.dropped_claims == 0

    def test_clean_requires_exact_label(self) -> None:
        parsed = parse_sketch('{"answer": "true", "claims": ["anne is big"]}', THEORY)
        assert parsed.parse_status is ParseStatus.REPAIRED
        assert parsed.answer is Label.TRUE

    def test_clean_all_three_labels(self) -> None:
        for label in Label:
            text = json.dumps({"answer": label.value, "claims": ["anne is big"]})
            parsed = parse_sketch(text, THEORY)
            assert parsed.parse_status is ParseStatus.CLEAN
            assert parsed.answer is label

    def test_claim_order_preserved(self) -> None:
        text = '{"answer": "Unknown", "claims": ["bob is not green", "anne is big"]}'
        parsed = parse_sketch(text, THEORY)
        assert parsed.claims == (BOB_GREEN_NEG, ANNE_BIG)

    def test_duplicate_claims_collapse_silently(self) -> None:
        text = '{"answer": "True", "claims": ["anne is big", "anne is big"]}'
        parsed = parse_sketch(text, THEORY)
        assert parsed.claims == (ANNE_BIG,)
        assert parsed.dropped_claims == 0
        assert parsed.parse_status is ParseStatus.CLEAN


class TestRepairPass:
    def test_code_fences(self) -> None:
        text = '```json\n{"answer": "True", "claims": ["anne is big"]}\n```'
        parsed = parse_sketch(text, THEORY)
        assert parsed.parse_status is ParseStatus.REPAIRED
        assert parsed.answer is Label.TRUE
        assert parsed.claims == (ANNE_BIG,)

    def test_surrounding_prose(self) -> None:
        text = (
            'Sure, here is my structured reply: '
            '{"answer": "False", "claims": ["bob is not green"]} Hope that helps!'
        )
        parsed = parse_sketch(text, THEORY)
        assert parsed.parse_status is ParseStatus.REPAIRED
        assert parsed.answer is Label.FALSE
        assert parsed.claims == (BOB_GREEN_NEG,)

    def test_trailing_commas(self) -> None:
        text = '{"answer": "True", "claims": ["anne is big",],}'
        parsed = parse_sketch(text, THEORY)
        assert parsed.parse_status is ParseStatus.REPAIRED
        assert parsed.claims == (ANNE_BIG,)

    def test_smart_quotes(self) -> None:
        text = '{“answer”: “True”, “claims”: [“anne is big”]}'
        parsed = parse_sketch(text, THEORY)
        assert parsed.parse_status is ParseStatus.REPAIRED
        assert parsed.answer is Label.TRUE
        assert parsed.claims == (ANNE_BIG,)

    @pytest.mark.parametrize(
        "alias, label",
        [
            ("yes", Label.TRUE),
            ("Yes", Label.TRUE),
            ("no", Label.FALSE),
            ("NO", Label.FALSE),
            ("cannot be determined", Label.UNKNOWN),
            ("unproven", Label.UNKNOWN),
            ("Uncertain", Label.UNKNOWN),
            ("FALSE", Label.FALSE),
        ],
    )
    def test_answer_synonyms(self, alias: str, label: Label) -> None:
        text = json.dumps({"answer": alias, "claims": ["anne is big"]})
        parsed = parse_sketch(text, THEORY)
        assert parsed.parse_status is ParseStatus.REPAIRED
        assert parsed.answer is label

    def test_brace_inside_string_does_not_confuse_span(self) -> None:
        text = 'noise {"answer": "True", "claims": ["anne is big"], "note": "a } b"} tail'
        parsed = parse_sketch(text, THEORY)
        assert parsed.parse_status is ParseStatus.REPAIRED
        assert parsed.claims == (ANNE_BIG,)

    def test_nested_object_prefix_skipped(self) -> None:
        # The first balanced span is {"a": 1}; it lacks a usable answer,
        # so decoding fails and the keyword scan takes over.
        text = '{"a": 1} {"answer": "True", "claims": ["anne is big"]}'
        parsed = parse_sketch(text, THEORY)
        assert parsed.parse_status is ParseStatus.FAILED
        assert parsed.answer is Label.TRUE


class TestFailedParse:
    def test_no_json_at_all(self) -> None:
        parsed = parse_sketch("I believe the answer is False.", THEORY)
        assert parsed.parse_status is ParseStatus.FAILED
        assert parsed.answer is Label.FALSE
        assert parsed.claims == ()

    def test_keyword_scan_takes_last_occurrence(self) -> None:
        parsed = parse_sketch("True at first glance, but ultimately False.", THEORY)
        assert parsed.answer is Label.FALSE

    def test_no_keyword_defaults_unknown(self) -> None:
        parsed = parse_sketch("no structured content here", THEORY)
        assert parsed.parse_status is ParseStatus.FAILED
        assert parsed.answer is Label.UNKNOWN

    def test_unbalanced_json(self) -> None:
        parsed = parse_sketch('{"answer": "True", "claims": ["anne is big"', THEORY)
        assert parsed.parse_status is ParseStatus.FAILED
        assert parsed.answer is Label.TRUE

    def test_non_dict_json(self) -> None:
        parsed = parse_sketch('["True", "False"]', THEORY)
        assert parsed.parse_status is ParseStatus.FAILED

    def test_claims_not_a_list(self) -> None:
        parsed = parse_sketch('{"answer": "True", "claims": "anne is big"}', THEORY)
        assert parsed.parse_status is ParseStatus.FAILED

    def test_non_string_claims(self) -> None:
        parsed = parse_sketch('{"answer": "True", "claims": [1, 2]}', THEORY)
        assert parsed.parse_status is ParseStatus.FAILED

    @pytest.mark.parametrize("answer", [["True"], {"True": 1}], ids=("list", "object"))
    @pytest.mark.parametrize("wrap", ["{}", "Sure: {}, done"], ids=("strict", "repaired"))
    def test_non_string_answer(self, answer, wrap: str) -> None:
        # Not a label on either pass, and never used as a lookup key.
        sketch = json.dumps({"answer": answer, "claims": ["anne is big"]})
        parsed = parse_sketch(wrap.format(sketch), THEORY)
        assert parsed.parse_status is ParseStatus.FAILED
        assert parsed.claims == ()

    def test_empty_claim_list_is_failed(self) -> None:
        # A sketch with nothing checkable has no standing, whatever its
        # answer field says; the answer still comes from the text scan.
        parsed = parse_sketch('{"answer": "False", "claims": []}', THEORY)
        assert parsed.parse_status is ParseStatus.FAILED
        assert parsed.answer is Label.FALSE
        assert parsed.claims == ()

    def test_all_claims_uncanonicalizable(self) -> None:
        text = '{"answer": "True", "claims": ["zed is big", "anne frowns"]}'
        parsed = parse_sketch(text, THEORY)
        assert parsed.parse_status is ParseStatus.FAILED
        assert parsed.dropped_claims == 2

    def test_partial_drop_keeps_status(self) -> None:
        text = '{"answer": "True", "claims": ["anne is big", "zed is big"]}'
        parsed = parse_sketch(text, THEORY)
        assert parsed.parse_status is ParseStatus.CLEAN
        assert parsed.claims == (ANNE_BIG,)
        assert parsed.dropped_claims == 1

    @pytest.mark.parametrize("text", ["{" * 100_000, '{"\\"' * 25_000],
                             ids=("braces", "escaped-quotes"))
    def test_long_unbalanced_reply_parses_quickly(self, text: str) -> None:
        # Rescanning from every "{" takes minutes on either reply.
        started = time.perf_counter()
        parsed = parse_sketch(text, THEORY)
        assert time.perf_counter() - started < 1.0
        assert parsed.parse_status is ParseStatus.FAILED
        assert parsed.claims == ()


class TestObjectSpan:
    @given(st.text(alphabet='{}"\\ a:,', max_size=40))
    @settings(max_examples=1000, deadline=None)
    def test_matches_rescanning_reference(self, text: str) -> None:
        assert _balanced_object_span(text) == rescanning_object_span(text)


class TestCanonicalizeClaim:
    def test_positive(self) -> None:
        assert canonicalize_claim("Anne is big", THEORY) == ANNE_BIG

    def test_negative(self) -> None:
        assert canonicalize_claim("bob is not green", THEORY) == BOB_GREEN_NEG

    def test_contraction_expands(self) -> None:
        assert canonicalize_claim("Bob isn't green", THEORY) == BOB_GREEN_NEG
        assert canonicalize_claim("Bob isnt green", THEORY) == BOB_GREEN_NEG

    def test_trailing_period(self) -> None:
        assert canonicalize_claim("Anne is big.", THEORY) == ANNE_BIG

    def test_derived_attribute_in_vocabulary(self) -> None:
        assert canonicalize_claim("anne is kind", THEORY) == ANNE_KIND

    @pytest.mark.parametrize(
        "text",
        [
            "zed is big",          # unknown entity
            "anne is sleepy",      # unknown attribute
            "anne likes bob",      # not a unary claim
            "is big",
            "",
            "anne is",
        ],
    )
    def test_unmappable(self, text: str) -> None:
        assert canonicalize_claim(text, THEORY) is None


# Claim sentences over the theory's words and a few outside it, with the
# casing, contractions and punctuation the canonicalizer must fold.
_CLAIM_TEXT = st.builds(
    "{} {} {}".format,
    st.sampled_from(["anne", "Anne", "bob", "the carol", "zed", "it"]),
    st.sampled_from(["is", "is not", "isn't", "likes"]),
    st.sampled_from(["big", "Big.", "green", "quiet", "kind", "sleepy", "big and kind"]),
)

# Sketch-like replies, clean or in need of repair, or any text at all.
_SKETCH_TEXT = st.one_of(
    st.text(max_size=200),
    st.builds(
        lambda prefix, answer, claims, suffix: prefix + json.dumps(
            {"answer": answer, "claims": claims}) + suffix,
        st.sampled_from(["", "```json\n", "Sure: "]),
        st.sampled_from(["True", "false", "yes", "Unknown", "maybe"]),
        st.lists(_CLAIM_TEXT, max_size=6),
        st.sampled_from(["", "\n```", " Hope that helps! False"]),
    ),
)


class TestTotality:
    @given(_SKETCH_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_claims_deduplicated_and_in_vocabulary(self, text: str) -> None:
        parsed = parse_sketch(text, THEORY)
        assert len(set(parsed.claims)) == len(parsed.claims)
        if parsed.parse_status is ParseStatus.FAILED:
            assert parsed.claims == ()
        for claim in parsed.claims:
            assert claim.entity in THEORY.entities()
            assert claim.attribute in THEORY.attributes()

    @given(st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_parse_sketch_never_raises(self, text: str) -> None:
        parsed = parse_sketch(text, THEORY)
        assert isinstance(parsed, ParsedSketch)
        assert parsed.answer in set(Label)
        assert parsed.parse_status in set(ParseStatus)
        if parsed.parse_status is ParseStatus.FAILED:
            assert parsed.claims == ()

    @given(
        answer=st.sampled_from([label.value for label in Label]),
        claims=st.lists(
            st.sampled_from(["anne is big", "bob is not green", "carol is quiet", "anne is kind"]),
            max_size=3,
            unique=True,
            min_size=1,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_well_formed_sketches_round_trip(self, answer: str, claims: list[str]) -> None:
        text = json.dumps({"answer": answer, "claims": claims})
        parsed = parse_sketch(text, THEORY)
        assert parsed.parse_status is ParseStatus.CLEAN
        assert parsed.answer.value == answer
        assert [claim.to_text() for claim in parsed.claims] == claims
        assert parsed.dropped_claims == 0


class TestAnchorClaims:
    def test_filters_to_question_entity(self) -> None:
        question = parse_question("Is Anne kind?")
        parsed = ParsedSketch(Label.TRUE, (BOB_GREEN_NEG, ANNE_BIG, ANNE_KIND),
                              ParseStatus.CLEAN, dropped_claims=2)
        anchored = anchor_claims(parsed, question)
        assert anchored.claims == (ANNE_BIG, ANNE_KIND)
        assert anchored.dropped_claims == 3
        assert (anchored.answer, anchored.parse_status) == (Label.TRUE, ParseStatus.CLEAN)

    def test_preserves_order(self) -> None:
        question = parse_question("Is Anne kind?")
        parsed = ParsedSketch(Label.TRUE, (ANNE_KIND, ANNE_BIG), ParseStatus.REPAIRED)
        assert anchor_claims(parsed, question) == parsed

    def test_may_be_empty(self) -> None:
        question = parse_question("Is Carol quiet?")
        parsed = ParsedSketch(Label.UNKNOWN, (ANNE_BIG,), ParseStatus.CLEAN)
        assert anchor_claims(parsed, question) == ParsedSketch(
            Label.UNKNOWN, (), ParseStatus.CLEAN, dropped_claims=1)
