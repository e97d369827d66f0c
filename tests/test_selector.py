"""Verification, scoring, and pipeline control-flow tests."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from proofsketch.theory import Label, Literal, Polarity, parse_question, parse_theory_nl
from proofsketch.closure import VerdictStatus, decide_from_closure, forward_chain, verify_claim
from proofsketch.sketch import ParseStatus, ParsedSketch
from proofsketch.generation import (GenerationRequest, GenerationResponse, GeneratorError,
                                    ScriptedGenerator, count_tokens)
from proofsketch.selector import (AnswerSource, Certification, PipelineConfig, PipelineResult,
                                  ScoreTuple, compare_scores, run_pipeline, score_sketch)

from helpers import closure_depths

THEORY = parse_theory_nl(
    "Anne is big. Bob is round. If someone is big then they are kind."
)
# Closure: anne is big (0), bob is round (0), anne is kind (1).
CLOSURE = forward_chain(THEORY)
# Derives both polarities of anne's kind, so its claims can read Contradicted.
CONTRADICTORY = forward_chain(parse_theory_nl(
    "Anne is big. Bob is round. If someone is big then they are kind. "
    "If anne is big then anne is not kind."
))

DECIDED_Q = parse_question("Is Anne kind?")
OPEN_Q = parse_question("Is Bob kind?")
# What the closure decides for each question; score_sketch takes the decision.
DECIDED = decide_from_closure(CLOSURE, DECIDED_Q)
OPEN = decide_from_closure(CLOSURE, OPEN_Q)

CERTIFIED_SKETCH = '{"answer": "Unknown", "claims": ["bob is round"]}'
PARTIAL_SKETCH = '{"answer": "Unknown", "claims": ["bob is round", "bob is kind"]}'
UNSUPPORTED_SKETCH = '{"answer": "True", "claims": ["bob is kind"]}'
FAILED_SKETCH = "I really could not say."


def _sketch(answer: Label, *claims: Literal,
            status: ParseStatus = ParseStatus.CLEAN) -> ParsedSketch:
    return ParsedSketch(answer, claims, status)


def _raw(tokens: int) -> GenerationResponse:
    return GenerationResponse(text="x " * tokens, completion_tokens=tokens)


class TestVerifyClaim:
    def test_verified(self) -> None:
        verdict = verify_claim(Literal("anne", "kind", Polarity.POSITIVE), CLOSURE)
        assert verdict is VerdictStatus.VERIFIED

    def test_contradicted(self) -> None:
        verdict = verify_claim(Literal("anne", "kind", Polarity.NEGATIVE), CLOSURE)
        assert verdict is VerdictStatus.CONTRADICTED

    def test_unsupported(self) -> None:
        verdict = verify_claim(Literal("bob", "kind", Polarity.POSITIVE), CLOSURE)
        assert verdict is VerdictStatus.UNSUPPORTED

    def test_both_polarities_is_contradicted(self) -> None:
        theory = parse_theory_nl(
            "Anne is big. "
            "If someone is big then they are kind. "
            "If someone is big then they are not kind."
        )
        closure = forward_chain(theory)
        claim = Literal("anne", "kind", Polarity.POSITIVE)
        assert closure_depths(closure).keys() >= {claim, claim.negated()}
        assert verify_claim(claim, closure) is VerdictStatus.CONTRADICTED


class TestScoreTuple:
    def test_field_order(self) -> None:
        assert ScoreTuple._fields == ("cert", "verified_count", "neg_tokens", "consistency")
        assert ScoreTuple(1, 2, -50, 1) == (1, 2, -50, 1)

    @given(
        closure=st.sampled_from([CLOSURE, CONTRADICTORY]),
        answer=st.sampled_from(list(Label)),
        decision=st.sampled_from(list(Label)),
        claims=st.lists(st.builds(Literal, st.sampled_from(["anne", "bob"]),
                                  st.sampled_from(["big", "round", "kind"]),
                                  st.sampled_from(list(Polarity))),
                        max_size=4, unique=True),
        tokens=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=300, deadline=None)
    def test_score_sketch_scores_are_well_formed(self, closure, answer, decision, claims,
                                                 tokens) -> None:
        status = ParseStatus.CLEAN if claims else ParseStatus.FAILED
        score = score_sketch(ParsedSketch(answer, tuple(claims), status), _raw(tokens),
                             closure, decision).score
        assert score.cert in (0, 1) and score.consistency in (0, 1)
        assert 0 <= score.verified_count <= len(claims)
        assert score.neg_tokens == -tokens <= 0
        assert score.cert == 0 or score.verified_count > 0


class TestCompareScores:
    def test_cert_dominates(self) -> None:
        assert compare_scores(ScoreTuple(1, 1, -100, 0), ScoreTuple(0, 5, -10, 1)) == 1

    def test_fewer_tokens_wins(self) -> None:
        assert compare_scores(ScoreTuple(0, 3, -80, 1), ScoreTuple(0, 3, -40, 1)) == -1

    def test_equal_is_zero(self) -> None:
        assert compare_scores(ScoreTuple(0, 3, -40, 1), ScoreTuple(0, 3, -40, 1)) == 0

    def test_verified_count_before_tokens(self) -> None:
        assert compare_scores(ScoreTuple(0, 4, -100, 0), ScoreTuple(0, 3, -10, 1)) == 1

    def test_consistency_last(self) -> None:
        assert compare_scores(ScoreTuple(0, 3, -40, 1), ScoreTuple(0, 3, -40, 0)) == 1


class TestScoreSketch:
    def test_fully_verified(self) -> None:
        parsed = _sketch(
            Label.UNKNOWN,
            Literal("bob", "round", Polarity.POSITIVE),
        )
        scored = score_sketch(parsed, _raw(50), CLOSURE, OPEN)
        assert scored.score == (1, 1, -50, 1)
        assert scored.verdicts == (VerdictStatus.VERIFIED,)

    def test_two_verified_fifty_tokens(self) -> None:
        parsed = _sketch(
            Label.TRUE,
            Literal("anne", "big", Polarity.POSITIVE),
            Literal("anne", "kind", Polarity.POSITIVE),
        )
        # Question on bob keeps the closure undecided for consistency.
        scored = score_sketch(parsed, _raw(50), CLOSURE, OPEN)
        assert scored.score == (1, 2, -50, 1)

    def test_one_of_two_verified(self) -> None:
        parsed = _sketch(
            Label.UNKNOWN,
            Literal("bob", "round", Polarity.POSITIVE),
            Literal("bob", "kind", Polarity.POSITIVE),
        )
        scored = score_sketch(parsed, _raw(30), CLOSURE, OPEN)
        assert scored.score == (0, 1, -30, 1)

    def test_contradicted_kills_consistency(self) -> None:
        parsed = _sketch(Label.UNKNOWN, Literal("bob", "round", Polarity.NEGATIVE))
        scored = score_sketch(parsed, _raw(10), CLOSURE, OPEN)
        assert scored.score == (0, 0, -10, 0)

    def test_disagreeing_with_decided_closure(self) -> None:
        # Claims verify but the answer fights the closure's verdict.
        parsed = _sketch(Label.FALSE, Literal("anne", "big", Polarity.POSITIVE))
        scored = score_sketch(parsed, _raw(20), CLOSURE, DECIDED)
        assert scored.score == (1, 1, -20, 0)

    def test_agreeing_with_decided_closure(self) -> None:
        parsed = _sketch(Label.TRUE, Literal("anne", "big", Polarity.POSITIVE))
        scored = score_sketch(parsed, _raw(20), CLOSURE, DECIDED)
        assert scored.score == (1, 1, -20, 1)

    def test_failed_sketch_scores_zero(self) -> None:
        parsed = ParsedSketch(Label.UNKNOWN, (), ParseStatus.FAILED)
        scored = score_sketch(parsed, _raw(5), CLOSURE, OPEN)
        assert scored.score.cert == 0 and scored.score.verified_count == 0

    def test_empty_claims_never_certify(self) -> None:
        parsed = ParsedSketch(Label.TRUE, (), ParseStatus.CLEAN)
        scored = score_sketch(parsed, _raw(5), CLOSURE, OPEN)
        assert scored.score.cert == 0


class TestPipelineConfig:
    def test_defaults(self) -> None:
        config = PipelineConfig()
        assert config.max_sketches == 4
        assert config.budget_anchored == 120
        assert config.budget_unanchored == 160
        assert config.temperature == 0.3
        assert config.adaptive_budget and config.fixed_budget is None

    def test_fixed_budget_disables_adaptive(self) -> None:
        config = PipelineConfig(fixed_budget=140)
        assert not config.adaptive_budget

    def test_adaptive_flag_is_derived(self) -> None:
        assert PipelineConfig().adaptive_budget
        assert not PipelineConfig(fixed_budget=180).adaptive_budget
        with pytest.raises(TypeError):
            PipelineConfig(adaptive_budget=False)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_sketches": 0},
            {"budget_anchored": 0},
            {"budget_unanchored": -5},
            {"fixed_budget": 0},
            {"temperature": -0.1},
            {"temperature": float("nan")},
            {"temperature": float("inf")},
            {"temperature": 10 ** 400},
        ],
    )
    def test_invalid_rejected(self, kwargs) -> None:
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)
        # _replace builds through the same check.
        with pytest.raises(ValueError):
            PipelineConfig()._replace(**kwargs)


def _result_view(result: PipelineResult) -> dict:
    view = result.to_json_dict()
    view.pop("latency_ms")
    return view


class TestRunPipeline:
    def test_closure_short_circuit(self) -> None:
        generator = ScriptedGenerator([CERTIFIED_SKETCH])
        result = run_pipeline(CLOSURE, DECIDED_Q, PipelineConfig(), generator)
        assert result.answer is Label.TRUE
        assert result.certification is Certification.CERTIFIED
        assert result.answer_source is AnswerSource.CLOSURE_SHORT_CIRCUIT
        assert result.generator_calls == 0
        assert result.total_generated_tokens == 0
        assert result.verified_claims == ()
        assert generator.calls == 0

    def test_short_circuit_false_answer(self) -> None:
        generator = ScriptedGenerator([CERTIFIED_SKETCH])
        result = run_pipeline(
            CLOSURE, parse_question("Is Anne not kind?"), PipelineConfig(), generator
        )
        assert result.answer is Label.FALSE
        assert result.generator_calls == 0

    def test_early_stop_first_call(self) -> None:
        generator = ScriptedGenerator([CERTIFIED_SKETCH])
        result = run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), generator)
        assert result.answer is Label.UNKNOWN
        assert result.certification is Certification.CERTIFIED
        assert result.answer_source is AnswerSource.CERTIFIED_SKETCH
        assert result.generator_calls == 1
        assert result.verified_claims == (Literal("bob", "round", Polarity.POSITIVE),)
        assert result.total_generated_tokens == count_tokens(CERTIFIED_SKETCH)

    def test_early_stop_third_call(self) -> None:
        generator = ScriptedGenerator([FAILED_SKETCH, UNSUPPORTED_SKETCH, CERTIFIED_SKETCH])
        result = run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), generator)
        assert result.generator_calls == 3
        assert result.certification is Certification.CERTIFIED
        assert result.answer_source is AnswerSource.CERTIFIED_SKETCH
        assert len(result.sketches) == 3

    def test_exhaustion_partial(self) -> None:
        generator = ScriptedGenerator([PARTIAL_SKETCH] * 4)
        result = run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), generator)
        assert result.generator_calls == 4
        assert result.certification is Certification.PARTIAL
        assert result.answer_source is AnswerSource.BEST_SKETCH
        assert result.answer is Label.UNKNOWN
        assert result.verified_claims == (Literal("bob", "round", Polarity.POSITIVE),)

    def test_exhaustion_uncertified(self) -> None:
        generator = ScriptedGenerator([FAILED_SKETCH] * 4)
        result = run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), generator)
        assert result.generator_calls == 4
        assert result.certification is Certification.UNCERTIFIED
        assert result.answer_source is AnswerSource.BEST_SKETCH
        assert result.verified_claims == ()

    def test_closure_correction(self) -> None:
        # With the short circuit disabled the loop runs on a decided
        # question; no sketch certifies, so the final re-check overrides
        # the best sketch's wrong answer.
        script = ['{"answer": "False", "claims": ["anne is missing"]}'] * 4
        generator = ScriptedGenerator(script)
        config = PipelineConfig(closure_short_circuit=False)
        result = run_pipeline(CLOSURE, DECIDED_Q, config, generator)
        assert result.answer is Label.TRUE
        assert result.answer_source is AnswerSource.CLOSURE_CORRECTION
        assert result.generator_calls == 4
        assert result.certification is Certification.UNCERTIFIED

    def test_certified_sketch_answers_against_the_closure(self) -> None:
        # With the short circuit disabled, a certified sketch answers for
        # itself on a decided question, even where the closure disagrees.
        script = ['{"answer": "False", "claims": ["anne is big"]}']
        generator = ScriptedGenerator(script)
        config = PipelineConfig(closure_short_circuit=False)
        result = run_pipeline(CLOSURE, DECIDED_Q, config, generator)
        assert DECIDED is Label.TRUE
        assert result.answer is Label.FALSE
        assert result.answer_source is AnswerSource.CERTIFIED_SKETCH
        assert result.certification is Certification.CERTIFIED
        assert result.generator_calls == 1

    def test_off_entity_claims_anchor_away(self) -> None:
        # Claims about anne cannot certify a question about bob.
        script = ['{"answer": "Unknown", "claims": ["anne is big"]}'] * 4
        generator = ScriptedGenerator(script)
        result = run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), generator)
        assert result.certification is Certification.UNCERTIFIED
        assert result.generator_calls == 4
        for sketch in result.sketches:
            assert sketch.parsed.claims == ()
            assert sketch.parsed.dropped_claims == 1

    def test_token_accounting_sums_calls(self) -> None:
        script = [FAILED_SKETCH, UNSUPPORTED_SKETCH, CERTIFIED_SKETCH]
        generator = ScriptedGenerator(script)
        result = run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), generator)
        assert result.total_generated_tokens == sum(count_tokens(s) for s in script)

    def test_budget_truncates_oversized_sketch(self) -> None:
        long_text = "word " * 300
        generator = ScriptedGenerator([long_text] * 4)
        config = PipelineConfig(fixed_budget=10)
        result = run_pipeline(CLOSURE, OPEN_Q, config, generator)
        assert generator.calls == 4
        for sketch in result.sketches:
            assert sketch.raw.completion_tokens <= 10

    def test_max_sketches_respected(self) -> None:
        generator = ScriptedGenerator([FAILED_SKETCH] * 2)
        config = PipelineConfig(max_sketches=2)
        result = run_pipeline(CLOSURE, OPEN_Q, config, generator)
        assert result.generator_calls == 2

    def test_entity_absent_from_closure_samples_once(self) -> None:
        # Zed has no closure literal, so no anchored claim can verify and
        # no sketch can certify: one call, and its answer stands.
        script = ['{"answer": "False", "claims": ["zed is kind"]}',
                  '{"answer": "True", "claims": ["zed is big"]}',
                  '{"answer": "Unknown", "claims": []}',
                  FAILED_SKETCH]
        generator = ScriptedGenerator(script)
        result = run_pipeline(CLOSURE, parse_question("Is Zed kind?"), PipelineConfig(),
                              generator)
        assert result.generator_calls == 1 and generator.calls == 1
        assert result.answer_source is AnswerSource.BEST_SKETCH
        assert result.answer is Label.FALSE

    def test_entity_with_only_contradicted_literals_samples_once(self) -> None:
        # Anne is big and, by the rule, not big: both literals about anne
        # are Contradicted, so no claim about anne can verify.
        closure = forward_chain(parse_theory_nl(
            "Anne is big. Bob is round. If someone is big then they are not big."
        ))
        script = ['{"answer": "True", "claims": ["anne is big"]}',
                  '{"answer": "False", "claims": ["anne is not big"]}',
                  '{"answer": "Unknown", "claims": ["anne is kind"]}',
                  FAILED_SKETCH]
        generator = ScriptedGenerator(script)
        result = run_pipeline(closure, parse_question("Is Anne kind?"), PipelineConfig(),
                              generator)
        assert result.generator_calls == 1 and generator.calls == 1
        assert result.answer_source is AnswerSource.BEST_SKETCH
        assert result.answer is Label.TRUE

    def test_tie_keeps_earliest(self) -> None:
        # Same score either way (closure undecided, equal token counts),
        # different answers: the first sketch must win.
        first = '{"answer": "True", "claims": ["bob is kind"]}'
        second = '{"answer": "False", "claims": ["bob is kind"]}'
        assert count_tokens(first) == count_tokens(second)
        generator = ScriptedGenerator([first, second])
        config = PipelineConfig(max_sketches=2)
        result = run_pipeline(CLOSURE, OPEN_Q, config, generator)
        assert generator.calls == 2
        assert result.sketches[0].score == result.sketches[1].score
        assert result.answer is Label.TRUE

    def test_generator_error_carries_accounting(self) -> None:
        class Flaky:
            name = "flaky"

            def __init__(self) -> None:
                self.calls = 0

            def generate(self, request: GenerationRequest) -> GenerationResponse:
                self.calls += 1
                if self.calls == 2:
                    raise GeneratorError("backend fell over")
                return GenerationResponse(
                    text=FAILED_SKETCH, completion_tokens=count_tokens(FAILED_SKETCH)
                )

        with pytest.raises(GeneratorError) as excinfo:
            run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), Flaky())
        assert excinfo.value.calls_made == 2
        assert excinfo.value.tokens_generated == count_tokens(FAILED_SKETCH)

    def test_determinism_modulo_latency(self) -> None:
        script = [FAILED_SKETCH, PARTIAL_SKETCH, UNSUPPORTED_SKETCH, CERTIFIED_SKETCH]
        first = run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), ScriptedGenerator(script))
        second = run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), ScriptedGenerator(script))
        assert _result_view(first) == _result_view(second)

    def test_question_decided_once(self, monkeypatch) -> None:
        calls = []

        def counted(closure, question):
            calls.append(question)
            return decide_from_closure(closure, question)

        monkeypatch.setattr("proofsketch.selector.decide_from_closure", counted)
        generator = ScriptedGenerator([FAILED_SKETCH] * 4)
        result = run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), generator)
        assert len(result.sketches) == 4
        assert calls == [OPEN_Q]

    def test_audit_view_is_json_serializable(self) -> None:
        generator = ScriptedGenerator([PARTIAL_SKETCH] * 4)
        result = run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), generator)
        assert generator.calls == 4
        encoded = json.dumps(result.to_json_dict())
        assert "bob is round" in encoded


class TestCertifyUnknownFlag:
    def test_underivable_target_certifies(self) -> None:
        config = PipelineConfig(certify_unknown_from_closure=True)
        generator = ScriptedGenerator([CERTIFIED_SKETCH])
        result = run_pipeline(CLOSURE, OPEN_Q, config, generator)
        assert result.answer is Label.UNKNOWN
        assert result.certification is Certification.CERTIFIED
        assert result.answer_source is AnswerSource.CLOSURE_SHORT_CIRCUIT
        assert result.generator_calls == 0

    def test_contradictory_target_still_samples(self) -> None:
        # Both polarities of the target are derivable, so the flag must
        # not certify Unknown from the closure; sampling proceeds and the
        # untainted claim about anne still verifies.
        theory = parse_theory_nl(
            "Anne is big. "
            "If someone is big then they are kind. "
            "If someone is big then they are not kind."
        )
        question = parse_question("Is Anne kind?")
        config = PipelineConfig(certify_unknown_from_closure=True)
        generator = ScriptedGenerator(['{"answer": "Unknown", "claims": ["anne is big"]}'] * 4)
        result = run_pipeline(forward_chain(theory), question, config, generator)
        assert result.generator_calls == 1
        assert result.answer_source is AnswerSource.CERTIFIED_SKETCH
        assert result.answer is Label.UNKNOWN

    def test_flag_off_keeps_sampling(self) -> None:
        generator = ScriptedGenerator([CERTIFIED_SKETCH])
        result = run_pipeline(CLOSURE, OPEN_Q, PipelineConfig(), generator)
        assert result.generator_calls == 1

    @pytest.mark.parametrize("short_circuit, certify, outcome", [
        (False, False, (Label.TRUE, AnswerSource.CERTIFIED_SKETCH, 1)),
        (False, True, None),
        (True, True, (Label.UNKNOWN, AnswerSource.CLOSURE_SHORT_CIRCUIT, 0)),
    ], ids=("both-off", "certify-only", "both-on"))
    def test_flag_acts_only_with_the_short_circuit(self, short_circuit, certify,
                                                   outcome) -> None:
        # Without the short circuit the flag would change nothing, so that
        # config is refused, however it is built; with the short circuit
        # off, the sketch, certified by its one verified claim, answers for itself.
        if outcome is None:
            with pytest.raises(ValueError, match="^certify_unknown_from_closure needs "
                                                 "closure_short_circuit$"):
                PipelineConfig(closure_short_circuit=short_circuit,
                               certify_unknown_from_closure=certify)
            with pytest.raises(ValueError):
                PipelineConfig(certify_unknown_from_closure=True)._replace(
                    closure_short_circuit=False)
            return
        closure = forward_chain(parse_theory_nl("Anne is big. Bob is kind."))
        config = PipelineConfig(closure_short_circuit=short_circuit,
                                certify_unknown_from_closure=certify)
        generator = ScriptedGenerator(['{"answer": "True", "claims": ["anne is big"]}'])
        result = run_pipeline(closure, parse_question("Is Anne green?"), config, generator)
        assert (result.answer, result.answer_source, result.generator_calls) == outcome
        assert result.certification is Certification.CERTIFIED
        assert generator.calls == outcome[2]
