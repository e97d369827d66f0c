"""Claim verification, sketch scoring, and the answering pipeline.

run_pipeline answers one question about a closed theory in stages: return
immediately when the closure already decides the question; otherwise
sample up to max_sketches budgeted sketches, or 1 when the closure can
verify nothing about the queried entity (claims are anchored to it, so no
sketch could certify), verify every anchored claim against the closure,
and stop at the first sketch whose claims all verify. The best sketch
under a lexicographic score then answers: a certified one (the last one
sampled) for itself, any other under the closure's final veto.

A score is a named tuple, so scores compare as tuples: by full
certification, then number of verified claims, then fewer generated
tokens, then consistency (no contradicted claim, and agreement with the
closure when the closure has an opinion). Ties keep the earliest sketch.

Claim verdicts and the closure's decision come from closure.py; a run
decides its question once and hands the decision to every score. A
result's certification is derived, not stored: Certified when the closure
or a fully verified sketch answered, else Partial or Uncertified by
whether any claim verified. So are its generator call count and token
total, read off the sketches it kept.
"""

from __future__ import annotations

import sys
import time
from enum import Enum
from typing import Any, NamedTuple

from .closure import Closure, VerdictStatus, decide_from_closure, verified_literals, verify_claim
from .generation import (GenerationResponse, Generator, GeneratorError, build_sketch_prompt,
                         request_sketch)
from .sketch import ParsedSketch, anchor_claims, parse_sketch
from .theory import CheckedTuple, Label, Literal, Question


class Certification(str, Enum):
    CERTIFIED = "Certified"
    PARTIAL = "Partial"
    UNCERTIFIED = "Uncertified"


class AnswerSource(str, Enum):
    CLOSURE_SHORT_CIRCUIT = "ClosureShortCircuit"
    CERTIFIED_SKETCH = "CertifiedSketch"
    BEST_SKETCH = "BestSketch"
    CLOSURE_CORRECTION = "ClosureCorrection"


class ScoreTuple(NamedTuple):
    """Lexicographic sketch score; larger wins, compared as a tuple.

    score_sketch makes every score: cert and consistency are 0 or 1,
    verified_count >= 0, neg_tokens <= 0, and cert implies a verified claim.
    """

    cert: int
    verified_count: int
    neg_tokens: int
    consistency: int


def compare_scores(a: ScoreTuple, b: ScoreTuple) -> int:
    """-1, 0, or 1 as a scores below, equal to, or above b."""
    return (a > b) - (a < b)


class ScoredSketch(NamedTuple):
    """One generated sketch with its verdicts and score: raw is the
    budget-clamped completion, and verdicts[i] is the verdict on
    parsed.claims[i]."""

    raw: GenerationResponse
    parsed: ParsedSketch
    verdicts: tuple[VerdictStatus, ...]
    score: ScoreTuple


class _PipelineConfigFields(NamedTuple):
    max_sketches: int = 4
    budget_anchored: int = 120
    budget_unanchored: int = 160
    temperature: float = 0.3
    fixed_budget: int | None = None
    certify_unknown_from_closure: bool = False
    closure_short_circuit: bool = True


class PipelineConfig(CheckedTuple, _PipelineConfigFields):
    """Knobs for run_pipeline.

    max_sketches caps the sketches sampled per question; run_pipeline
    samples 1 when the closure can verify nothing about the queried entity,
    since claims are anchored to it and no sketch could certify.

    Exactly one budget policy applies: setting fixed_budget switches the
    adaptive two-tier policy off, and leaving it unset switches it on.
    closure_short_circuit exists for diagnostics; with it off, closure-
    decided questions run the sampling loop too, and a certified sketch
    answers for itself even against the closure's decision (only an
    uncertified one is overridden). certify_unknown_from_closure
    additionally certifies Unknown when neither polarity is derivable,
    trusting the closure as complete for this fragment; it never applies
    when both polarities are derivable, since a contradictory theory must
    not certify anything. With closure_short_circuit off it changes nothing.

    A count or budget below 1, or a temperature that is not a finite
    non-negative number, raises ValueError however the config is built:
    _make, and so _replace, construct through __new__.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "PipelineConfig":
        config = super().__new__(cls, *args, **kwargs)
        if config.max_sketches < 1:
            raise ValueError("max_sketches must be at least 1")
        for name in ("budget_anchored", "budget_unanchored"):
            if getattr(config, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if config.fixed_budget is not None and config.fixed_budget < 1:
            raise ValueError("fixed_budget must be at least 1")
        if not 0 <= config.temperature <= sys.float_info.max:
            raise ValueError("temperature must be a finite non-negative number")
        return config

    @property
    def adaptive_budget(self) -> bool:
        return self.fixed_budget is None


def select_budget(closure: Closure, question: Question, config: PipelineConfig) -> int:
    """Completion budget for one sketch request.

    A fixed budget, when configured, wins outright. Otherwise questions
    whose entity already has closure facts get the tighter budget: the
    verifier has material to anchor on, so the sketch can be short.
    """
    if config.fixed_budget is not None:
        return config.fixed_budget
    if question.target.entity in closure.table:
        return config.budget_anchored
    return config.budget_unanchored


class PipelineResult(NamedTuple):
    answer: Label
    verified_claims: tuple[Literal, ...]
    answer_source: AnswerSource
    latency_ms: float
    sketches: tuple[ScoredSketch, ...] = ()

    @property
    def generator_calls(self) -> int:
        return len(self.sketches)

    @property
    def total_generated_tokens(self) -> int:
        return sum(sketch.raw.completion_tokens for sketch in self.sketches)

    @property
    def certification(self) -> Certification:
        if self.answer_source in (AnswerSource.CLOSURE_SHORT_CIRCUIT,
                                  AnswerSource.CERTIFIED_SKETCH):
            return Certification.CERTIFIED
        return Certification.PARTIAL if self.verified_claims else Certification.UNCERTIFIED

    def to_json_dict(self) -> dict:
        """JSON-ready view including the per-sketch audit trail."""
        return {
            "answer": self.answer.value,
            "certification": self.certification.value,
            "answer_source": self.answer_source.value,
            "verified_claims": [claim.to_text() for claim in self.verified_claims],
            "generator_calls": self.generator_calls,
            "total_generated_tokens": self.total_generated_tokens,
            "latency_ms": round(self.latency_ms, 3),
            "sketches": [
                {
                    "index": index,
                    "answer": sketch.parsed.answer.value,
                    "parse_status": sketch.parsed.parse_status.value,
                    "claims": [claim.to_text() for claim in sketch.parsed.claims],
                    "verdicts": [
                        {"claim": claim.to_text(), "status": status.value}
                        for claim, status in zip(sketch.parsed.claims, sketch.verdicts)
                    ],
                    "dropped_claims": sketch.parsed.dropped_claims,
                    "tokens": sketch.raw.completion_tokens,
                    "score": sketch.score._asdict(),
                }
                for index, sketch in enumerate(self.sketches)
            ],
        }


def score_sketch(parsed: ParsedSketch, raw: GenerationResponse, closure: Closure,
                 decision: Label) -> ScoredSketch:
    """Verify a sketch's claims and attach its selection score; decision is
    decide_from_closure's label for the question, Unknown if undecided."""
    verdicts = tuple(verify_claim(claim, closure) for claim in parsed.claims)
    verified = verdicts.count(VerdictStatus.VERIFIED)
    cert = int(bool(verdicts) and verified == len(verdicts))
    contradicted = VerdictStatus.CONTRADICTED in verdicts
    agrees = decision is Label.UNKNOWN or parsed.answer is decision
    consistency = int(not contradicted and agrees)
    score = ScoreTuple(
        cert=cert,
        verified_count=verified,
        neg_tokens=-raw.completion_tokens,
        consistency=consistency,
    )
    return ScoredSketch(raw=raw, parsed=parsed, verdicts=verdicts, score=score)


def run_pipeline(closure: Closure, question: Question, config: PipelineConfig,
                 generator: Generator) -> PipelineResult:
    """Answer one question with closure-gated sketch sampling.

    On GeneratorError the exception is re-raised with calls_made and
    tokens_generated stamped, so callers can account for partial work.
    """
    started = time.perf_counter()
    decision = decide_from_closure(closure, question)
    # With certify_unknown_from_closure, an undecided question whose target
    # the closure derives in neither polarity is answered Unknown here too.
    if config.closure_short_circuit and (
            decision is not Label.UNKNOWN
            or (config.certify_unknown_from_closure
                and verify_claim(question.target, closure) is VerdictStatus.UNSUPPORTED)):
        return PipelineResult(
            answer=decision,
            verified_claims=(),
            answer_source=AnswerSource.CLOSURE_SHORT_CIRCUIT,
            latency_ms=(time.perf_counter() - started) * 1000.0,
        )

    budget = select_budget(closure, question, config)
    prompt = build_sketch_prompt(closure.theory, question)
    scored: list[ScoredSketch] = []
    # Only claims about the queried entity are kept, so without a
    # verifiable literal about it no sketch can certify: sample once.
    certifiable = bool(verified_literals(closure, question.target.entity))

    for call_index in range(config.max_sketches if certifiable else 1):
        try:
            raw = request_sketch(generator, prompt, budget, config.temperature)
        except GeneratorError as exc:
            exc.calls_made = call_index + 1
            exc.tokens_generated = sum(sketch.raw.completion_tokens for sketch in scored)
            raise
        parsed = anchor_claims(parse_sketch(raw.text, closure.theory), question)
        scored.append(score_sketch(parsed, raw, closure, decision))
        if scored[-1].score.cert:
            break

    # max() keeps the earliest of tied sketches, matching the tie rule. The
    # loop stops at the first certified sketch, so it is the best one.
    best = max(scored, key=lambda sketch: sketch.score)
    if best.score.cert:
        answer, source = best.parsed.answer, AnswerSource.CERTIFIED_SKETCH
    elif decision is not Label.UNKNOWN:
        answer, source = decision, AnswerSource.CLOSURE_CORRECTION
    else:
        answer, source = best.parsed.answer, AnswerSource.BEST_SKETCH
    verified_claims = tuple(
        claim for claim, status in zip(best.parsed.claims, best.verdicts)
        if status is VerdictStatus.VERIFIED
    )
    return PipelineResult(
        answer=answer,
        verified_claims=verified_claims,
        answer_source=source,
        latency_ms=(time.perf_counter() - started) * 1000.0,
        sketches=tuple(scored),
    )
