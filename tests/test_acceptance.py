"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Every test prints "[criterion NN] PASS|FAIL <description>" before
asserting, so a -v or -s run shows the full scorecard at a glance.
"""

from __future__ import annotations

import json
import random
import time

from proofsketch.theory import Label, Literal, Polarity, Theory, parse_question, parse_theory_nl
from proofsketch.closure import decide_from_closure, forward_chain
from proofsketch.sketch import ParseStatus, parse_sketch
from proofsketch.generation import (Method, OracleGenerator, OracleNoiseConfig, ScriptedGenerator,
                                    count_tokens, request_sketch)
from proofsketch.selector import (AnswerSource, Certification, PipelineConfig, ScoreTuple,
                                  compare_scores, run_pipeline, select_budget)
from proofsketch.harness import (DatasetRecord, compute_metrics, evaluate, nearest_rank_p95,
                                 run_ablation, savings_percent, token_savings, write_run)

from helpers import brute_force_closure, random_question, random_theory, record_for
from test_generation import _StubEndpoint, _ok_payload
from test_harness import table_fixture_records


def _criterion(number: int, description: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    line = f"[criterion {number:02d}] {status} {description}"
    if problems:
        line += " :: " + "; ".join(problems[:5])
    print(line)
    assert not problems, line


# ---------------------------------------------------------------------------


def test_criterion_01_closure_oracle_equivalence() -> None:
    problems: list[str] = []
    rng = random.Random(123456)
    theories = [random_theory(rng) for _ in range(1000)]
    started = time.perf_counter()
    for index, theory in enumerate(theories):
        fast = forward_chain(theory)
        slow = brute_force_closure(theory)
        if fast.table != slow.table:
            problems.append(f"literal sets or depths differ on theory {index}")
        if fast.contradictory is not slow.contradictory:
            problems.append(f"contradiction flags differ on theory {index}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"sweep took {elapsed:.2f}s, budget is 5s")
    _criterion(1, "forward chaining equals brute-force reference on 1000 theories", problems)


def test_criterion_02_order_independence() -> None:
    problems: list[str] = []
    rng = random.Random(777)
    for index in range(200):
        theory = random_theory(rng)
        rules = list(theory.rules)
        rng.shuffle(rules)
        facts = list(theory.facts)
        rng.shuffle(facts)
        permuted = Theory(frozenset(facts), tuple(rules))
        original = forward_chain(theory)
        shuffled = forward_chain(permuted)
        if original.table != shuffled.table:
            problems.append(f"literal sets or depths differ on theory {index}")
        if original.contradictory is not shuffled.contradictory:
            problems.append(f"contradiction flags differ on theory {index}")
    _criterion(2, "closures are invariant under rule and fact permutation (200 theories)", problems)


# ---------------------------------------------------------------------------

_TRACE_CLOSURE = forward_chain(parse_theory_nl(
    "Anne is big. Bob is round. If someone is big then they are kind."
))
_DECIDED_Q = parse_question("Is Anne kind?")
_OPEN_Q = parse_question("Is Bob kind?")

_CERT = '{"answer": "Unknown", "claims": ["bob is round"]}'
_PARTIAL = '{"answer": "Unknown", "claims": ["bob is round", "bob is kind"]}'
_UNSUPPORTED = '{"answer": "True", "claims": ["bob is kind"]}'
_GIBBERISH = "I really cannot commit to a verdict here."
_WRONG_PARTIAL = '{"answer": "False", "claims": ["anne is big", "anne is round"]}'

_BOB_ROUND = Literal("bob", "round", Polarity.POSITIVE)
_ANNE_BIG = Literal("anne", "big", Polarity.POSITIVE)


def test_criterion_03_golden_traces() -> None:
    problems: list[str] = []

    def check(name: str, result, answer, verified, certification, source, calls, tokens) -> None:
        observed = (
            result.answer,
            result.verified_claims,
            result.certification,
            result.answer_source,
            result.generator_calls,
            result.total_generated_tokens,
        )
        expected = (answer, verified, certification, source, calls, tokens)
        if observed != expected:
            problems.append(f"{name}: {observed} != {expected}")

    result = run_pipeline(_TRACE_CLOSURE, _DECIDED_Q, PipelineConfig(),
                          ScriptedGenerator([_CERT]))
    check("short-circuit", result, Label.TRUE, (), Certification.CERTIFIED,
          AnswerSource.CLOSURE_SHORT_CIRCUIT, 0, 0)

    result = run_pipeline(_TRACE_CLOSURE, _OPEN_Q, PipelineConfig(),
                          ScriptedGenerator([_CERT]))
    check("early-stop-1", result, Label.UNKNOWN, (_BOB_ROUND,), Certification.CERTIFIED,
          AnswerSource.CERTIFIED_SKETCH, 1, count_tokens(_CERT))

    script = [_GIBBERISH, _UNSUPPORTED, _CERT]
    result = run_pipeline(_TRACE_CLOSURE, _OPEN_Q, PipelineConfig(),
                          ScriptedGenerator(script))
    check("early-stop-3", result, Label.UNKNOWN, (_BOB_ROUND,), Certification.CERTIFIED,
          AnswerSource.CERTIFIED_SKETCH, 3, sum(count_tokens(s) for s in script))

    result = run_pipeline(_TRACE_CLOSURE, _OPEN_Q, PipelineConfig(),
                          ScriptedGenerator([_PARTIAL] * 4))
    check("exhaustion-partial", result, Label.UNKNOWN, (_BOB_ROUND,), Certification.PARTIAL,
          AnswerSource.BEST_SKETCH, 4, 4 * count_tokens(_PARTIAL))

    # Diagnostic run with the short circuit off: the loop exhausts on a
    # closure-decided question and the final re-check corrects the answer.
    result = run_pipeline(_TRACE_CLOSURE, _DECIDED_Q,
                          PipelineConfig(closure_short_circuit=False),
                          ScriptedGenerator([_WRONG_PARTIAL] * 4))
    check("exhaustion-correction", result, Label.TRUE, (_ANNE_BIG,), Certification.PARTIAL,
          AnswerSource.CLOSURE_CORRECTION, 4, 4 * count_tokens(_WRONG_PARTIAL))

    _criterion(3, "five scripted pipeline traces with calls {0,1,3,4,4}", problems)


# ---------------------------------------------------------------------------


def _anchored_corpus(count: int, seed: int):
    # Benchmark-style corpus: consistent theories only. An entity whose
    # every derivable literal is also derivable negated can never yield a
    # verified claim, so certification would be unreachable regardless of
    # the generator; the datasets this simulates contain no contradictions.
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        theory = random_theory(rng)
        closure = forward_chain(theory)
        if closure.contradictory:
            continue
        question = random_question(rng, theory)
        if question.target.entity in closure.table:
            cases.append((theory, question, closure))
    return cases


def test_criterion_04_oracle_generator_soundness() -> None:
    problems: list[str] = []
    cases = _anchored_corpus(220, seed=20250821)

    correct = certified = 0
    for index, (theory, question, closure) in enumerate(cases):
        gold = decide_from_closure(closure, question)
        generator = OracleGenerator(closure, question, OracleNoiseConfig(), index)
        result = run_pipeline(closure, question, PipelineConfig(), generator)
        correct += result.answer is gold
        certified += result.certification is Certification.CERTIFIED
    accuracy = correct / len(cases)
    cert_rate = certified / len(cases)
    if accuracy != 1.0:
        problems.append(f"noise-0 accuracy {accuracy} != 1.0")
    if cert_rate != 1.0:
        problems.append(f"noise-0 cert rate {cert_rate} != 1.0")

    undecidable = [
        (theory, question, closure)
        for theory, question, closure in cases
        if decide_from_closure(closure, question) is Label.UNKNOWN
    ]
    if len(undecidable) < 50:
        problems.append(f"only {len(undecidable)} undecidable cases in the corpus")
    flipped_correct = flipped_certified = consistency_ok = 0
    for index, (theory, question, closure) in enumerate(undecidable):
        noise = OracleNoiseConfig(flip_answer_prob=1.0)
        result = run_pipeline(closure, question, PipelineConfig(),
                              OracleGenerator(closure, question, noise, index))
        flipped_correct += result.answer is Label.UNKNOWN
        flipped_certified += result.certification is Certification.CERTIFIED
        winning = result.sketches[-1]
        consistency_ok += winning.score.consistency == 1
    if flipped_certified != len(undecidable):
        problems.append(
            f"flip=1 certified {flipped_certified}/{len(undecidable)}, expected all"
        )
    if flipped_correct != 0:
        problems.append("flip=1 left some answer unflipped")
    if consistency_ok != len(undecidable):
        problems.append("closure-undecided consistency term should stay 1")
    _criterion(
        4,
        "closure-backed generator: noise 0 gives accuracy and cert rate 1.00; "
        "flip=1 keeps certification claim-driven",
        problems,
    )


def test_criterion_05_noise_monotonicity() -> None:
    problems: list[str] = []
    rng = random.Random(5150)
    cases = []
    for _ in range(500):
        theory = random_theory(rng)
        question = random_question(rng, theory)
        closure = forward_chain(theory)
        cases.append((closure, question, decide_from_closure(closure, question)))

    accuracies = {}
    cert_rates = {}
    for corrupt in (0.0, 0.25, 0.5):
        correct = certified = 0
        for index, (closure, question, gold) in enumerate(cases):
            noise = OracleNoiseConfig(corrupt_claim_prob=corrupt)
            result = run_pipeline(closure, question, PipelineConfig(),
                                  OracleGenerator(closure, question, noise, 1_000 + index))
            correct += result.answer is gold
            certified += result.certification is Certification.CERTIFIED
        accuracies[corrupt] = correct / len(cases)
        cert_rates[corrupt] = certified / len(cases)

    tolerance = 0.02
    if accuracies[0.25] > accuracies[0.0] + tolerance:
        problems.append(f"accuracy rose 0->0.25: {accuracies}")
    if accuracies[0.5] > accuracies[0.25] + tolerance:
        problems.append(f"accuracy rose 0.25->0.5: {accuracies}")
    detail = (
        f"acc {accuracies[0.0]:.3f}/{accuracies[0.25]:.3f}/{accuracies[0.5]:.3f}, "
        f"cert {cert_rates[0.0]:.3f}/{cert_rates[0.25]:.3f}/{cert_rates[0.5]:.3f}"
    )
    print(f"[criterion 05 detail] {detail}")
    _criterion(5, "accuracy non-increasing under claim corruption {0, 0.25, 0.5}", problems)


def test_criterion_06_budget_policy() -> None:
    problems: list[str] = []
    rng = random.Random(606)
    config = PipelineConfig()
    checked = 0
    while checked < 50:
        theory = random_theory(rng)
        question = random_question(rng, theory)
        closure = forward_chain(theory)
        expected = 120 if question.target.entity in closure.table else 160
        observed = select_budget(closure, question, config)
        if observed != expected:
            problems.append(f"case {checked}: budget {observed} != {expected}")
        fixed = select_budget(closure, question, PipelineConfig(fixed_budget=180))
        if fixed != 180:
            problems.append(f"case {checked}: fixed budget ignored")
        checked += 1

    records = [
        record_for(theory, question, f"abl-{i}")
        for i, (theory, question, _) in enumerate(_anchored_corpus(4, seed=42))
    ]

    def factory(record: DatasetRecord):
        return OracleGenerator(record.closure, record.question, OracleNoiseConfig())

    rows = run_ablation(records, list(range(120, 221, 20)), PipelineConfig(), factory)
    labels = [row.budget for row in rows]
    if labels != ["120", "140", "160", "180", "200", "220", "adaptive"]:
        problems.append(f"ablation rows {labels}")
    _criterion(6, "two-tier budget selection exact on 50 cases; sweep rows 120-220 step 20", problems)


def test_criterion_07_metric_fidelity() -> None:
    problems: list[str] = []
    report = compute_metrics(table_fixture_records())
    sketch = report.per_method[Method.PROOFSKETCH.value]
    long_cot = report.per_method[Method.LONG_COT.value]
    if sketch.accuracy != 0.68:
        problems.append(f"accuracy {sketch.accuracy!r} != 0.68")
    if sketch.mean_tokens != 137.94:
        problems.append(f"mean tokens {sketch.mean_tokens!r} != 137.94")
    if sketch.cert_rate != 0.42:
        problems.append(f"cert rate {sketch.cert_rate!r} != 0.42")
    if long_cot.mean_tokens != 218.71:
        problems.append(f"baseline mean tokens {long_cot.mean_tokens!r} != 218.71")
    percent = savings_percent(
        token_savings(report, Method.PROOFSKETCH.value, Method.LONG_COT.value)
    )
    if percent != 36.9:
        problems.append(f"savings {percent!r} != 36.9")
    if abs(percent - 37.0) > 0.5:
        problems.append(f"savings {percent} not within 0.5pp of 37.0")
    _criterion(7, "frozen fixture reproduces 0.68 / 137.94 / 0.42 and 36.9% savings", problems)


# ---------------------------------------------------------------------------

_REPAIR_THEORY = parse_theory_nl(
    "Anne is big. Bob is not green. Carol is quiet. "
    "If someone is big then they are kind."
)

# (text, expected answer) for the 15 designated-recoverable items.
_RECOVERABLE = [
    ('```json\n{"answer": "True", "claims": ["anne is big"]}\n```', Label.TRUE),
    ('```\n{"answer": "False", "claims": ["bob is not green"]}\n```', Label.FALSE),
    ('Here you go: {"answer": "Unknown", "claims": ["carol is quiet"]}', Label.UNKNOWN),
    ('Sure! {"answer": "True", "claims": ["anne is kind"]} Let me know!', Label.TRUE),
    ('{"answer": "True", "claims": ["anne is big",]}', Label.TRUE),
    ('{"answer": "False", "claims": ["bob is not green"],}', Label.FALSE),
    ('{"answer": "Unknown", "claims": ["carol is quiet",],}', Label.UNKNOWN),
    ('{“answer”: “True”, “claims”: [“anne is big”]}', Label.TRUE),
    ('Result: {“answer”: “No”, “claims”: [“bob is not green”]}', Label.FALSE),
    ('{"answer": "true", "claims": ["anne is big"]}', Label.TRUE),
    ('{"answer": "FALSE", "claims": ["bob is not green"]}', Label.FALSE),
    ('{"answer": "yes", "claims": ["anne is kind"]}', Label.TRUE),
    ('{"answer": "cannot be determined", "claims": ["carol is quiet"]}', Label.UNKNOWN),
    ('{"answer": "unproven", "claims": ["anne is big"]}', Label.UNKNOWN),
    ('```json\n{"answer": "Uncertain", "claims": ["carol is quiet",]}\n```', Label.UNKNOWN),
]

# (text, answer expected from the keyword scan) for the 10 hopeless items.
_HOPELESS = [
    ("The answer is True.", Label.TRUE),
    ("I confess I have no idea.", Label.UNKNOWN),
    ('{"answer": "True", "claims": ["anne is big"', Label.TRUE),
    ('["True", "False"]', Label.FALSE),
    ('{"answer": "True", "claims": "anne is big"}', Label.TRUE),
    ('{"answer": "True", "claims": [1, 2]}', Label.TRUE),
    ('{"answer": "False", "claims": []}', Label.FALSE),
    ('{"answer": "True", "claims": ["zed is purple"]}', Label.TRUE),
    ('{"verdict": "False"}', Label.FALSE),
    ("Unknown True False and then nothing useful follows here", Label.FALSE),
]


def test_criterion_08_repair_robustness() -> None:
    problems: list[str] = []
    if len(_RECOVERABLE) != 15 or len(_HOPELESS) != 10:
        problems.append("corpus must hold exactly 15 recoverable and 10 hopeless items")
    for index, (text, expected) in enumerate(_RECOVERABLE):
        parsed = parse_sketch(text, _REPAIR_THEORY)
        if parsed.parse_status is not ParseStatus.REPAIRED:
            problems.append(f"recoverable {index}: status {parsed.parse_status.value}")
        if parsed.answer is not expected:
            problems.append(f"recoverable {index}: answer {parsed.answer.value}")
        if not parsed.claims:
            problems.append(f"recoverable {index}: no claims survived")
    for index, (text, expected) in enumerate(_HOPELESS):
        parsed = parse_sketch(text, _REPAIR_THEORY)
        if parsed.parse_status is not ParseStatus.FAILED:
            problems.append(f"hopeless {index}: status {parsed.parse_status.value}")
        if parsed.answer is not expected:
            problems.append(f"hopeless {index}: answer {parsed.answer.value}")
        if parsed.claims:
            problems.append(f"hopeless {index}: claims should be empty")
    _criterion(8, "25-item malformed corpus: 15 repaired with correct answers, 10 failed", problems)


def test_criterion_09_budget_enforcement() -> None:
    problems: list[str] = []
    rng = random.Random(909)

    def check_calls(name: str, make_call) -> None:
        for index in range(100):
            max_tokens = rng.randint(1, 40)
            raw = make_call(max_tokens)
            if raw.completion_tokens > max_tokens:
                problems.append(f"{name} call {index}: {raw.completion_tokens} > {max_tokens}")
                return

    scripted = ScriptedGenerator(
        ["tok " * rng.randint(0, 80) for _ in range(25)], strict=False
    )
    check_calls("scripted",
                lambda cap: request_sketch(scripted, "p", cap, temperature=0.0))

    oracle_theory = parse_theory_nl(
        "Anne is big. Anne is quiet. Anne is round. If someone is big then they are kind."
    )
    oracle = OracleGenerator(
        forward_chain(oracle_theory), parse_question("Is Anne young?"),
        OracleNoiseConfig(corrupt_claim_prob=0.3, malform_prob=0.2), 4,
    )
    check_calls("oracle",
                lambda cap: request_sketch(oracle, "p", cap, temperature=0.0))

    endpoint = _StubEndpoint()
    try:
        from proofsketch.generation import HttpGenerator

        client = HttpGenerator(endpoint.url, "m", backoff_base_s=0.01,
                               backoff_jitter_s=0.0)
        for _ in range(100):
            words = "w " * rng.randint(0, 60)
            reported = rng.choice([None, rng.randint(0, 100)])
            endpoint.plan(("ok", _ok_payload(words.strip(), completion_tokens=reported)))
        check_calls("http",
                    lambda cap: request_sketch(client, "p", cap, temperature=0.0))
    finally:
        endpoint.close()
    _criterion(9, "completion_tokens <= requested budget over 100 randomized calls per backend", problems)


def test_criterion_10_lexicographic_order() -> None:
    problems: list[str] = []
    rng = random.Random(1010)

    def random_score() -> ScoreTuple:
        cert = rng.randint(0, 1)
        verified = rng.randint(1, 5) if cert else rng.randint(0, 5)
        return ScoreTuple(cert, verified, -rng.randint(0, 200), rng.randint(0, 1))

    for index in range(10_000):
        a, b, c = random_score(), random_score(), random_score()
        ab, ba, bc, ac = (compare_scores(a, b), compare_scores(b, a),
                          compare_scores(b, c), compare_scores(a, c))
        if ab not in (-1, 0, 1):
            problems.append(f"triple {index}: non-total comparison {ab}")
            break
        if ab != -ba:
            problems.append(f"triple {index}: antisymmetry broken")
            break
        if ab >= 0 and bc >= 0 and ac < 0:
            problems.append(f"triple {index}: transitivity broken")
            break
        if compare_scores(a, a) != 0:
            problems.append(f"triple {index}: reflexivity broken")
            break
        # The field order spelled out, so a reordered ScoreTuple fails here.
        left = (a.cert, a.verified_count, a.neg_tokens, a.consistency)
        right = (b.cert, b.verified_count, b.neg_tokens, b.consistency)
        if (ab > 0) != (left > right) or (ab == 0) != (left == right):
            problems.append(f"triple {index}: disagrees with tuple order")
            break
    _criterion(10, "score comparison total, antisymmetric, transitive on 10k triples", problems)


def test_criterion_11_p95_correctness() -> None:
    problems: list[str] = []
    rng = random.Random(1111)

    def reference(values: list[int]) -> int:
        total = len(values)
        for candidate in sorted(values):
            covered = sum(1 for value in values if value <= candidate)
            if 100 * covered >= 95 * total:
                return candidate
        raise AssertionError("unreachable")

    for index in range(1000):
        values = [rng.randint(0, 400) for _ in range(rng.randint(1, 60))]
        expected = reference(values)
        observed = nearest_rank_p95(values)
        if observed != expected:
            problems.append(f"array {index}: {observed} != {expected}")
            break
    _criterion(11, "nearest-rank p95 matches counting reference on 1000 arrays", problems)


def test_criterion_12_end_to_end_determinism(tmp_path) -> None:
    problems: list[str] = []
    rng = random.Random(1212)
    records = []
    for index in range(10):
        theory = random_theory(random.Random(3000 + index))
        question = random_question(rng, theory)
        records.append(record_for(theory, question, f"det-{index:02d}"))

    script = [
        "Answer: True",
        '{"answer": "Unknown", "claims": ["bob is round"]}',
        "mumble",
        "Answer: Unknown",
    ]
    methods = [Method.ZERO_SHOT, Method.SHORT_COT, Method.LONG_COT, Method.PROOFSKETCH]

    def one_run(out_name: str) -> bytes:
        shared = ScriptedGenerator(script, strict=False)
        rows = evaluate(records, methods, PipelineConfig(), lambda record: shared,
                        workers=1)
        out = write_run(
            tmp_path / out_name,
            config_stamp={"backend": "scripted", "seed": 0, "workers": 1},
            eval_records=rows,
            report=compute_metrics(rows),
        )
        normalized = []
        for line in (out / "records.jsonl").read_text().strip().split("\n"):
            row = json.loads(line)
            row["latency_ms"] = 0.0
            normalized.append(json.dumps(row, sort_keys=True))
        return "\n".join(normalized).encode("utf-8")

    first = one_run("run-a")
    second = one_run("run-b")
    if first != second:
        problems.append("per-record logs differ between identical runs")
    _criterion(12, "two identical scripted runs give byte-identical records modulo latency", problems)
