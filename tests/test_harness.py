"""Dataset loading, metric, report, and run-directory tests.

The headline fixture freezes a 100-record-per-method evaluation log whose
aggregates land exactly on the reference values the suite must reproduce
(accuracy 0.68, mean tokens 137.94, certification rate 0.42, and 36.9%
token savings against the long-derivation baseline).
"""

from __future__ import annotations

import json
import random

import pytest

from proofsketch.theory import Label, parse_question, parse_theory_nl
from proofsketch.closure import forward_chain
from proofsketch.generation import Method, OracleGenerator, OracleNoiseConfig, ScriptedGenerator
from proofsketch.selector import PipelineConfig
from proofsketch.harness import (AblationRow, DatasetRecord, EmptyDatasetError, EmptyInputError,
                                 EvalRecord, MetricsReport, ablation_csv, compute_metrics,
                                 emit_report, evaluate, extract_label, load_dataset,
                                 nearest_rank_p95, run_ablation, run_baseline, run_proofsketch,
                                 savings_percent, token_savings, write_run)

from helpers import record_for

VALID_LINE = {
    "id": "ex-1",
    "theory": "Anne is big. If someone is big then they are kind.",
    "question": "Is Anne kind?",
    "answer": "True",
    "depth": 1,
}


def _write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            if isinstance(row, str):
                handle.write(row + "\n")
            else:
                handle.write(json.dumps(row) + "\n")


class TestLoadDataset:
    def test_valid_file(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        second = dict(VALID_LINE, id="ex-2", answer="unknown")
        _write_jsonl(path, [VALID_LINE, "", second])
        loaded = load_dataset(path)
        assert len(loaded.records) == 2
        assert loaded.rejects == ()
        assert loaded.records[0].record_id == "ex-1"
        assert loaded.records[0].gold_label is Label.TRUE
        assert loaded.records[0].depth == 1
        assert loaded.records[1].gold_label is Label.UNKNOWN

    def test_rejects_carry_line_numbers(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        _write_jsonl(
            path,
            [
                VALID_LINE,
                "{not json",
                dict(VALID_LINE, id="ex-3", answer="perhaps"),
                dict(VALID_LINE, id="ex-4", theory="Anne likes Bob."),
                dict(VALID_LINE, id="ex-5", question="Who is kind?"),
                {"id": "ex-6"},
                dict(VALID_LINE, id="ex-7", depth=-2),
                dict(VALID_LINE, id=""),
            ],
        )
        loaded = load_dataset(path)
        assert len(loaded.records) == 1
        assert [reject.line_number for reject in loaded.rejects] == [2, 3, 4, 5, 6, 7, 8]
        reasons = " | ".join(reject.reason for reject in loaded.rejects)
        assert "invalid JSON" in reasons
        assert "perhaps" in reasons

    def test_leading_byte_order_mark_dropped(self, tmp_path) -> None:
        # One BOM at the start of the file is dropped; one on a later line is
        # part of that line, so the line is rejected as JSON.
        path = tmp_path / "data.jsonl"
        second = json.dumps(dict(VALID_LINE, id="ex-2"))
        path.write_text("\ufeff" + json.dumps(VALID_LINE) + "\n\ufeff" + second + "\n",
                        encoding="utf-8")
        loaded = load_dataset(path)
        assert [record.record_id for record in loaded.records] == ["ex-1"]
        assert [reject.line_number for reject in loaded.rejects] == [2]
        assert loaded.rejects[0].reason.startswith("invalid JSON")

    def test_repeated_id_rejected(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        line = {"id": "r1", "theory": "Anne is big.", "question": "Is Anne big?"}
        _write_jsonl(path, [
            dict(VALID_LINE, id="r1", answer="maybe"),  # rejected, so it claims no id
            dict(line, answer="True"),
            dict(line, answer="False"),
            dict(VALID_LINE, id="r2"),
            dict(line, answer="Unknown"),
        ])
        loaded = load_dataset(path)
        assert [(r.record_id, r.gold_label) for r in loaded.records] == [
            ("r1", Label.TRUE), ("r2", Label.TRUE)]
        assert [(reject.line_number, reject.reason) for reject in loaded.rejects[1:]] == [
            (3, "duplicate id 'r1' (first on line 2)"), (5, "duplicate id 'r1' (first on line 2)")]

    def test_undecodable_line_rejected_alone(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        rows = [json.dumps(dict(VALID_LINE, id=f"ex-{i}")).encode() for i in range(1, 6)]
        path.write_bytes(b"".join([
            rows[0], b"\r\n",
            rows[1].replace(b"Anne", b"An\xffne"), b"\n",
            rows[2], b"\r",  # a lone CR ends a line, as under strict decoding
            b"\xe2\x82\n",  # a truncated multi-byte sequence
            rows[4], b"\n",
        ]))
        loaded = load_dataset(path)
        assert [record.record_id for record in loaded.records] == ["ex-1", "ex-3", "ex-5"]
        assert [(reject.line_number, reject.reason) for reject in loaded.rejects] == [
            (2, "not valid UTF-8"), (4, "not valid UTF-8")]

    def test_deeply_nested_line_rejected(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        _write_jsonl(path, [VALID_LINE, "[" * 200_000])
        loaded = load_dataset(path)
        assert len(loaded.records) == 1
        assert [reject.line_number for reject in loaded.rejects] == [2]
        assert loaded.rejects[0].reason.startswith("invalid JSON")

    def test_empty_dataset_rejected(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        _write_jsonl(path, ["{broken"])
        with pytest.raises(EmptyDatasetError):
            load_dataset(path)

    def test_missing_file_is_oserror(self, tmp_path) -> None:
        with pytest.raises(OSError):
            load_dataset(tmp_path / "absent.jsonl")

    def test_depth_optional(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        row = {k: v for k, v in VALID_LINE.items() if k != "depth"}
        _write_jsonl(path, [row])
        assert load_dataset(path).records[0].depth is None


class TestExtractLabel:
    @pytest.mark.parametrize(
        "text, label, unparseable",
        [
            ("Answer: True", Label.TRUE, False),
            ("answer: false", Label.FALSE, False),
            ("Answer:Unknown", Label.UNKNOWN, False),
            ("step 1\nstep 2\nAnswer: False", Label.FALSE, False),
            ("Answer: True\nwait\nAnswer: Unknown", Label.UNKNOWN, False),
            ("It could be True but it is False", Label.FALSE, False),
            ("maybe True, maybe not", Label.TRUE, False),
            ("nothing to see", Label.UNKNOWN, True),
            ("", Label.UNKNOWN, True),
        ],
    )
    def test_examples(self, text: str, label: Label, unparseable: bool) -> None:
        assert extract_label(text) == (label, unparseable)

    def test_answer_line_beats_earlier_words(self) -> None:
        text = "The statements suggest False at first.\nAnswer: Unknown"
        assert extract_label(text) == (Label.UNKNOWN, False)

    def test_bare_answer_line_falls_back_to_scan(self) -> None:
        assert extract_label("True\nAnswer:") == (Label.TRUE, False)


def _record(record_id: str, theory_text: str, question_text: str,
            gold_label: Label) -> DatasetRecord:
    return DatasetRecord(
        record_id=record_id,
        closure=forward_chain(parse_theory_nl(theory_text)),
        question=parse_question(question_text),
        gold_label=gold_label,
    )


class TestRunBaseline:
    RECORD = _record(
        record_id="r1",
        theory_text="Anne is big. If someone is big then they are kind.",
        question_text="Is Anne kind?",
        gold_label=Label.TRUE,
    )

    def test_correct_completion(self) -> None:
        generator = ScriptedGenerator(["Anne is big, so she is kind.\nAnswer: True"])
        row = run_baseline(self.RECORD, Method.SHORT_COT, generator)
        assert row.method is Method.SHORT_COT
        assert row.predicted is Label.TRUE
        assert row.correct and not row.certified and not row.unparseable
        assert row.generator_calls == 1
        assert row.tokens == 9

    def test_unparseable_completion(self) -> None:
        generator = ScriptedGenerator(["mumble mumble"])
        row = run_baseline(self.RECORD, Method.ZERO_SHOT, generator)
        assert row.predicted is Label.UNKNOWN
        assert not row.correct
        assert row.unparseable

    def test_budget_clamps_tokens(self) -> None:
        generator = ScriptedGenerator(["word " * 500])
        row = run_baseline(self.RECORD, Method.ZERO_SHOT, generator)
        assert row.tokens == 16

    def test_long_mode_budget(self) -> None:
        generator = ScriptedGenerator(["word " * 500 + "Answer: True"])
        row = run_baseline(self.RECORD, Method.LONG_COT, generator)
        assert row.tokens == 384


class TestRunProofSketch:
    def test_decided_record_short_circuits(self) -> None:
        record = TestRunBaseline.RECORD
        generator = ScriptedGenerator(["unused"])
        row = run_proofsketch(record, PipelineConfig(), generator)
        assert row.method is Method.PROOFSKETCH
        assert row.predicted is Label.TRUE
        assert row.correct and row.certified
        assert row.tokens == 0 and row.generator_calls == 0
        assert row.answer_source == "ClosureShortCircuit"
        assert row.sketch_scores == ()

    def test_open_record_uses_generator(self) -> None:
        record = _record(
            record_id="r2",
            theory_text="Anne is big. Bob is round.",
            question_text="Is Bob kind?",
            gold_label=Label.UNKNOWN,
        )
        script = ['{"answer": "Unknown", "claims": ["bob is round"]}']
        row = run_proofsketch(record, PipelineConfig(), ScriptedGenerator(script))
        assert row.predicted is Label.UNKNOWN
        assert row.correct and row.certified
        assert row.generator_calls == 1
        assert row.answer_source == "CertifiedSketch"
        assert row.sketch_scores == ((1, 1, -6, 1),)


def _oracle_factory(noise: OracleNoiseConfig | None = None):
    def factory(record: DatasetRecord) -> OracleGenerator:
        return OracleGenerator(record.closure, record.question, noise or OracleNoiseConfig())

    return factory


def _tiny_dataset() -> list[DatasetRecord]:
    from helpers import random_question, tiny_theory

    rng = random.Random(33)
    records = []
    for index in range(12):
        theory = tiny_theory(random.Random(1000 + index))
        question = random_question(rng, theory)
        records.append(record_for(theory, question, f"rec-{index:02d}"))
    return records


class TestEvaluate:
    def test_method_blocks_in_order(self) -> None:
        records = _tiny_dataset()[:4]
        rows = evaluate(
            records,
            [Method.ZERO_SHOT, Method.PROOFSKETCH],
            PipelineConfig(),
            _oracle_factory(),
        )
        assert [row.method for row in rows] == [Method.ZERO_SHOT] * 4 + [Method.PROOFSKETCH] * 4
        assert [row.record_id for row in rows[:4]] == [r.record_id for r in records]
        assert [row.record_id for row in rows[4:]] == [r.record_id for r in records]

    def test_workers_match_serial(self) -> None:
        # Every (method, record) pair shares one pool; rows stay method-major.
        records = _tiny_dataset()
        methods = list(Method)
        serial = evaluate(records, methods, PipelineConfig(), _oracle_factory())
        threaded = evaluate(records, methods, PipelineConfig(), _oracle_factory(), workers=4)

        def strip(rows):
            return [
                (r.method, r.record_id, r.predicted, r.correct, r.certified, r.tokens,
                 r.generator_calls)
                for r in rows
            ]

        assert strip(serial) == strip(threaded)
        assert [(r.method, r.record_id) for r in threaded] == [
            (method, record.record_id) for method in methods for record in records
        ]

    def test_zero_workers_rejected(self) -> None:
        with pytest.raises(ValueError):
            evaluate(_tiny_dataset()[:1], [Method.PROOFSKETCH], PipelineConfig(),
                     _oracle_factory(), workers=0)


# ---------------------------------------------------------------------------
# Frozen headline fixture: 100 records per method, aggregates exact.

PS_TOKENS = [138] * 94 + [137] * 6          # sums to 13794 -> mean 137.94
LC_TOKENS = [219] * 71 + [218] * 29         # sums to 21871 -> mean 218.71


def table_fixture_records() -> list[EvalRecord]:
    assert sum(PS_TOKENS) == 13794 and sum(LC_TOKENS) == 21871
    rows = []
    for index in range(100):
        record_id = f"t1-{index:03d}"
        rows.append(
            EvalRecord(
                record_id=record_id,
                method=Method.PROOFSKETCH,
                predicted=Label.TRUE,
                correct=index < 68,
                certified=index < 42,
                tokens=PS_TOKENS[index],
                latency_ms=5.0,
                generator_calls=2,
                answer_source="BestSketch",
            )
        )
        rows.append(
            EvalRecord(
                record_id=record_id,
                method=Method.LONG_COT,
                predicted=Label.TRUE,
                correct=index < 63,
                certified=False,
                tokens=LC_TOKENS[index],
                latency_ms=9.0,
                generator_calls=1,
            )
        )
    return rows


class TestHeadlineFixture:
    def test_aggregates_exact(self) -> None:
        report = compute_metrics(table_fixture_records())
        sketch = report.per_method[Method.PROOFSKETCH.value]
        assert sketch.accuracy == 0.68
        assert sketch.mean_tokens == 137.94
        assert sketch.cert_rate == 0.42
        assert sketch.n == 100
        long_cot = report.per_method[Method.LONG_COT.value]
        assert long_cot.mean_tokens == 218.71

    def test_savings_rounds_to_one_decimal(self) -> None:
        report = compute_metrics(table_fixture_records())
        fraction = token_savings(report, Method.PROOFSKETCH.value, Method.LONG_COT.value)
        assert savings_percent(fraction) == 36.9
        assert abs(savings_percent(fraction) - 37.0) <= 0.5

    def test_savings_in_json_view(self) -> None:
        doc = compute_metrics(table_fixture_records()).to_json_dict()
        assert doc["token_savings_percent"]["ProofSketch_vs_LongCoT"] == 36.9
        assert doc["methods"]["ProofSketch"]["mean_tokens"] == 137.94

    def test_permutation_invariance(self) -> None:
        rows = table_fixture_records()
        shuffled = rows[:]
        random.Random(0).shuffle(shuffled)
        assert compute_metrics(rows) == compute_metrics(shuffled)

    def test_p95_of_fixture(self) -> None:
        report = compute_metrics(table_fixture_records())
        assert report.per_method[Method.PROOFSKETCH.value].p95_tokens == 138
        assert report.per_method[Method.LONG_COT.value].p95_tokens == 219


class TestNearestRankP95:
    def test_one_to_hundred(self) -> None:
        values = list(range(1, 101))
        random.Random(1).shuffle(values)
        assert nearest_rank_p95(values) == 95

    def test_small_inputs(self) -> None:
        assert nearest_rank_p95([7.0]) == 7.0
        assert nearest_rank_p95([3.0, 1.0]) == 3.0
        assert nearest_rank_p95(list(range(20))) == 18

    def test_rank_rounds_up(self) -> None:
        # 19 values: rank ceil(18.05) = 19 -> the maximum.
        values = list(range(19))
        assert nearest_rank_p95(values) == 18

    def test_empty_rejected(self) -> None:
        with pytest.raises(EmptyInputError):
            nearest_rank_p95([])


class TestTokenSavings:
    def test_missing_method(self) -> None:
        report = compute_metrics(table_fixture_records())
        with pytest.raises(EmptyInputError):
            token_savings(report, Method.PROOFSKETCH.value, Method.ZERO_SHOT.value)

    def test_zero_baseline(self) -> None:
        rows = [
            EvalRecord("a", Method.PROOFSKETCH, Label.TRUE, True, True, 0, 0.0, 0),
            EvalRecord("a", Method.LONG_COT, Label.TRUE, True, False, 0, 0.0, 1),
        ]
        report = compute_metrics(rows)
        with pytest.raises(ZeroDivisionError):
            token_savings(report, Method.PROOFSKETCH.value, Method.LONG_COT.value)

    def test_empty_records_rejected(self) -> None:
        with pytest.raises(EmptyInputError):
            compute_metrics([])


class TestAblation:
    def test_rows_cover_budgets_then_adaptive(self) -> None:
        records = _tiny_dataset()[:6]
        rows = run_ablation(records, [120, 140], PipelineConfig(), _oracle_factory())
        assert [row.budget for row in rows] == ["120", "140", "adaptive"]
        for row in rows:
            assert 0.0 <= row.accuracy <= 1.0
            assert 0.0 <= row.cert_rate <= 1.0
            assert row.mean_tokens >= 0.0

    def test_csv_layout(self) -> None:
        rows = [
            AblationRow("120", 1.0, 37.5, 0.5),
            AblationRow("adaptive", 0.875, 40.25, 0.625),
        ]
        text = ablation_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "budget,accuracy,mean_tokens,cert_rate"
        assert lines[1] == "120,1.0000,37.50,0.5000"
        assert lines[2] == "adaptive,0.8750,40.25,0.6250"


class TestEmitReport:
    def _report(self) -> MetricsReport:
        return compute_metrics(table_fixture_records())

    def test_markdown(self) -> None:
        text = emit_report(self._report(), "md")
        assert "| Method | Acc | Tok | Cert |" in text
        assert "| ProofSketch | 0.68 | 137.94 | 0.42 |" in text
        assert "36.9%" in text

    def test_csv(self) -> None:
        text = emit_report(self._report(), "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "method,metric,value"
        assert "ProofSketch,accuracy,0.68" in lines
        assert "LongCoT,mean_tokens,218.71" in lines
        assert "ProofSketch,n,100" in lines

    def test_csv_token_savings_rows(self) -> None:
        # After the method rows, one row per stored pair, sorted by pair.
        report = MetricsReport(self._report().per_method, {
            "ProofSketch_vs_ZeroShot": -12.0, "ProofSketch_vs_LongCoT": 36.9})
        lines = emit_report(report, "csv").strip().split("\n")
        assert len(lines) == 1 + 2 * 6 + 2
        assert lines[-2:] == ["ProofSketch_vs_LongCoT,token_savings_percent,36.9",
                              "ProofSketch_vs_ZeroShot,token_savings_percent,-12.0"]

    def test_json_round_trip(self) -> None:
        report = self._report()
        text = emit_report(report, "json")
        doc = json.loads(text)
        rebuilt = MetricsReport.from_json_dict(doc)
        assert rebuilt.per_method[Method.PROOFSKETCH.value].mean_tokens == 137.94
        assert rebuilt.per_method[Method.PROOFSKETCH.value].accuracy == 0.68

    def test_unknown_format_rejected(self) -> None:
        with pytest.raises(ValueError):
            emit_report(self._report(), "xml")


class TestWriteRun:
    def test_run_directory_layout(self, tmp_path) -> None:
        rows = table_fixture_records()[:10]
        report = compute_metrics(rows)
        from proofsketch.harness import RejectedLine

        out = write_run(
            tmp_path / "run",
            config_stamp={"seed": 7, "methods": ["ProofSketch"]},
            eval_records=rows,
            report=report,
            rejects=(RejectedLine(3, "invalid JSON: boom"),),
        )
        assert (out / "config.json").is_file()
        assert (out / "records.jsonl").is_file()
        assert (out / "metrics.json").is_file()
        assert (out / "rejects.jsonl").is_file()

        config = json.loads((out / "config.json").read_text())
        assert config["seed"] == 7

        lines = (out / "records.jsonl").read_text().strip().split("\n")
        assert len(lines) == 10
        first = json.loads(lines[0])
        assert first["record_id"] == "t1-000"
        assert first["method"] == "ProofSketch"

        rejects = (out / "rejects.jsonl").read_text().strip().split("\n")
        assert json.loads(rejects[0]) == {"line": 3, "reason": "invalid JSON: boom"}

    def test_metrics_json_parses(self, tmp_path) -> None:
        rows = table_fixture_records()
        out = write_run(
            tmp_path / "run",
            config_stamp={},
            eval_records=rows,
            report=compute_metrics(rows),
        )
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["methods"]["ProofSketch"]["mean_tokens"] == 137.94
