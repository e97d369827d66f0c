"""Evaluation runs, metrics, ablation, and run directories.

Four methods are compared (generation.Method): three prompting baselines
(answer-only, a few reasoning lines, a long derivation) and the
verification-guided sketch pipeline. evaluate runs every (method, record)
pair through one loop, on one thread pool when workers > 1, and returns
the results method-major in dataset order. Metrics per method: accuracy,
certification rate, mean completion tokens, nearest-rank 95th-percentile
tokens, mean latency. Token savings between two methods is
1 - mean_a / mean_b on the unrounded mean tokens; metrics.json stores it,
and a report read back from there renders the stored figure.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

# load_dataset is bound here too, for callers that name harness.load_dataset.
from .dataset import DatasetRecord, RejectedLine, load_dataset  # noqa: F401
from .generation import BASELINE_BUDGETS, Generator, Method, build_baseline_prompt, request_sketch
from .selector import Certification, PipelineConfig, ScoreTuple, run_pipeline
from .sketch import last_label_word
from .theory import Label, SchemaError


class EmptyInputError(ValueError):
    """An aggregate was requested over zero records."""


class EvalRecord(NamedTuple):
    record_id: str
    method: Method
    predicted: Label
    correct: bool
    certified: bool
    tokens: int
    latency_ms: float
    generator_calls: int
    answer_source: str | None = None
    unparseable: bool = False
    sketch_scores: tuple[ScoreTuple, ...] | None = None

    def to_json_dict(self) -> dict:
        row = self._asdict()
        row.update(method=self.method.value, predicted=self.predicted.value,
                   latency_ms=round(self.latency_ms, 3))
        if self.sketch_scores is None:
            del row["sketch_scores"]
        else:
            row["sketch_scores"] = [list(score) for score in self.sketch_scores]
        return row


_ANSWER_LINE_RE = re.compile(r"^\s*answer\s*:\s*(?P<rest>.*)$", re.IGNORECASE)


def extract_label(text: str) -> tuple[Label, bool]:
    """Pull a label from free-form completion text.

    The last line of the form "Answer: <label>" wins; failing that, the
    last label word anywhere in the text. Returns (Unknown, True) when
    nothing matches, flagging the completion as unparseable.
    """
    answer_lines = [
        match["rest"] for line in text.splitlines()
        if (match := _ANSWER_LINE_RE.match(line)) is not None
    ]
    for candidate in (*reversed(answer_lines), text):
        label = last_label_word(candidate)
        if label is not None:
            return label, False
    return Label.UNKNOWN, True


GeneratorFactory = Callable[[DatasetRecord], Generator]


def run_baseline(record: DatasetRecord, method: Method,
                 generator: Generator) -> EvalRecord:
    """Evaluate one record with a single budgeted baseline completion."""
    started = time.perf_counter()
    prompt = build_baseline_prompt(record.closure.theory, record.question, method)
    response = request_sketch(generator, prompt, BASELINE_BUDGETS[method], temperature=0.0)
    predicted, unparseable = extract_label(response.text)
    latency_ms = (time.perf_counter() - started) * 1000.0
    return EvalRecord(
        record_id=record.record_id,
        method=method,
        predicted=predicted,
        correct=predicted is record.gold_label,
        certified=False,
        tokens=response.completion_tokens,
        latency_ms=latency_ms,
        generator_calls=1,
        unparseable=unparseable,
    )


def run_proofsketch(record: DatasetRecord, config: PipelineConfig,
                    generator: Generator) -> EvalRecord:
    """Evaluate one record with the verification-guided pipeline."""
    result = run_pipeline(record.closure, record.question, config, generator)
    return EvalRecord(
        record_id=record.record_id,
        method=Method.PROOFSKETCH,
        predicted=result.answer,
        correct=result.answer is record.gold_label,
        certified=result.certification is Certification.CERTIFIED,
        tokens=result.total_generated_tokens,
        latency_ms=result.latency_ms,
        generator_calls=result.generator_calls,
        answer_source=result.answer_source.value,
        sketch_scores=tuple(sketch.score for sketch in result.sketches),
    )


def evaluate(records: Sequence[DatasetRecord], methods: Sequence[Method],
             config: PipelineConfig, generator_factory: GeneratorFactory,
             workers: int = 1) -> list[EvalRecord]:
    """Run every (method, record) pair, method-major in dataset order.

    With workers above 1, all pairs share one thread pool, so a generator
    the factory hands to several records must be safe for concurrent
    calls. Results keep the same order at any worker count.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")

    def run_one(pair: tuple[Method, DatasetRecord]) -> EvalRecord:
        method, record = pair
        generator = generator_factory(record)
        if method is Method.PROOFSKETCH:
            return run_proofsketch(record, config, generator)
        return run_baseline(record, method, generator)

    pairs = [(method, record) for method in methods for record in records]
    if workers == 1:
        return list(map(run_one, pairs))
    from concurrent.futures import ThreadPoolExecutor  # loaded only by a run that uses it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, pairs))


class MethodMetrics(NamedTuple):
    accuracy: float
    cert_rate: float
    mean_tokens: float
    p95_tokens: float
    mean_latency_ms: float
    n: int


_REPORT_COLUMNS = MethodMetrics._fields


def _require_finite(value: float, path: str) -> None:
    # json.loads reads NaN, Infinity and integers too large for a float.
    if not abs(value) <= sys.float_info.max:
        raise SchemaError(f"metrics.json: {path} must be a finite number")


class MetricsReport(NamedTuple):
    """Per-method metrics, and the ProofSketch token savings against each
    baseline in percent. compute_metrics works the savings out from the
    unrounded means; a report read back from metrics.json keeps the stored
    ones, since its means are rounded."""

    per_method: dict[str, MethodMetrics]
    token_savings_percent: dict[str, float]

    def to_json_dict(self) -> dict:
        methods = {
            name: {column: value if column == "n" else round(value, 2)
                   for column, value in metrics._asdict().items()}
            for name, metrics in sorted(self.per_method.items())
        }
        return {"methods": methods, "token_savings_percent": self.token_savings_percent}

    @classmethod
    def from_json_dict(cls, doc: object) -> "MetricsReport":
        """Inverse of to_json_dict; SchemaError names the first missing or
        mis-typed field."""
        methods = doc.get("methods") if isinstance(doc, dict) else None
        if not isinstance(methods, dict):
            raise SchemaError("metrics.json: expected an object with a 'methods' object")
        for name, row in methods.items():
            for column in _REPORT_COLUMNS:
                value = row.get(column) if isinstance(row, dict) else None
                kind = int if column == "n" else (int, float)
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise SchemaError(f"metrics.json: methods.{name}.{column} must be "
                                      + ("an integer" if column == "n" else "a number"))
                _require_finite(value, f"methods.{name}.{column}")
        savings = doc.get("token_savings_percent")
        if not isinstance(savings, dict) or not all(
                isinstance(value, (int, float)) and not isinstance(value, bool)
                for value in savings.values()):
            raise SchemaError("metrics.json: token_savings_percent must be an object of numbers")
        for pair, value in savings.items():
            _require_finite(value, f"token_savings_percent.{pair}")
        return cls({name: MethodMetrics(**{column: row[column] for column in _REPORT_COLUMNS})
                    for name, row in methods.items()}, savings)


def nearest_rank_p95(values: Sequence[float]) -> float:
    """95th percentile as the ceil(0.95 n)-th order statistic."""
    if not values:
        raise EmptyInputError("p95 of an empty sequence")
    ordered = sorted(values)
    rank = -(-95 * len(ordered) // 100)
    return ordered[rank - 1]


def _mean(values: Iterable[float]) -> float:
    items = list(values)
    return math.fsum(items) / len(items)


def compute_metrics(records: Sequence[EvalRecord]) -> MetricsReport:
    """Aggregate per-method metrics; order of records does not matter."""
    if not records:
        raise EmptyInputError("no evaluation records to aggregate")
    grouped: dict[str, list[EvalRecord]] = {}
    for record in records:
        grouped.setdefault(record.method.value, []).append(record)
    per_method = {
        name: MethodMetrics(
            accuracy=_mean(float(r.correct) for r in rows),
            cert_rate=_mean(float(r.certified) for r in rows),
            mean_tokens=_mean(float(r.tokens) for r in rows),
            p95_tokens=float(nearest_rank_p95([float(r.tokens) for r in rows])),
            mean_latency_ms=_mean(r.latency_ms for r in rows),
            n=len(rows),
        )
        for name, rows in grouped.items()
    }
    report = MetricsReport(per_method, {})
    sketch = Method.PROOFSKETCH.value
    if sketch in per_method:
        for baseline in (m.value for m in Method if m is not Method.PROOFSKETCH):
            if baseline in per_method and per_method[baseline].mean_tokens > 0:
                fraction = token_savings(report, sketch, baseline)
                report.token_savings_percent[f"{sketch}_vs_{baseline}"] = savings_percent(fraction)
    return report


def token_savings(report: MetricsReport, method_a: str, method_b: str) -> float:
    """Fraction of method_b's mean tokens that method_a avoids."""
    for name in (method_a, method_b):
        if name not in report.per_method:
            raise EmptyInputError(f"method {name!r} not present in the report")
    mean_b = report.per_method[method_b].mean_tokens
    if mean_b == 0:
        raise ZeroDivisionError("baseline mean tokens is zero")
    return 1.0 - report.per_method[method_a].mean_tokens / mean_b


def savings_percent(fraction: float) -> float:
    """Savings fraction as a percentage rounded to one decimal."""
    return round(100.0 * fraction, 1)


class AblationRow(NamedTuple):
    budget: str
    accuracy: float
    mean_tokens: float
    cert_rate: float


def run_ablation(records: Sequence[DatasetRecord], budgets: Sequence[int],
                 config: PipelineConfig, generator_factory: GeneratorFactory,
                 workers: int = 1) -> list[AblationRow]:
    """Sweep fixed sketch budgets, then add the adaptive policy as a row."""
    rows: list[AblationRow] = []

    def sketch_row(label: str, run_config: PipelineConfig) -> AblationRow:
        evaluated = evaluate(records, [Method.PROOFSKETCH], run_config,
                             generator_factory, workers=workers)
        metrics = compute_metrics(evaluated).per_method[Method.PROOFSKETCH.value]
        return AblationRow(label, metrics.accuracy, metrics.mean_tokens, metrics.cert_rate)

    for budget in budgets:
        fixed = config._replace(fixed_budget=budget)
        rows.append(sketch_row(str(budget), fixed))
    adaptive = config._replace(fixed_budget=None)
    rows.append(sketch_row("adaptive", adaptive))
    return rows


def ablation_csv(rows: Sequence[AblationRow]) -> str:
    lines = ["budget,accuracy,mean_tokens,cert_rate"]
    for row in rows:
        lines.append(
            f"{row.budget},{row.accuracy:.4f},{row.mean_tokens:.2f},{row.cert_rate:.4f}"
        )
    return "\n".join(lines) + "\n"


def emit_report(report: MetricsReport, fmt: str) -> str:
    """Render a metrics report as markdown, csv, or json."""
    doc = report.to_json_dict()
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = ["method,metric,value"]
        for name, row in doc["methods"].items():
            for column in _REPORT_COLUMNS:
                value = row[column]
                rendered = str(value) if column == "n" else f"{value:.2f}"
                lines.append(f"{name},{column},{rendered}")
        for pair, percent in sorted(doc["token_savings_percent"].items()):
            lines.append(f"{pair},token_savings_percent,{percent:.1f}")
        return "\n".join(lines) + "\n"
    if fmt == "md":
        lines = ["| Method | Acc | Tok | Cert |", "| --- | --- | --- | --- |"]
        for name, row in doc["methods"].items():
            lines.append(
                f"| {name} | {row['accuracy']:.2f} | {row['mean_tokens']:.2f} "
                f"| {row['cert_rate']:.2f} |"
            )
        for pair, percent in sorted(doc["token_savings_percent"].items()):
            lines.append(f"\nToken savings {pair.replace('_', ' ')}: {percent:.1f}%")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_run(out_dir: str | Path, *, config_stamp: dict,
              eval_records: Sequence[EvalRecord], report: MetricsReport,
              rejects: Sequence[RejectedLine] = ()) -> Path:
    """Materialize one run directory: config, per-record log, metrics,
    and the rejects report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(config_stamp, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    # One encoder for every row: json.dumps would build a new one per call.
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(out / "records.jsonl", "w", encoding="utf-8") as handle:
        for record in eval_records:
            handle.write(encode(record.to_json_dict()) + "\n")
    (out / "metrics.json").write_text(emit_report(report, "json"), encoding="utf-8")
    with open(out / "rejects.jsonl", "w", encoding="utf-8") as handle:
        for reject in rejects:
            handle.write(
                json.dumps({"line": reject.line_number, "reason": reject.reason}) + "\n"
            )
    return out
