"""Dataset loading.

Datasets are JSONL: one object per non-blank line with a unique id,
theory, question, answer, and an optional depth. Lines that fail
validation, or reuse the id of a record already kept, are collected into
a rejects report instead of aborting the load, so a run always states
exactly which inputs it covered. Loading parses and closes
each distinct theory text once; every record about that theory shares
the closure, which every method then reads instead of the text.

This module imports only the parsers and the closure, so a fresh
interpreter can load a dataset without loading the generation stack.
"""

from __future__ import annotations

import json
from os import PathLike
from typing import NamedTuple

from .closure import Closure, forward_chain
from .theory import Label, Question, parse_question, parse_theory_nl


class EmptyDatasetError(ValueError):
    """No dataset line survived validation."""


class DatasetRecord(NamedTuple):
    record_id: str
    closure: Closure
    question: Question
    gold_label: Label
    depth: int | None = None


class RejectedLine(NamedTuple):
    line_number: int
    reason: str


class LoadResult(NamedTuple):
    """Validated records plus the rejects report; together they cover
    every non-blank line of the file."""

    records: tuple[DatasetRecord, ...]
    rejects: tuple[RejectedLine, ...]


def _validate_line(obj: object, closures: dict[str, Closure]) -> DatasetRecord:
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for key in ("id", "theory", "question", "answer"):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    record_id = obj["id"]
    if not isinstance(record_id, str) or not record_id:
        raise ValueError("id must be a non-empty string")
    theory_text = obj["theory"]
    question_text = obj["question"]
    if not isinstance(theory_text, str) or not isinstance(question_text, str):
        raise ValueError("theory and question must be strings")
    raw_answer = obj["answer"]
    if not isinstance(raw_answer, str):
        raise ValueError("answer must be a string")
    gold = Label.from_text(raw_answer)
    if gold is None:
        raise ValueError(f"answer {raw_answer!r} is not one of True/False/Unknown")
    depth = obj.get("depth")
    if depth is not None and (isinstance(depth, bool) or not isinstance(depth, int) or depth < 0):
        raise ValueError("depth must be a non-negative integer when present")
    closure = closures.get(theory_text)
    if closure is None:
        closure = closures[theory_text] = forward_chain(parse_theory_nl(theory_text))
    return DatasetRecord(record_id, closure, parse_question(question_text), gold, depth)


def load_dataset(path: str | PathLike[str]) -> LoadResult:
    """Read a JSONL dataset, validating every non-blank line.

    Raises EmptyDatasetError when nothing validates, naming the first
    rejected line and its reason; file-system problems propagate as
    OSError. A line that is not valid UTF-8 is rejected alone.
    """
    records: list[DatasetRecord] = []
    rejects: list[RejectedLine] = []
    closures: dict[str, Closure] = {}
    first_lines: dict[str, int] = {}  # record id -> line number of the record kept
    # utf-8-sig drops a leading BOM. surrogateescape turns each undecodable byte into a lone
    # surrogate, which encoding back to UTF-8 finds, so lines split as if decoded strictly.
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                rejects.append(RejectedLine(line_number, "not valid UTF-8"))
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                reason = getattr(exc, "msg", "nested too deeply")
                rejects.append(RejectedLine(line_number, f"invalid JSON: {reason}"))
                continue
            try:
                record = _validate_line(obj, closures)
            except ValueError as exc:
                rejects.append(RejectedLine(line_number, str(exc)))
                continue
            first = first_lines.setdefault(record.record_id, line_number)
            if first != line_number:
                rejects.append(RejectedLine(
                    line_number, f"duplicate id {record.record_id!r} (first on line {first})"))
                continue
            records.append(record)
    if not records:  # no rejects either when the file holds no non-blank line
        first = f" (line {rejects[0].line_number}: {rejects[0].reason})" if rejects else ""
        raise EmptyDatasetError(f"no valid records in {path}{first}")
    return LoadResult(tuple(records), tuple(rejects))
