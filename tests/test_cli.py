"""End-to-end command-line tests driving main() in process."""

from __future__ import annotations

import dataclasses
import gc
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from proofsketch import cli, generation
from proofsketch.cli import UsageError, _parse_budgets, _record_seed, build_parser, main
from proofsketch.closure import decide_from_closure, forward_chain
from proofsketch.generation import HttpGenerator, OracleGenerator, OracleNoiseConfig
from proofsketch.harness import DatasetRecord, ablation_csv, load_dataset, run_ablation
from proofsketch.selector import PipelineConfig
from proofsketch.theory import parse_theory_nl

from helpers import random_question, random_theory
from test_generation import _StubEndpoint, _ok_payload

THEORY_TEXT = "Anne is big. Bob is round. If someone is big then they are kind.\n"

DATASET_ROWS = [
    {
        "id": "d-1",
        "theory": "Anne is big. If someone is big then they are kind.",
        "question": "Is Anne kind?",
        "answer": "True",
    },
    {
        "id": "d-2",
        "theory": "Anne is big. Bob is round.",
        "question": "Is Bob kind?",
        "answer": "Unknown",
    },
    {
        "id": "d-3",
        "theory": "Carol is not quiet.",
        "question": "Is Carol quiet?",
        "answer": "False",
    },
]

# The closure command's exact output for two entities, a depth-2 literal
# and a contradictory pair: rows by entity, then attribute, then negated
# before positive.
CLOSURE_GOLDEN_THEORY = ("Bob is big. Anne is round.\n"
                         "If someone is round then they are kind.\n"
                         "If someone is kind then they are not round.\n")
CLOSURE_GOLDEN = """\
{
  "literals": [
    {
      "entity": "anne",
      "attribute": "kind",
      "negated": false,
      "depth": 1
    },
    {
      "entity": "anne",
      "attribute": "round",
      "negated": true,
      "depth": 2
    },
    {
      "entity": "anne",
      "attribute": "round",
      "negated": false,
      "depth": 0
    },
    {
      "entity": "bob",
      "attribute": "big",
      "negated": false,
      "depth": 0
    }
  ],
  "contradictory": true
}
"""


METRICS_ROW = {"accuracy": 1.0, "cert_rate": 0.0, "mean_tokens": 1.0, "p95_tokens": 1.0,
               "mean_latency_ms": 1.0, "n": 1}


def _error_line(capsys) -> str:
    """The one stderr line a failed command prints."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("proofsketch: error: ")
    return lines[0]


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for row in DATASET_ROWS:
            handle.write(json.dumps(row) + "\n")
    return path


@pytest.fixture()
def theory_file(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text(THEORY_TEXT, encoding="utf-8")
    return path


class TestClosureCommand:
    def test_text_theory(self, theory_file, capsys) -> None:
        assert main(["closure", str(theory_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["contradictory"] is False
        rows = {(r["entity"], r["attribute"], r["negated"]): r["depth"] for r in payload["literals"]}
        assert rows == {
            ("anne", "big", False): 0,
            ("anne", "kind", False): 1,
            ("bob", "round", False): 0,
        }

    def test_structured_theory(self, tmp_path, capsys) -> None:
        doc = {
            "facts": [{"entity": "anne", "attribute": "big", "negated": False}],
            "rules": [
                {
                    "subject": "*",
                    "body": [{"attribute": "big", "negated": False}],
                    "head": {"attribute": "kind", "negated": False},
                }
            ],
        }
        path = tmp_path / "example.theory.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["closure", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = {(r["entity"], r["attribute"]) for r in payload["literals"]}
        assert entries == {("anne", "big"), ("anne", "kind")}

    def test_output_bytes(self, tmp_path, capsys) -> None:
        path = tmp_path / "golden.txt"
        path.write_text(CLOSURE_GOLDEN_THEORY, encoding="utf-8")
        assert main(["closure", str(path)]) == 0
        assert capsys.readouterr().out == CLOSURE_GOLDEN


class TestAnswerCommand:
    def test_oracle_backend_decided(self, theory_file, capsys) -> None:
        assert main(["answer", str(theory_file), "--question", "Is Anne kind?"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] == "True"
        assert payload["certification"] == "Certified"
        assert payload["answer_source"] == "ClosureShortCircuit"
        assert payload["generator_calls"] == 0
        assert payload["sketches"] == []

    def test_oracle_backend_open_question(self, theory_file, capsys) -> None:
        assert main(["answer", str(theory_file), "--question", "Is Bob kind?"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] == "Unknown"
        assert payload["certification"] == "Certified"
        assert payload["answer_source"] == "CertifiedSketch"
        assert payload["generator_calls"] == 1
        assert payload["sketches"][0]["claims"] == ["bob is round"]
        assert payload["sketches"][0]["score"]["cert"] == 1

    def test_scripted_backend(self, theory_file, tmp_path, capsys) -> None:
        script = tmp_path / "script.json"
        script.write_text(
            json.dumps(['{"answer": "Unknown", "claims": ["bob is round"]}']),
            encoding="utf-8",
        )
        code = main(
            [
                "answer", str(theory_file),
                "--question", "Is Bob kind?",
                "--backend", "scripted",
                "--script", str(script),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"] == "Unknown"
        assert payload["certification"] == "Certified"

    def test_scripted_requires_script(self, theory_file, capsys) -> None:
        assert main(["answer", str(theory_file), "--question", "Is Bob kind?",
                     "--backend", "scripted"]) == 2
        assert _error_line(capsys).endswith("--backend scripted requires --script <file>")

    def test_config_file_overrides(self, theory_file, tmp_path, capsys) -> None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_sketches": 2, "fixed_budget": 64}), encoding="utf-8")
        code = main(
            [
                "answer", str(theory_file),
                "--question", "Is Bob kind?",
                "--malform", "1.0",
                "--config", str(config),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # Every sketch is malformed, so the loop runs to its cap of 2.
        assert payload["generator_calls"] == 2
        assert [sketch["index"] for sketch in payload["sketches"]] == [0, 1]
        assert payload["certification"] == "Uncertified"

    def test_unknown_config_key_rejected(self, theory_file, tmp_path, capsys) -> None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_sketch": 1}), encoding="utf-8")
        assert main(["answer", str(theory_file), "--question", "Is Bob kind?",
                     "--config", str(config)]) == 2
        assert _error_line(capsys).endswith("config file has unknown key(s): max_sketch")

    def test_scripted_script_must_be_string_array(self, theory_file, tmp_path, capsys) -> None:
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"answer": "Unknown"}), encoding="utf-8")
        assert main(["answer", str(theory_file), "--question", "Is Bob kind?",
                     "--backend", "scripted", "--script", str(script)]) == 2
        assert _error_line(capsys).endswith("script file must hold a JSON array of strings")

    def test_http_backend_reads_config(self, theory_file, tmp_path, capsys,
                                       monkeypatch) -> None:
        monkeypatch.delenv("PROOFSKETCH_API_KEY", raising=False)
        monkeypatch.setenv("PROOFSKETCH_TEST_KEY", "sk-from-config")
        endpoint = _StubEndpoint()
        try:
            endpoint.plan(("status", 500),
                          ("ok", _ok_payload('{"answer": "Unknown", "claims": ["bob is round"]}')))
            config = tmp_path / "config.json"
            config.write_text(json.dumps({
                "api_key_env": "PROOFSKETCH_TEST_KEY", "timeout_ms": 5000, "max_retries": 0,
            }), encoding="utf-8")
            argv = ["answer", str(theory_file), "--question", "Is Bob kind?",
                    "--backend", "http", "--endpoint", endpoint.url, "--model", "stub-model",
                    "--config", str(config)]
            # max_retries 0: the 500 is not retried.
            assert main(argv) == 2
            assert _error_line(capsys) == "proofsketch: error: server error 500"
            assert main(argv) == 0
        finally:
            endpoint.close()
        assert json.loads(capsys.readouterr().out)["certification"] == "Certified"
        assert [r["auth"] for r in endpoint.requests] == ["Bearer sk-from-config"] * 2
        assert endpoint.requests[1]["body"]["model"] == "stub-model"


class TestEvalCommand:
    def test_oracle_eval_all_methods(self, dataset, capsys) -> None:
        assert main(["eval", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "| Method | Acc | Tok | Cert |" in out
        for name in ("ZeroShot", "ShortCoT", "LongCoT", "ProofSketch"):
            assert name in out

    def test_sketch_only_with_run_dir(self, dataset, tmp_path, capsys) -> None:
        out_dir = tmp_path / "run"
        code = main(
            ["eval", str(dataset), "--method", "sketch", "--out", str(out_dir), "--seed", "9"]
        )
        assert code == 0
        assert (out_dir / "config.json").is_file()
        assert (out_dir / "records.jsonl").is_file()
        assert (out_dir / "metrics.json").is_file()
        assert (out_dir / "rejects.jsonl").is_file()

        config = json.loads((out_dir / "config.json").read_text())
        assert config["backend"] == "oracle"
        assert config["seed"] == 9
        assert config["methods"] == ["ProofSketch"]
        assert config["pipeline"]["budget_anchored"] == 120
        assert config["prompt_version"]

        lines = (out_dir / "records.jsonl").read_text().strip().split("\n")
        assert len(lines) == len(DATASET_ROWS)
        rows = [json.loads(line) for line in lines]
        assert all(row["method"] == "ProofSketch" for row in rows)
        assert all(row["correct"] for row in rows)

        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["methods"]["ProofSketch"]["accuracy"] == 1.0

    def test_report_rerenders_run(self, dataset, tmp_path, capsys) -> None:
        out_dir = tmp_path / "run"
        main(["eval", str(dataset), "--method", "sketch", "--out", str(out_dir)])
        capsys.readouterr()
        assert main(["report", str(out_dir), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("method,metric,value")
        assert "ProofSketch,accuracy,1.00" in out

    def test_report_reproduces_run(self, dataset, tmp_path, capsys) -> None:
        # ProofSketch averages 8/3 tokens here (four 2-token replies on the
        # one undecided question), each baseline 2: savings -33.3% from the
        # exact means, but -33.5% from the rounded 2.67 in metrics.json.
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["Answer: Unknown"]), encoding="utf-8")
        out_dir = tmp_path / "run"
        assert main(["eval", str(dataset), "--method", "all", "--backend", "scripted",
                     "--script", str(script), "--out", str(out_dir)]) == 0
        table = capsys.readouterr().out
        assert "Token savings ProofSketch vs LongCoT: -33.3%" in table
        assert main(["report", str(out_dir), "--format", "json"]) == 0
        assert capsys.readouterr().out == (out_dir / "metrics.json").read_text(encoding="utf-8")
        assert main(["report", str(out_dir), "--format", "md"]) == 0
        assert capsys.readouterr().out + "\n" == table

    def test_missing_dataset_errors(self, tmp_path, capsys) -> None:
        assert main(["eval", str(tmp_path / "nope.jsonl")]) == 2
        assert "nope.jsonl" in _error_line(capsys)

    def test_scripted_eval_deterministic(self, dataset, tmp_path) -> None:
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["Answer: Unknown"]), encoding="utf-8")
        dirs = [tmp_path / "run-a", tmp_path / "run-b"]
        for out_dir in dirs:
            code = main(
                [
                    "eval", str(dataset),
                    "--method", "sketch",
                    "--backend", "scripted",
                    "--script", str(script),
                    "--out", str(out_dir),
                ]
            )
            assert code == 0

        def stripped_records(out_dir):
            lines = (out_dir / "records.jsonl").read_text().strip().split("\n")
            rows = []
            for line in lines:
                row = json.loads(line)
                row["latency_ms"] = 0.0
                rows.append(row)
            return rows

        assert stripped_records(dirs[0]) == stripped_records(dirs[1])

    def test_oracle_workers_match_one_worker(self, dataset, tmp_path, capsys) -> None:
        # Noisy enough that pairs ask for second replies while other
        # threads draw the same record's first one.
        noise = ["--flip", "0.4", "--corrupt", "0.4", "--malform", "0.4", "--seed", "3"]
        texts = []
        for workers in ("1", "8"):
            out_dir = tmp_path / f"run-{workers}"
            assert main(["eval", str(dataset), "--method", "all", "--workers", workers,
                         "--out", str(out_dir), *noise]) == 0
            texts.append(re.sub(r'"latency_ms": [-0-9.eE+]+', '"latency_ms": _',
                                (out_dir / "records.jsonl").read_text(encoding="utf-8")))
        assert texts[0] == texts[1]
        assert '"generator_calls": 2' in texts[0]


class TestUserErrors:
    def test_missing_theory_file(self, tmp_path, capsys) -> None:
        assert main(["answer", str(tmp_path / "nope.txt"), "--question", "Is Anne kind?"]) == 2
        assert "nope.txt" in _error_line(capsys)

    def test_missing_config_file(self, theory_file, tmp_path, capsys) -> None:
        argv = ["answer", str(theory_file), "--question", "Is Anne kind?",
                "--config", str(tmp_path / "nope.json")]
        assert main(argv) == 2
        assert "nope.json" in _error_line(capsys)

    def test_unparseable_theory(self, tmp_path, capsys) -> None:
        path = tmp_path / "bad.txt"
        path.write_text("Anne is.\n", encoding="utf-8")
        assert main(["closure", str(path)]) == 2
        _error_line(capsys)

    @pytest.mark.parametrize("doc, backend, message", [
        ({"max_sketches": "2"}, [], "config key 'max_sketches' must be an integer"),
        ({"timeout_ms": "5"},
         ["--backend", "http", "--endpoint", "http://127.0.0.1:9/v1/chat/completions",
          "--model", "m"],
         "config key 'timeout_ms' must be a number"),
        ({"closure_short_circuit": "no"}, [],
         "config key 'closure_short_circuit' must be a boolean"),
        ({"max_sketches": 0}, [], "config file: max_sketches must be at least 1"),
        ({}, ["eval", "--workers", "0"], "--workers must be between 1 and 64"),
        ({}, ["eval", "--flip", "2"], "flip_answer_prob must lie in [0, 1]"),
        ({"max_in_flight": 4},
         ["--backend", "http", "--endpoint", "http://127.0.0.1:9/v1/chat/completions",
          "--model", "m"],
         "config file has unknown key(s): max_in_flight"),
        ({"temperature": float("nan")}, [], "config key 'temperature' must be a finite number"),
        ({"timeout_ms": float("nan")},
         ["--backend", "http", "--endpoint", "http://127.0.0.1:9/v1/chat/completions",
          "--model", "m"],
         "config key 'timeout_ms' must be a finite number"),
        ({"timeout_ms": float("inf")},
         ["--backend", "http", "--endpoint", "http://127.0.0.1:9/v1/chat/completions",
          "--model", "m"],
         "config key 'timeout_ms' must be a finite number"),
        # Integers too large for a float are not finite numbers either.
        ({"timeout_ms": 10 ** 400},
         ["--backend", "http", "--endpoint", "http://127.0.0.1:9/v1/chat/completions",
          "--model", "m"],
         "config key 'timeout_ms' must be a finite number"),
        ({"temperature": -10 ** 400}, [], "config key 'temperature' must be a finite number"),
        # The endpoint and model are named by --endpoint and --model alone.
        ({"endpoint_url": "http://127.0.0.1:9/v1"},
         ["--backend", "http", "--endpoint", "http://127.0.0.1:9/v1/chat/completions",
          "--model", "m"],
         "config file has unknown key(s): endpoint_url"),
        ({"model_name": "m"},
         ["--backend", "http", "--endpoint", "http://127.0.0.1:9/v1/chat/completions",
          "--model", "m"],
         "config file has unknown key(s): model_name"),
    ])
    def test_config_value_types(self, theory_file, dataset, tmp_path, capsys, doc, backend,
                                message) -> None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        # A leading "eval" runs eval over the dataset; the other cases answer one question.
        if backend[:1] == ["eval"]:
            command, backend = ["eval", str(dataset)], backend[1:]
        else:
            command = ["answer", str(theory_file), "--question", "Is Bob kind?"]
        argv = [*command, "--config", str(config), *backend]
        assert main(argv) == 2
        assert _error_line(capsys) == f"proofsketch: error: {message}"

    @pytest.mark.parametrize("command, workers", [
        ("eval", "65"), ("eval", "100000"), ("ablate", "100000"),
    ])
    def test_workers_ceiling(self, dataset, capsys, monkeypatch, command, workers) -> None:
        # Rejected before any pool exists: never start one this large.
        for name in ("evaluate", "run_ablation"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("a pool was started"))
        threads = threading.active_count()
        assert main([command, str(dataset), "--workers", workers]) == 2
        assert _error_line(capsys) == "proofsketch: error: --workers must be between 1 and 64"
        assert threading.active_count() == threads

    def test_workers_at_ceiling_accepted(self, dataset, capsys) -> None:
        assert main(["eval", str(dataset), "--method", "sketch", "--workers", "64"]) == 0
        assert "ProofSketch" in capsys.readouterr().out

    @pytest.mark.parametrize("command, name", [
        (["answer", "{path}", "--question", "Is Bob kind?"], "theory.txt"),
        (["closure", "{path}"], "theory.json"),
        (["answer", "{theory}", "--question", "Is Bob kind?", "--config", "{path}"],
         "config.json"),
        (["answer", "{theory}", "--question", "Is Bob kind?", "--backend", "scripted",
          "--script", "{path}"], "script.json"),
        (["report", "{dir}"], "metrics.json"),
    ], ids=("theory-text", "theory-json", "config", "script", "metrics"))
    def test_non_utf8_file(self, theory_file, tmp_path, capsys, command, name) -> None:
        path = tmp_path / name
        path.write_bytes(b'{"a": "\xff"}')
        argv = [arg.format(path=path, theory=theory_file, dir=tmp_path) for arg in command]
        assert main(argv) == 2
        assert _error_line(capsys) == f"proofsketch: error: {path}: not valid UTF-8 (byte 7)"

    def test_byte_order_mark_keeps_file_offsets(self, theory_file, tmp_path, capsys) -> None:
        # The offset counts the BOM's three bytes: it is an offset into the file.
        path = tmp_path / "config.json"
        path.write_bytes(b'\xef\xbb\xbf{"a": "\xff"}')
        argv = ["answer", str(theory_file), "--question", "Is Bob kind?", "--config", str(path)]
        assert main(argv) == 2
        assert _error_line(capsys) == f"proofsketch: error: {path}: not valid UTF-8 (byte 10)"

    @pytest.mark.parametrize("name, command", [
        ("config.json", ["answer", "{theory}", "--question", "Is Anne kind?",
                         "--config", "{path}"]),
        ("theory.txt", ["answer", "{path}", "--question", "Is Anne kind?"]),
        ("theory.json", ["closure", "{path}"]),
        ("script.json", ["answer", "{theory}", "--question", "Is Bob kind?",
                         "--backend", "scripted", "--script", "{path}"]),
    ], ids=("config", "theory-text", "theory-json", "script"))
    def test_leading_byte_order_mark_dropped(self, theory_file, tmp_path, capsys, name,
                                             command) -> None:
        contents = {
            "config.json": '{"max_sketches": 2}',
            "theory.txt": THEORY_TEXT,
            "theory.json": json.dumps({"facts": [{"entity": "anne", "attribute": "big",
                                                  "negated": False}], "rules": []}),
            "script.json": json.dumps(['{"answer": "Unknown", "claims": []}']),
        }
        outputs = []
        for bom in ("", "\ufeff"):
            path = tmp_path / name
            path.write_text(bom + contents[name], encoding="utf-8")
            cli._closure_of.cache_clear()
            assert main([arg.format(path=path, theory=theory_file) for arg in command]) == 0
            outputs.append(re.sub(r'"latency_ms": [0-9.e-]+', "", capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command, name", [
        (["closure", "{path}"], "theory.json"),
        (["answer", "{path}", "--question", "Is Bob kind?"], "theory.json"),
        (["answer", "{theory}", "--question", "Is Bob kind?", "--config", "{path}"],
         "config.json"),
        (["answer", "{theory}", "--question", "Is Bob kind?", "--backend", "scripted",
          "--script", "{path}"], "script.json"),
        (["report", "{dir}"], "metrics.json"),
    ], ids=("theory-json", "answer-theory-json", "config", "script", "metrics"))
    @pytest.mark.parametrize("content, reason", [
        ("[" * 200_000, "nested too deeply"),
        ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ], ids=("deep", "truncated"))
    def test_invalid_json_file(self, theory_file, tmp_path, capsys, command, name, content,
                               reason) -> None:
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        argv = [arg.format(path=path, theory=theory_file, dir=tmp_path) for arg in command]
        assert main(argv) == 2
        assert _error_line(capsys) == f"proofsketch: error: {path}: invalid JSON: {reason}"

    @pytest.mark.parametrize("key", ["sk-leak\nsk-tail", "sk-leak\u20ac", "sk-leak\rsk-tail"],
                             ids=("newline", "non-latin-1", "carriage-return"))
    def test_unsendable_api_key_not_echoed(self, theory_file, capsys, monkeypatch, key) -> None:
        # Rejected before any connection is tried, so no retry backoff sleeps.
        monkeypatch.setattr(time, "sleep", lambda seconds: pytest.fail("backoff slept"))
        monkeypatch.setenv("PROOFSKETCH_API_KEY", key)
        argv = ["answer", str(theory_file), "--question", "Is Bob kind?", "--backend", "http",
                "--endpoint", "http://127.0.0.1:9/v1/chat/completions", "--model", "m"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == ("proofsketch: error: the API key in $PROOFSKETCH_API_KEY "
                       "must be printable ASCII\n")
        assert "sk-leak" not in err

    def test_non_utf8_dataset_line_rejected(self, dataset, tmp_path, capsys) -> None:
        with open(dataset, "ab") as handle:
            handle.write(b'{"id": "\xff"}\n')
        out_dir = tmp_path / "run"
        assert main(["eval", str(dataset), "--method", "sketch", "--out", str(out_dir)]) == 0
        assert "rejected 1 line(s)" in capsys.readouterr().err
        rejects = (out_dir / "rejects.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in rejects] == [
            {"line": len(DATASET_ROWS) + 1, "reason": "not valid UTF-8"}]
        assert len((out_dir / "records.jsonl").read_text().splitlines()) == len(DATASET_ROWS)

    @pytest.mark.parametrize("endpoint", ["notaurl", "ftp://h/x", "http:///x"])
    def test_bad_endpoint(self, theory_file, capsys, monkeypatch, endpoint) -> None:
        # Rejected before any connection is tried, so no retry backoff sleeps.
        monkeypatch.setattr(time, "sleep", lambda seconds: pytest.fail("backoff slept"))
        argv = ["answer", str(theory_file), "--question", "Is Bob kind?",
                "--backend", "http", "--endpoint", endpoint, "--model", "m"]
        assert main(argv) == 2
        line = _error_line(capsys)
        assert repr(endpoint) in line
        assert not line.startswith("proofsketch: error: config file:")

    def test_endpoint_password_not_echoed(self, theory_file, capsys) -> None:
        argv = ["answer", str(theory_file), "--question", "Is Bob kind?",
                "--backend", "http", "--endpoint", "http://u:secret@h/x", "--model", "m"]
        assert main(argv) == 2
        line = _error_line(capsys)
        assert "'http://u:***@h/x'" in line
        assert "secret" not in line

    @pytest.mark.parametrize("doc, message", [
        ({"methods": {"ZeroShot": {"cert_rate": 0.0, "mean_tokens": 1.0, "p95_tokens": 1.0,
                                   "mean_latency_ms": 1.0, "n": 1}}},
         "metrics.json: methods.ZeroShot.accuracy must be a number"),
        ([], "metrics.json: expected an object with a 'methods' object"),
        ({"methods": {"ZeroShot": {"accuracy": "x", "cert_rate": 0.0, "mean_tokens": 1.0,
                                   "p95_tokens": 1.0, "mean_latency_ms": 1.0, "n": 1}}},
         "metrics.json: methods.ZeroShot.accuracy must be a number"),
        ({"methods": {"ZeroShot": METRICS_ROW}},
         "metrics.json: token_savings_percent must be an object of numbers"),
        ({"methods": {"ZeroShot": METRICS_ROW}, "token_savings_percent": [1.0]},
         "metrics.json: token_savings_percent must be an object of numbers"),
        ({"methods": {"ZeroShot": METRICS_ROW}, "token_savings_percent": {"a_vs_b": True}},
         "metrics.json: token_savings_percent must be an object of numbers"),
    ])
    def test_malformed_metrics(self, tmp_path, capsys, doc, message) -> None:
        (tmp_path / "metrics.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 2
        assert _error_line(capsys) == f"proofsketch: error: {message}"

    def test_config_type_edges(self, theory_file, tmp_path, capsys) -> None:
        config = tmp_path / "config.json"
        argv = ["answer", str(theory_file), "--question", "Is Bob kind?", "--config", str(config)]
        config.write_text(json.dumps({"fixed_budget": None, "temperature": 0}), encoding="utf-8")
        assert main(argv) == 0
        capsys.readouterr()
        config.write_text(json.dumps({"max_sketches": True}), encoding="utf-8")
        assert main(argv) == 2
        assert _error_line(capsys).endswith("'max_sketches' must be an integer")


class TestConfigKeys:
    def test_config_types_match_their_sources(self) -> None:
        pipeline = {field.name for field in dataclasses.fields(PipelineConfig)}
        assert not pipeline & cli._HTTP_KEYS
        assert set(cli._CONFIG_TYPES) == pipeline | cli._HTTP_KEYS

    def test_http_keys_are_http_generator_parameters(self) -> None:
        assert cli._HTTP_KEYS <= set(inspect.signature(HttpGenerator).parameters)

    def test_readme_lists_the_config_keys(self) -> None:
        # The list under README's "Pipeline configuration" heading, up to
        # the first blank line after it, names every key and no other.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Pipeline configuration\n", 1)[1]
        listed = section[section.index("\n- "):section.index("\n\n", section.index("\n- "))]
        assert set(re.findall(r"`([a-z_]+)`", listed)) == set(cli._CONFIG_TYPES)


_HTTP_ARGS = ["--backend", "http", "--endpoint", "http://127.0.0.1:9/v1/chat/completions",
              "--model", "m"]
_ANSWER = ["answer", "{dir}/theory.txt", "--question", "Is Bob kind?"]
_DUPLICATE_IDS = "".join(
    json.dumps({"id": "r1", "theory": "Anne is big.", "question": "Is Anne big?",
                "answer": answer}) + "\n" for answer in ("True", "False"))


class TestReadmeErrorExamples:
    """Every example the README's "Errors" section quotes with its message,
    run through main(): the command gives that message, word for word as
    the README quotes it, so the docs cannot drift from the code."""

    @pytest.mark.parametrize("argv, files, key, quoted", [
        (_ANSWER + ["--config", "{dir}/config.json"], {"config.json": '{"temperature": NaN}'},
         "", "config key 'temperature' must be a finite number"),
        (_ANSWER + _HTTP_ARGS + ["--config", "{dir}/config.json"],
         {"config.json": '{"max_retries": -1}'}, "",
         "config file: max_retries must be non-negative"),
        (["eval", "{dir}/data.jsonl", "--workers", "0"], {"data.jsonl": _DUPLICATE_IDS}, "",
         "--workers must be between 1 and 64"),
        (_ANSWER + _HTTP_ARGS, {}, "sk-leak\nsk-tail",
         "the API key in $PROOFSKETCH_API_KEY must be printable ASCII"),
        (["report", "{dir}"],
         {"metrics.json": json.dumps({"methods": {"ZeroShot": {"accuracy": "x"}}})}, "",
         "metrics.json: methods.ZeroShot.accuracy must be a number"),
        (["report", "{dir}"], {"metrics.json": json.dumps({"methods": {"ZeroShot": METRICS_ROW}})},
         "", "metrics.json: token_savings_percent must be an object of numbers"),
        (["closure", "{dir}/bad.txt"], {"bad.txt": "Anne is not.\n"}, "",
         "sentence 0: 'not' needs an attribute after it ('Anne is not')"),
        (_ANSWER + _HTTP_ARGS + ["--config", "{dir}/config.json"],
         {"config.json": '{"endpoint_url": "http://localhost:8000/v1/chat/completions"}'}, "",
         "config file has unknown key(s): endpoint_url"),
        (["eval", "{dir}/data.jsonl", "--method", "sketch", "--out", "{dir}/run"],
         {"data.jsonl": _DUPLICATE_IDS}, "", "duplicate id 'r1' (first on line 1)"),
        (["closure", "{dir}/x.json"],
         {"x.json": json.dumps({"facts": [{"entity": "if", "attribute": "big", "negated": False}],
                                "rules": []})},
         "", "facts[0]: its sentence 'If is big.' reads back differently"),
    ], ids=("nan", "max-retries", "workers", "api-key", "metrics-row", "metrics-savings",
            "bare-not", "unknown-key", "duplicate-id", "read-back"))
    def test_example_gives_quoted_message(self, tmp_path, capsys, monkeypatch, argv, files, key,
                                          quoted) -> None:
        monkeypatch.setattr(time, "sleep", lambda seconds: pytest.fail("backoff slept"))
        monkeypatch.setenv("PROOFSKETCH_API_KEY", key)
        for name, content in {"theory.txt": THEORY_TEXT, **files}.items():
            (tmp_path / name).write_text(content, encoding="utf-8")
        status = main([arg.format(dir=tmp_path) for arg in argv])
        if (tmp_path / "run").exists():
            # A rejected dataset line does not end the run: rejects.jsonl names it.
            assert status == 0
            rejects = (tmp_path / "run" / "rejects.jsonl").read_text(encoding="utf-8")
            assert [json.loads(line)["reason"] for line in rejects.splitlines()] == [quoted]
        else:
            assert status == 2
            assert _error_line(capsys) == f"proofsketch: error: {quoted}"
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        errors = readme.split("\n## Errors\n", 1)[1].split("\n## ", 1)[0]
        assert f"`{quoted}`" in " ".join(errors.split())


class TestAblateCommand:
    def test_budget_sweep_rows(self, dataset, tmp_path) -> None:
        out_csv = tmp_path / "ablation.csv"
        code = main(
            ["ablate", str(dataset), "--budgets", "120:220:20", "--out", str(out_csv)]
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "budget,accuracy,mean_tokens,cert_rate"
        budgets = [line.split(",")[0] for line in lines[1:]]
        assert budgets == ["120", "140", "160", "180", "200", "220", "adaptive"]

    def test_comma_budget_list(self, dataset, capsys) -> None:
        assert main(["ablate", str(dataset), "--budgets", "100,150"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == ["100", "150", "adaptive"]

    def test_csv_matches_a_fresh_oracle_per_pair(self, tmp_path, capsys) -> None:
        rng = random.Random(5)
        rows = []
        for index in range(12):
            theory = random_theory(rng, max_rules=5)
            question = random_question(rng, theory)
            label = decide_from_closure(forward_chain(theory), question)
            rows.append({"id": f"a-{index}", "theory": theory.to_text(),
                         "question": question.raw_text, "answer": label.value})
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        out_csv = tmp_path / "ablation.csv"
        assert main(["ablate", str(path), "--budgets", "4,8,16", "--seed", "2", "--flip", "0.3",
                     "--corrupt", "0.4", "--malform", "0.3", "--out", str(out_csv)]) == 0

        def fresh_oracle(record: DatasetRecord) -> OracleGenerator:
            return OracleGenerator(record.closure, record.question,
                                   OracleNoiseConfig(0.3, 0.4, 0.3),
                                   _record_seed(2, record.record_id))

        expected = run_ablation(load_dataset(path).records, [4, 8, 16], PipelineConfig(),
                                fresh_oracle)
        assert out_csv.read_text(encoding="utf-8") == ablation_csv(expected)


class TestHttpConnections:
    @pytest.mark.parametrize("command", [
        ["answer", "{theory}", "--question", "Is Bob kind?"],
        ["eval", "{dataset}", "--method", "all", "--workers", "2"],
        ["ablate", "{dataset}", "--budgets", "10,20", "--workers", "2"],
    ], ids=lambda argv: argv[0])
    def test_no_socket_outlives_its_command(self, command, theory_file, dataset,
                                            monkeypatch) -> None:
        monkeypatch.delenv("PROOFSKETCH_API_KEY", raising=False)
        endpoint = _StubEndpoint()
        try:
            endpoint.plan(*[("ok", _ok_payload('{"answer": "Unknown", "claims": []}'))] * 200)
            argv = [arg.format(theory=theory_file, dataset=dataset) for arg in command]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([*argv, "--backend", "http", "--endpoint", endpoint.url,
                             "--model", "m"]) == 0
                gc.collect()
            assert endpoint.connections >= 1
            endpoint.wait_closed()
        finally:
            endpoint.close()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


class TestBudgetSpecParsing:
    def test_range_form(self) -> None:
        assert _parse_budgets("120:220:20") == [120, 140, 160, 180, 200, 220]

    def test_range_inclusive_end(self) -> None:
        assert _parse_budgets("10:30:10") == [10, 20, 30]

    def test_comma_form(self) -> None:
        assert _parse_budgets("64, 96,128") == [64, 96, 128]

    @pytest.mark.parametrize("spec", ["30:10:5", "10:20:0", "1:2:3:4", "0,5", "abc", "-5:10:5",
                                      "", ","])
    def test_bad_specs(self, spec: str) -> None:
        with pytest.raises(UsageError):
            _parse_budgets(spec)


class TestRecordSeedMixing:
    def test_distinct_records_get_distinct_seeds(self) -> None:
        seeds = {_record_seed(0, f"rec-{i}") for i in range(100)}
        assert len(seeds) == 100

    def test_stable(self) -> None:
        assert _record_seed(7, "abc") == _record_seed(7, "abc")
        assert _record_seed(7, "abc") != _record_seed(8, "abc")


def _count_calls(monkeypatch, original) -> list:
    """Record the argument of every call to a package function, wherever
    a proofsketch module binds it."""
    name = original.__name__
    calls: list = []

    def counted(arg):
        calls.append(arg)
        return original(arg)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "proofsketch" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


class TestSingleProducer:
    THEORIES = (
        "Anne is big. Bob is round. If someone is big then they are kind.",
        "Carol is not quiet. Dave is big.",
    )

    def test_eval_parses_and_closes_each_theory_once(self, tmp_path, capsys,
                                                     monkeypatch) -> None:
        rows = [
            (0, "Is Anne kind?", "True"), (1, "Is Carol quiet?", "False"),
            (0, "Is Bob kind?", "Unknown"), (1, "Is Dave big?", "True"),
            (0, "Is Bob round?", "True"), (1, "Is Dave quiet?", "Unknown"),
        ]
        path = tmp_path / "shared.jsonl"
        path.write_text("".join(
            json.dumps({"id": f"s-{i}", "theory": self.THEORIES[t], "question": q, "answer": a})
            + "\n" for i, (t, q, a) in enumerate(rows)), encoding="utf-8")
        parses = _count_calls(monkeypatch, parse_theory_nl)
        closures = _count_calls(monkeypatch, forward_chain)
        assert main(["eval", str(path), "--method", "all", "--out", str(tmp_path / "run")]) == 0
        assert sorted(parses) == sorted(self.THEORIES)
        assert sorted(theory.source_text for theory in closures) == sorted(self.THEORIES)
        records = (tmp_path / "run" / "records.jsonl").read_text().splitlines()
        assert len(records) == 4 * len(rows)

    def test_answer_closes_once(self, theory_file, capsys, monkeypatch) -> None:
        # Other tests answer about the same text, and the process keeps its closure.
        cli._closure_of.cache_clear()
        closures = _count_calls(monkeypatch, forward_chain)
        argv = ["answer", str(theory_file), "--question", "Is Bob kind?"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["generator_calls"] == 1
        assert len(closures) == 1
        # The same text again: the closure is reused.
        assert main(argv) == 0
        capsys.readouterr()
        assert len(closures) == 1
        # The file rewritten: its new text is closed once.
        theory_file.write_text(THEORY_TEXT + "Bob is big.\n", encoding="utf-8")
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["answer"] == "True"
        assert len(closures) == 2
        assert closures[1].source_text.endswith("Bob is big.\n")

    def _oracle_decisions(self, monkeypatch) -> list:
        """The questions the oracle backend reads a label for: one per
        cursor that draws a reply itself."""
        calls: list = []
        original = generation.decide_from_closure

        def counted(closure, question):
            calls.append(question.raw_text)
            return original(closure, question)

        monkeypatch.setattr(generation, "decide_from_closure", counted)
        return calls

    def test_eval_draws_each_first_reply_once(self, dataset, tmp_path, capsys,
                                              monkeypatch) -> None:
        decisions = self._oracle_decisions(monkeypatch)
        assert main(["eval", str(dataset), "--method", "all", "--out", str(tmp_path / "run")]) == 0
        # Noise zero: no ProofSketch pair asks for a second reply.
        assert sorted(decisions) == sorted(row["question"] for row in DATASET_ROWS)
        rows = [json.loads(line)
                for line in (tmp_path / "run" / "records.jsonl").read_text().splitlines()]
        assert sum(row["generator_calls"] for row in rows) == 3 * len(DATASET_ROWS) + 1

    def test_closure_decided_eval_makes_no_oracle_work(self, tmp_path, capsys,
                                                       monkeypatch) -> None:
        decided = [row for row in DATASET_ROWS if row["answer"] != "Unknown"]
        path = tmp_path / "decided.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in decided), encoding="utf-8")
        decisions = self._oracle_decisions(monkeypatch)
        assert main(["eval", str(path), "--method", "sketch", "--flip", "0.5"]) == 0
        assert decisions == []

    def test_decided_answer_makes_no_oracle_work(self, theory_file, capsys,
                                                 monkeypatch) -> None:
        decisions = self._oracle_decisions(monkeypatch)
        assert main(["answer", str(theory_file), "--question", "Is Anne kind?"]) == 0
        assert json.loads(capsys.readouterr().out)["generator_calls"] == 0
        assert decisions == []

    NOISE_COMMANDS = (
        ["eval", "{dataset}", "--method", "all"],
        ["ablate", "{dataset}", "--budgets", "40,120"],
        ["answer", "{theory}", "--question", "Is Bob kind?"],
    )

    @pytest.mark.parametrize("command", NOISE_COMMANDS, ids=("eval", "ablate", "answer"))
    def test_noise_checked_once_per_command(self, command, dataset, theory_file, capsys,
                                            monkeypatch) -> None:
        checks: list = []
        original = OracleNoiseConfig.__post_init__
        monkeypatch.setattr(OracleNoiseConfig, "__post_init__",
                            lambda noise: checks.append(noise) or original(noise))
        argv = [arg.format(dataset=dataset, theory=theory_file) for arg in command]
        assert main([*argv, "--flip", "0.5", "--corrupt", "0.2", "--seed", "3"]) == 0
        assert len(checks) == 1
        assert checks[0] == OracleNoiseConfig(0.5, 0.2, 0.0)

    @pytest.mark.parametrize("command", NOISE_COMMANDS, ids=("eval", "ablate", "answer"))
    def test_bad_noise_is_one_line_error(self, command, dataset, theory_file, capsys) -> None:
        argv = [arg.format(dataset=dataset, theory=theory_file) for arg in command]
        assert main([*argv, "--flip", "1.5"]) == 2
        assert _error_line(capsys) == "proofsketch: error: flip_answer_prob must lie in [0, 1]"


class _ThreadStdout(io.TextIOBase):
    """Stands in for sys.stdout: each thread writes to its own buffer."""

    def __init__(self) -> None:
        self._local = threading.local()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if not hasattr(self._local, "parts"):
            self._local.parts = []
        self._local.parts.append(text)
        return len(text)

    def take(self) -> str:
        text = "".join(getattr(self._local, "parts", []))
        self._local.parts = []
        return text


def _without_latency(output: str) -> dict:
    payload = json.loads(output)
    payload.pop("latency_ms")
    return payload


class TestClosureCache:
    """`answer` keeps the closure of each theory text it has read; every
    result must be what the same command prints with nothing cached."""

    STRUCTURED = {
        "facts": [{"entity": "anne", "attribute": "big", "negated": False},
                  {"entity": "bob", "attribute": "round", "negated": False}],
        "rules": [{"subject": "*", "body": [{"attribute": "big", "negated": False}],
                   "head": {"attribute": "kind", "negated": False}}],
    }
    QUESTIONS = ("Is Anne kind?", "Is Bob kind?", "Is Bob not round?", "Is Carol big?")

    @pytest.fixture()
    def argvs(self, theory_file, tmp_path, request) -> list[list[str]]:
        structured = tmp_path / "example.json"
        structured.write_text(json.dumps(self.STRUCTURED), encoding="utf-8")
        if request.param == "oracle":
            backend = ["--flip", "0.3", "--corrupt", "0.3", "--malform", "0.2"]
            seeds = range(3)
        else:
            script = tmp_path / "script.json"
            script.write_text(json.dumps(['{"answer": "Unknown", "claims": ["bob is round"]}',
                                          "not a sketch", '{"answer": "True"}']),
                              encoding="utf-8")
            backend = ["--backend", "scripted", "--script", str(script)]
            seeds = range(1)
        return [["answer", str(path), "--question", question, "--seed", str(seed), *backend]
                for path in (theory_file, structured) for question in self.QUESTIONS
                for seed in seeds]

    @pytest.mark.parametrize("argvs", ["oracle", "scripted"], indirect=True)
    def test_repeats_print_what_uncached_calls_print(self, argvs, capsys) -> None:
        def answer(argv: list[str]) -> dict:
            assert main(argv) == 0
            return _without_latency(capsys.readouterr().out)

        uncached = []
        for argv in argvs:
            cli._closure_of.cache_clear()
            uncached.append(answer(argv))
        cli._closure_of.cache_clear()
        for _ in range(2):
            assert [answer(argv) for argv in argvs] == uncached
        assert cli._closure_of.cache_info().hits == 2 * len(argvs) - 2

    def test_parse_error_on_every_call(self, tmp_path, capsys) -> None:
        bad = tmp_path / "bad.txt"
        bad.write_text("Anne is big. Anne is.\n", encoding="utf-8")
        truncated = tmp_path / "bad.json"
        truncated.write_text("{", encoding="utf-8")
        for _ in range(3):
            assert main(["answer", str(bad), "--question", "Is Anne big?"]) == 2
            assert "sentence 1" in _error_line(capsys)
            assert main(["answer", str(truncated), "--question", "Is Anne big?"]) == 2
            assert f"{truncated}: invalid JSON" in _error_line(capsys)

    def test_format_is_part_of_the_key(self, tmp_path, capsys) -> None:
        text = json.dumps(self.STRUCTURED)
        structured, plain = tmp_path / "theory.json", tmp_path / "theory.txt"
        structured.write_text(text, encoding="utf-8")
        plain.write_text(text, encoding="utf-8")
        assert main(["answer", str(structured), "--question", "Is Anne kind?"]) == 0
        assert json.loads(capsys.readouterr().out)["answer"] == "True"
        # The same text read as sentences does not parse.
        assert main(["answer", str(plain), "--question", "Is Anne kind?"]) == 2
        _error_line(capsys)

    def test_threads_match_serial(self, theory_file, monkeypatch) -> None:
        argvs = [["answer", str(theory_file), "--question", question, "--seed", str(seed),
                  "--flip", "0.3", "--malform", "0.2"]
                 for question in self.QUESTIONS for seed in range(8)]
        stdout = _ThreadStdout()
        monkeypatch.setattr(sys, "stdout", stdout)

        def answer(argv: list[str]) -> dict:
            assert main(argv) == 0
            return _without_latency(stdout.take())

        cli._closure_of.cache_clear()
        serial = [answer(argv) for argv in argvs]
        cli._closure_of.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(answer, argvs * 3, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 3


class TestSharedParser:
    """main() reuses one parser; parsing must leave nothing behind in it."""

    def test_built_once(self) -> None:
        assert build_parser() is build_parser()

    def test_no_state_carries_over(self, theory_file, tmp_path) -> None:
        parse = build_parser().parse_args
        base = ["answer", str(theory_file), "--question", "Is Bob kind?"]
        first = parse([*base, "--seed", "7", "--flip", "0.5", "--config", str(tmp_path / "c")])
        assert (first.seed, first.flip) == (7, 0.5)
        second = parse(base)
        assert (second.seed, second.flip, second.config) == (0, 0.0, None)

    def test_usage_error_leaves_parser_usable(self, theory_file, capsys) -> None:
        argv = ["answer", str(theory_file), "--question", "Is Bob kind?"]

        def answer() -> dict:
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            payload.pop("latency_ms")
            return payload

        before = answer()
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--no-such-flag"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.splitlines()
        # The answer parser reports it, with its own usage line.
        assert err[0].startswith("usage: proofsketch answer [-h] --question QUESTION")
        assert err[-1] == "proofsketch answer: error: unrecognized arguments: --no-such-flag"
        assert answer() == before

    def test_each_command_line_parsed_once(self, theory_file, capsys, monkeypatch) -> None:
        top, commands = cli._parsers()
        calls = {"top": 0, "answer": 0}

        def counting(name, parse):
            def parse_args(*args, **kwargs):
                calls[name] += 1
                return parse(*args, **kwargs)
            return parse_args

        monkeypatch.setattr(top, "parse_args", counting("top", top.parse_args))
        answer = commands["answer"]
        monkeypatch.setattr(answer, "parse_args", counting("answer", answer.parse_args))
        assert main(["answer", str(theory_file), "--question", "Is Bob kind?"]) == 0
        assert calls == {"top": 0, "answer": 1}

    @pytest.mark.parametrize("argv, status, stream, last_line", [
        ([], 2, "err", "proofsketch: error: the following arguments are required: command"),
        (["-h"], 0, "out", None),
        (["bogus"], 2, "err", "proofsketch: error: argument command: invalid choice: 'bogus'"),
    ], ids=("empty", "help", "unknown-command"))
    def test_no_command_keeps_top_level_usage(self, argv, status, stream, last_line,
                                              capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == status
        lines = getattr(capsys.readouterr(), stream).splitlines()
        assert lines[0] == "usage: proofsketch [-h] {closure,answer,eval,ablate,report} ..."
        if last_line is not None:
            assert lines[-1].startswith(last_line)

    def test_command_help_is_the_command_usage(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["answer", "-h"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == cli._parsers()[1]["answer"].format_help()

    def test_threads_parse_like_serial(self, theory_file, dataset, tmp_path) -> None:
        argvs = []
        for i in range(50):
            argvs += [
                ["answer", str(theory_file), "--question", f"Is Bob kind{i}?", "--seed", str(i),
                 *(["--flip", "0.5"] if i % 2 else []), "--backend", ("oracle", "http")[i % 2]],
                ["eval", str(dataset), "--workers", str(1 + i % 8), "--seed", str(i),
                 "--method", ("zero", "sketch", "all")[i % 3],
                 *(["--out", str(i)] if i % 4 else [])],
                ["ablate", str(dataset), "--budgets", f"{10 + i},200", "--malform", "0.1"],
                ["report", str(tmp_path / str(i)), "--format", ("md", "csv", "json")[i % 3]],
            ]
        serial = [vars(build_parser().parse_args(argv)) for argv in argvs]
        # main() parses each line once, by its command's parser, which sets
        # everything the full parse does but the command name.
        once = [vars(cli._parse_args(argv)) for argv in argvs]
        assert once == [{k: v for k, v in args.items() if k != "command"} for args in serial]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda a, parse: vars(parse(a)), argv, parse)
                           for argv in argvs
                           for parse in (build_parser().parse_args, cli._parse_args)]
                threaded = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len({repr(args) for args in serial}) == len(argvs) == 200
        assert threaded == [args for pair in zip(serial, once) for args in pair]


def _subprocess_env() -> dict[str, str]:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_runtime_imports_only_stdlib() -> None:
    # Diffed against a snapshot: site hooks may preload third-party modules
    # before any package import.
    code = ("import sys; before = set(sys.modules); import proofsketch.cli; "
            "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))")
    completed = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, timeout=60, env=_subprocess_env())
    new = set(completed.stdout.split())
    assert "proofsketch" in new
    assert new - {"proofsketch"} <= sys.stdlib_module_names


def test_loading_a_dataset_starts_no_transport_or_pool(dataset) -> None:
    # Only the http backend needs http.client, and only --workers above 1 a
    # thread pool; diffed against a snapshot as above.
    code = ("import sys; before = set(sys.modules); import proofsketch; "
            f"proofsketch.load_dataset({str(dataset)!r}); import proofsketch.cli; "
            "print(*sorted(set(sys.modules) - before))")
    completed = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, timeout=60, env=_subprocess_env())
    new = set(completed.stdout.split())
    assert {"proofsketch.harness", "proofsketch.cli"} <= new
    assert not new & {"http.client", "concurrent.futures"}


def test_closed_stdout_exits_quietly(theory_file) -> None:
    # The reader of stdout is gone before the command writes, as in `| head`.
    process = subprocess.Popen(
        [sys.executable, "-m", "proofsketch.cli", "answer", str(theory_file),
         "--question", "Is Bob kind?"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env())
    process.stdout.close()
    try:
        stderr = process.stderr.read()
        assert process.wait(timeout=60) == 1
    finally:
        process.kill()
        process.stderr.close()
    assert stderr == b""
