"""Backend, prompt, budget, and HTTP-client tests.

The HTTP tests run against a local stub endpoint speaking just enough of
the chat-completions wire format over HTTP/1.1 keep-alive, with a
programmable action plan per request (respond, fail with a status, stall,
return non-JSON, or end the connection) and a count of its connections.
"""

from __future__ import annotations

import http.client
import http.server
import importlib.util
import json
import random
import re
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from proofsketch import generation
from proofsketch.theory import Label, Theory, parse_question, parse_theory_nl
from proofsketch.closure import forward_chain
from proofsketch.sketch import ParseStatus, parse_sketch
from proofsketch.generation import (BASELINE_BUDGETS, EndpointError, GenerationRequest,
                                    GenerationTimeout, Generator, GeneratorError, HttpGenerator,
                                    Method, OracleGenerator, OracleNoiseConfig, PROMPT_VERSION,
                                    ScriptedGenerator, build_baseline_prompt,
                                    build_sketch_prompt, count_tokens, request_sketch,
                                    truncate_to_tokens)
from proofsketch.selector import PipelineConfig, select_budget

from helpers import random_question, random_theory

THEORY = parse_theory_nl(
    "Anne is big. Bob is round. If someone is big then they are kind."
)
QUESTION = parse_question("Is Anne kind?")


class TestPrompts:
    def test_sketch_prompt_embeds_inputs(self) -> None:
        prompt = build_sketch_prompt(THEORY, QUESTION)
        assert "Anne is big." in prompt
        assert "Is Anne kind?" in prompt
        assert '"claims"' in prompt
        assert "at most 3 claims" in prompt

    def test_sketch_prompt_renders_theory_without_source(self) -> None:
        stripped = Theory(THEORY.facts, THEORY.rules)
        prompt = build_sketch_prompt(stripped, QUESTION)
        assert "Anne is big." in prompt

    def test_answer_only_prompt(self) -> None:
        prompt = build_baseline_prompt(THEORY, QUESTION, Method.ZERO_SHOT)
        assert "exactly one of True, False, Unknown" in prompt
        assert "reasoning" not in prompt.lower()

    def test_few_line_prompt(self) -> None:
        prompt = build_baseline_prompt(THEORY, QUESTION, Method.SHORT_COT)
        assert "at most 3" in prompt
        assert "Answer:" in prompt

    def test_long_derivation_prompt(self) -> None:
        prompt = build_baseline_prompt(THEORY, QUESTION, Method.LONG_COT)
        assert "10" in prompt
        assert "Answer:" in prompt

    def test_baseline_budgets(self) -> None:
        assert BASELINE_BUDGETS[Method.ZERO_SHOT] == 16
        assert BASELINE_BUDGETS[Method.SHORT_COT] == 128
        assert BASELINE_BUDGETS[Method.LONG_COT] == 384

    def test_prompt_version_is_stamped(self) -> None:
        assert isinstance(PROMPT_VERSION, str) and PROMPT_VERSION

    def test_prompts_are_pinned(self) -> None:
        # Full text of every prompt under PROMPT_VERSION "1": any change to
        # the wording must bump the version and update this test.
        inputs = (
            "STATEMENTS:\n"
            "Anne is big. Bob is round. If someone is big then they are kind.\n\n"
            "QUESTION:\nIs Anne kind?\n\n"
        )
        baseline_head = "Read the statements and answer the question.\n\n" + inputs
        answer_line = "then finish with a final line of the form:\nAnswer: True|False|Unknown\n"
        assert PROMPT_VERSION == "1"
        assert build_sketch_prompt(THEORY, QUESTION) == (
            "You are a careful logician working over a fixed set of statements.\n\n"
            + inputs
            + "Reply with exactly one JSON object and nothing else, in this schema:\n"
            '{"answer": "True|False|Unknown", "claims": ["<entity> is <attribute>", ...]}\n\n'
            "Requirements:\n"
            '- "answer" must be exactly one of True, False, Unknown.\n'
            '- Each claim is one short sentence, "<entity> is <attribute>" or '
            '"<entity> is not <attribute>", using only entities and attributes that '
            "appear in the STATEMENTS.\n"
            "- Give at most 3 claims, each about the entity named in the QUESTION.\n"
        )
        assert build_baseline_prompt(THEORY, QUESTION, Method.ZERO_SHOT) == (
            baseline_head + "Respond with exactly one of True, False, Unknown and nothing else.\n"
        )
        assert build_baseline_prompt(THEORY, QUESTION, Method.SHORT_COT) == (
            baseline_head + "Write at most 3 short reasoning lines, " + answer_line
        )
        assert build_baseline_prompt(THEORY, QUESTION, Method.LONG_COT) == (
            baseline_head + "Work through the problem in up to 10 numbered steps, "
            "citing the statements you use, " + answer_line
        )
        assert {method.value: budget for method, budget in BASELINE_BUDGETS.items()} == {
            "ZeroShot": 16, "ShortCoT": 128, "LongCoT": 384,
        }


class TestTokenAccounting:
    def test_count_tokens(self) -> None:
        assert count_tokens("") == 0
        assert count_tokens("one") == 1
        assert count_tokens("  spaced   out  text ") == 3

    def test_truncate_keeps_prefix(self) -> None:
        text = "a b c d e"
        assert truncate_to_tokens(text, 3) == "a b c"
        assert truncate_to_tokens(text, 99) == text
        assert truncate_to_tokens("", 5) == ""

    def test_truncate_bound_holds(self) -> None:
        for limit in (1, 2, 7, 50):
            text = "tok " * 40
            cut = truncate_to_tokens(text, limit)
            assert count_tokens(cut) <= limit
            assert text.startswith(cut)


class TestRequestSketch:
    def test_under_budget_passes_through(self) -> None:
        generator = ScriptedGenerator(["short reply"])
        raw = request_sketch(generator, "p", max_tokens=50, temperature=0.0)
        assert raw.text == "short reply"
        assert raw.completion_tokens == 2

    def test_over_budget_truncates_and_recounts(self) -> None:
        generator = ScriptedGenerator(["w " * 100])
        raw = request_sketch(generator, "p", max_tokens=10, temperature=0.0)
        assert raw.completion_tokens == 10
        assert count_tokens(raw.text) == 10

    def test_misreported_count_still_clamped(self) -> None:
        class Bragger:
            name = "bragger"

            def generate(self, request: GenerationRequest):
                from proofsketch.generation import GenerationResponse

                # Claims far more tokens than the text holds.
                return GenerationResponse(text="tiny reply", completion_tokens=9999)

        raw = request_sketch(Bragger(), "p", max_tokens=10, temperature=0.0)
        assert raw.completion_tokens == 2
        assert raw.text == "tiny reply"


class TestGenerationRequest:
    @pytest.mark.parametrize("kwargs", [
        {"max_tokens": 0}, {"max_tokens": 5, "temperature": -0.1},
        {"max_tokens": 5, "temperature": float("nan")},
        {"max_tokens": 5, "temperature": float("inf")},
        {"max_tokens": 5, "temperature": 10 ** 400},
    ])
    def test_invalid_rejected(self, kwargs) -> None:
        with pytest.raises(ValueError):
            GenerationRequest("p", **kwargs)
        # _replace builds through the same check.
        with pytest.raises(ValueError):
            GenerationRequest("p", 5)._replace(**kwargs)


class TestScriptedGenerator:
    def test_replays_in_order(self) -> None:
        generator = ScriptedGenerator(["one", "two"])
        request = GenerationRequest(prompt="p", max_tokens=10)
        assert generator.generate(request).text == "one"
        assert generator.generate(request).text == "two"
        assert generator.calls == 2

    def test_cycle_mode(self) -> None:
        generator = ScriptedGenerator(["a", "b"])
        request = GenerationRequest(prompt="p", max_tokens=10)
        texts = [generator.generate(request).text for _ in range(5)]
        assert texts == ["a", "b", "a", "b", "a"]
        assert generator.calls == 5

    def test_empty_script_rejected(self) -> None:
        with pytest.raises(ValueError):
            ScriptedGenerator([])


class TestSelectBudget:
    def test_anchored_entity_gets_tight_budget(self) -> None:
        closure = forward_chain(THEORY)
        config = PipelineConfig()
        assert select_budget(closure, parse_question("Is Anne kind?"), config) == 120

    def test_unanchored_entity_gets_loose_budget(self) -> None:
        closure = forward_chain(THEORY)
        config = PipelineConfig()
        assert select_budget(closure, parse_question("Is Zed kind?"), config) == 160

    def test_fixed_budget_wins(self) -> None:
        closure = forward_chain(THEORY)
        config = PipelineConfig(fixed_budget=200)
        assert select_budget(closure, parse_question("Is Anne kind?"), config) == 200
        assert select_budget(closure, parse_question("Is Zed kind?"), config) == 200

    def test_custom_tier_values(self) -> None:
        closure = forward_chain(THEORY)
        config = PipelineConfig(budget_anchored=64, budget_unanchored=96)
        assert select_budget(closure, parse_question("Is Bob big?"), config) == 64
        assert select_budget(closure, parse_question("Is Zed big?"), config) == 96


class TestOracleGenerator:
    def _generate(self, generator: OracleGenerator) -> str:
        return generator.generate(GenerationRequest(prompt="p", max_tokens=200)).text

    def test_noise_zero_matches_closure(self) -> None:
        question = parse_question("Is Anne kind?")
        generator = OracleGenerator(forward_chain(THEORY), question, OracleNoiseConfig(), 5)
        parsed = parse_sketch(self._generate(generator), THEORY)
        assert parsed.parse_status is ParseStatus.CLEAN
        assert parsed.answer is Label.TRUE
        closure = forward_chain(THEORY)
        assert parsed.claims
        for claim in parsed.claims:
            assert claim.entity == "anne"
            assert (claim.attribute, claim.polarity) in closure.table["anne"]

    def test_claims_ordered_shallowest_first(self) -> None:
        question = parse_question("Is Anne kind?")
        generator = OracleGenerator(forward_chain(THEORY), question, OracleNoiseConfig(), 5)
        payload = json.loads(self._generate(generator))
        assert payload["claims"] == ["anne is big", "anne is kind"]

    def test_claims_capped_at_three(self) -> None:
        theory = parse_theory_nl(
            "Anne is big. Anne is quiet. Anne is round. Anne is smart. Anne is young."
        )
        question = parse_question("Is Anne kind?")
        generator = OracleGenerator(forward_chain(theory), question, OracleNoiseConfig(), 5)
        payload = json.loads(self._generate(generator))
        assert len(payload["claims"]) == 3

    def test_no_closure_facts_means_no_claims(self) -> None:
        question = parse_question("Is Zed kind?")
        generator = OracleGenerator(forward_chain(THEORY), question, OracleNoiseConfig(), 5)
        payload = json.loads(self._generate(generator))
        assert payload["claims"] == []
        assert payload["answer"] == "Unknown"

    def test_same_seed_same_stream(self) -> None:
        noise = OracleNoiseConfig(flip_answer_prob=0.5, corrupt_claim_prob=0.5,
                                  malform_prob=0.3)
        first = OracleGenerator(forward_chain(THEORY), QUESTION, noise, 77)
        second = OracleGenerator(forward_chain(THEORY), QUESTION, noise, 77)
        stream_a = [self._generate(first) for _ in range(20)]
        stream_b = [self._generate(second) for _ in range(20)]
        assert stream_a == stream_b

    def test_flip_always_changes_answer(self) -> None:
        noise = OracleNoiseConfig(flip_answer_prob=1.0)
        generator = OracleGenerator(forward_chain(THEORY), QUESTION, noise, 3)
        for _ in range(10):
            payload = json.loads(self._generate(generator))
            assert payload["answer"] != Label.TRUE.value
            assert payload["answer"] in (Label.FALSE.value, Label.UNKNOWN.value)

    def test_malform_always_breaks_parse(self) -> None:
        noise = OracleNoiseConfig(malform_prob=1.0)
        generator = OracleGenerator(forward_chain(THEORY), QUESTION, noise, 3)
        text = self._generate(generator)
        parsed = parse_sketch(text, THEORY)
        assert parsed.parse_status is ParseStatus.FAILED

    def test_corrupt_negates_claims(self) -> None:
        noise = OracleNoiseConfig(corrupt_claim_prob=1.0)
        generator = OracleGenerator(forward_chain(THEORY), QUESTION, noise, 3)
        payload = json.loads(self._generate(generator))
        assert payload["claims"] == ["anne is not big", "anne is not kind"]

    def test_probability_validation(self) -> None:
        with pytest.raises(ValueError):
            OracleNoiseConfig(flip_answer_prob=1.5)
        with pytest.raises(ValueError):
            OracleNoiseConfig(corrupt_claim_prob=-0.1)
        # _replace and _make build through the same check.
        with pytest.raises(ValueError, match=r"^malform_prob must lie in \[0, 1\]$"):
            OracleNoiseConfig()._replace(malform_prob=2.0)
        with pytest.raises(ValueError, match=r"^flip_answer_prob must lie in \[0, 1\]$"):
            OracleNoiseConfig._make((1.5, 0.0, 0.0))


_PROBABILITIES = st.sampled_from([0.0, 0.2, 0.5, 1.0])


class TestSharedFirstReply:
    """Oracle cursors that share a record's first reply through
    first_replies must read the stream of a fresh, unshared oracle: the
    unshared one is the twin the sharing is checked against."""

    REQUEST = GenerationRequest(prompt="p", max_tokens=200)

    @given(theory_seed=st.integers(0, 2**32), noise_seed=st.integers(0, 2**32),
           flip=_PROBABILITIES, corrupt=_PROBABILITIES, malform=_PROBABILITIES,
           reads=st.lists(st.integers(0, 3), max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_cursors_read_the_unshared_stream(self, theory_seed: int, noise_seed: int,
                                              flip: float, corrupt: float, malform: float,
                                              reads: list[int]) -> None:
        rng = random.Random(theory_seed)
        theory = random_theory(rng, max_rules=6)
        question = random_question(rng, theory)
        closure = forward_chain(theory)
        noise = OracleNoiseConfig(flip, corrupt, malform)
        twin = OracleGenerator(closure, question, noise, noise_seed)
        expected = [twin.generate(self.REQUEST) for _ in range(5)]

        first_replies: dict = {}
        cursors = [OracleGenerator(closure, question, noise, noise_seed,
                                   first_replies=first_replies, key="record")
                   for _ in range(4)]
        streams: list[list] = [[] for _ in cursors]
        for index in reads:  # one reply for that cursor, up to 5 each
            if len(streams[index]) < 5:
                streams[index].append(cursors[index].generate(self.REQUEST))
        for stream in streams:
            assert stream == expected[:len(stream)]
        assert first_replies == ({"record": expected[0]} if reads else {})

    def test_threads_drawing_at_once_store_one_equal_reply(self) -> None:
        noise = OracleNoiseConfig(flip_answer_prob=0.5, corrupt_claim_prob=0.5,
                                  malform_prob=0.3)
        closure = forward_chain(THEORY)
        twin = OracleGenerator(closure, QUESTION, noise, 11)
        expected = [twin.generate(self.REQUEST) for _ in range(3)]
        threads = 8
        start = threading.Barrier(threads, timeout=10)

        def read_three(first_replies: dict) -> list:
            cursor = OracleGenerator(closure, QUESTION, noise, 11,
                                     first_replies=first_replies, key="record")
            start.wait()
            return [cursor.generate(self.REQUEST) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for _ in range(20):
                    first_replies: dict = {}
                    streams = list(pool.map(read_three, [first_replies] * threads, timeout=30))
                    assert streams == [expected] * threads
                    assert first_replies == {"record": expected[0]}
        finally:
            sys.setswitchinterval(interval)

    def test_label_and_claims_wait_for_the_first_draw(self, monkeypatch) -> None:
        calls: list = []
        monkeypatch.setattr(generation, "decide_from_closure",
                            lambda *args: calls.append(args) or Label.UNKNOWN)
        generator = OracleGenerator(forward_chain(THEORY), QUESTION)
        assert calls == []
        generator.generate(self.REQUEST)
        generator.generate(self.REQUEST)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Stub chat-completions endpoint


class _StubEndpoint:
    """Serves a scripted action per request over HTTP/1.1 keep-alive:
    ok / status (after an optional delay) / sleep / garbage / barrier (wait
    on a threading.Barrier, then ok, or 503 if it breaks) / close (ok with
    Connection: close) / drop (ok, then close the connection unannounced,
    as a server does with an idle one). Counts the connections it accepted
    and the ones that have since ended, and closes the clients made for it
    by _client when it closes."""

    def __init__(self) -> None:
        self.actions: list[tuple] = []
        self.requests: list[dict] = []
        self.clients: list[HttpGenerator] = []
        self.connections = 0
        self.closed = 0
        self._lock = threading.Lock()

        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args) -> None:
                pass

            def setup(self) -> None:
                super().setup()
                with stub._lock:
                    stub.connections += 1

            def finish(self) -> None:
                super().finish()
                with stub._lock:
                    stub.closed += 1

            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length) or b"{}")
                with stub._lock:
                    stub.requests.append(
                        {"body": body, "auth": self.headers.get("Authorization")}
                    )
                    action = stub.actions.pop(0) if stub.actions else ("ok", {})
                try:
                    self._perform(action)
                except (BrokenPipeError, ConnectionResetError):
                    pass

            def _perform(self, action: tuple) -> None:
                kind = action[0]
                if kind == "sleep":
                    time.sleep(action[1])
                    self._reply(200, json.dumps({"choices": []}).encode())
                elif kind == "status":
                    if len(action) > 2:
                        time.sleep(action[2])
                    self._reply(action[1], b"")
                elif kind == "garbage":
                    self._reply(200, b"this is not json")
                elif kind == "barrier":
                    try:
                        action[1].wait()
                    except threading.BrokenBarrierError:
                        self._reply(503, b"")
                    else:
                        self._reply(200, json.dumps(action[2]).encode())
                else:
                    self._reply(200, json.dumps(action[1]).encode(), close=kind == "close")
                    if kind == "drop":
                        self.close_connection = True

            def _reply(self, status: int, data: bytes, close: bool = False) -> None:
                # Status line, headers and body in one send: sent apart, a
                # kept-alive client waits on a delayed ACK for the body.
                head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
                        + ("Connection: close\r\n" if close else "") + "\r\n")
                self.wfile.write(head.encode("ascii") + data)
                if close:
                    self.close_connection = True

        class Server(http.server.ThreadingHTTPServer):
            daemon_threads = True

            def handle_error(self, request, client_address) -> None:
                pass

        self._server = Server(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def plan(self, *actions: tuple) -> None:
        self.actions.extend(actions)

    def wait_closed(self, count: int | None = None) -> None:
        """Wait up to 5 s until `count` connections (every one accepted,
        by default) have ended, as the server sees it."""
        deadline = time.monotonic() + 5.0
        while self.closed < (self.connections if count is None else count):
            if time.monotonic() > deadline:
                raise AssertionError(f"{self.closed} of {self.connections} connections ended")
            time.sleep(0.005)

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self._server.shutdown()
        self._server.server_close()


def _ok_payload(text: str, completion_tokens: int | None = None) -> dict:
    payload: dict = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if completion_tokens is not None:
        payload["usage"] = {"completion_tokens": completion_tokens}
    return payload


@pytest.fixture()
def stub():
    endpoint = _StubEndpoint()
    yield endpoint
    endpoint.close()


def _client(stub_endpoint: _StubEndpoint, **kwargs) -> HttpGenerator:
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_jitter_s", 0.0)
    client = HttpGenerator(stub_endpoint.url, "test-model", **kwargs)
    stub_endpoint.clients.append(client)
    return client


REQUEST = GenerationRequest(prompt="say hi", max_tokens=32, temperature=0.3)


class TestHttpGenerator:
    def test_success_with_usage(self, stub) -> None:
        stub.plan(("ok", _ok_payload("hello there", completion_tokens=7)))
        response = _client(stub).generate(REQUEST)
        assert response.text == "hello there"
        assert response.completion_tokens == 7

    def test_request_payload_shape(self, stub) -> None:
        stub.plan(("ok", _ok_payload("hi")))
        _client(stub).generate(REQUEST)
        body = stub.requests[0]["body"]
        assert body["model"] == "test-model"
        assert body["messages"] == [{"role": "user", "content": "say hi"}]
        assert body["max_tokens"] == 32
        assert body["temperature"] == 0.3

    def test_usage_fallback_counts_whitespace(self, stub) -> None:
        stub.plan(("ok", _ok_payload("four short words here")))
        response = _client(stub).generate(REQUEST)
        assert response.completion_tokens == 4

    @pytest.mark.parametrize("usage", ["oops", [1], 5, {"completion_tokens": True}])
    def test_malformed_usage_counts_whitespace(self, stub, usage) -> None:
        stub.plan(("ok", {**_ok_payload("four short words here"), "usage": usage}))
        response = _client(stub).generate(REQUEST)
        assert response.completion_tokens == 4 and type(response.completion_tokens) is int

    def test_server_errors_retried_then_succeed(self, stub) -> None:
        stub.plan(("status", 500), ("status", 503), ("ok", _ok_payload("recovered")))
        client = _client(stub, max_retries=2)
        response = client.generate(REQUEST)
        assert response.text == "recovered"
        assert len(stub.requests) == 3

    def test_server_errors_exhaust_retries(self, stub) -> None:
        stub.plan(("status", 500), ("status", 500))
        client = _client(stub, max_retries=1)
        with pytest.raises(GeneratorError) as excinfo:
            client.generate(REQUEST)
        assert excinfo.value.status_code == 500
        assert len(stub.requests) == 2

    @pytest.mark.parametrize("status", [404, 302])
    def test_client_error_fails_immediately(self, stub, status) -> None:
        # A redirect is not followed: it fails at once, like a 4xx.
        stub.plan(("status", status))
        client = _client(stub, max_retries=3)
        with pytest.raises(GeneratorError) as excinfo:
            client.generate(REQUEST)
        assert excinfo.value.status_code == status
        assert len(stub.requests) == 1

    def test_timeout_raises_timeout_type(self, stub) -> None:
        stub.plan(("sleep", 2.0))
        client = _client(stub, timeout_ms=150, max_retries=3)
        started = time.perf_counter()
        with pytest.raises(GenerationTimeout) as excinfo:
            client.generate(REQUEST)
        elapsed = time.perf_counter() - started
        assert isinstance(excinfo.value, TimeoutError)
        assert isinstance(excinfo.value, GeneratorError)
        assert elapsed < 1.5  # no retries after a deadline overrun
        assert len(stub.requests) == 1

    def test_non_json_payload(self, stub) -> None:
        stub.plan(("garbage",))
        with pytest.raises(GeneratorError):
            _client(stub).generate(REQUEST)

    def test_missing_choices(self, stub) -> None:
        stub.plan(("ok", {"choices": []}))
        with pytest.raises(GeneratorError):
            _client(stub).generate(REQUEST)

    def test_completions_text_field_rejected(self, stub) -> None:
        # The legacy completions API's reply shape: this backend reads only
        # choices[0].message.content, the chat API's.
        stub.plan(("ok", {"choices": [{"text": "plain completion"}]}))
        with pytest.raises(GeneratorError, match="^completion payload has no text content$"):
            _client(stub).generate(REQUEST)

    def test_transport_failure_retried(self, monkeypatch) -> None:
        # Nothing listens on this port; every attempt fails at connect, and
        # each retry first sleeps its backoff.
        client = HttpGenerator(
            "http://127.0.0.1:9/v1/chat/completions",
            "test-model",
            max_retries=1,
            backoff_base_s=0.01,
            backoff_jitter_s=0.0,
        )
        slept: list[float] = []
        monkeypatch.setattr(time, "sleep", slept.append)
        with pytest.raises(GeneratorError):
            client.generate(REQUEST)
        assert slept == [0.01]

    def test_transport_failure_logged(self, caplog) -> None:
        client = HttpGenerator("http://127.0.0.1:9/v1/chat/completions", "test-model",
                               max_retries=1, backoff_base_s=0.01, backoff_jitter_s=0.0)
        with caplog.at_level("DEBUG", logger="proofsketch.generation"):
            with pytest.raises(GeneratorError):
                client.generate(REQUEST)
        assert [(record.name, record.levelname, record.getMessage().partition(": ")[0])
                for record in caplog.records] == [
            ("proofsketch.generation", "DEBUG", f"transport failure on attempt {attempt}")
            for attempt in (1, 2)]

    def test_server_error_logged(self, stub, caplog) -> None:
        stub.plan(("status", 500), ("ok", _ok_payload("recovered")))
        with caplog.at_level("DEBUG", logger="proofsketch.generation"):
            assert _client(stub, max_retries=1).generate(REQUEST).text == "recovered"
        assert [(record.name, record.levelname, record.getMessage())
                for record in caplog.records] == [
            ("proofsketch.generation", "DEBUG", "server error 500 on attempt 1")]

    def test_longest_timeout_reaches_a_connection(self) -> None:
        # The largest timeout_ms accepted is a socket timeout settimeout
        # takes: the call gets as far as a refused connect.
        client = HttpGenerator("http://127.0.0.1:9/v1/chat/completions", "test-model",
                               timeout_ms=threading.TIMEOUT_MAX * 1000, max_retries=0)
        with pytest.raises(GeneratorError, match="^transport failure: "):
            client.generate(REQUEST)

    @pytest.mark.parametrize("endpoint", ["notaurl", "ftp://h/x", "http:///x"])
    def test_bad_endpoint_rejected_at_construction(self, endpoint) -> None:
        with pytest.raises(ValueError, match=re.escape(repr(endpoint))):
            HttpGenerator(endpoint, "test-model")

    @pytest.mark.parametrize("endpoint, shown", [
        ("http://u:secret@h/x", "http://u:***@h/x"),
        ("https://u:secret@h:99999/x?q", "https://u:***@h:99999/x?q"),
        ("http://a@b:secret@h/x", "http://a@b:***@h/x"),
    ], ids=("user-password", "bad-port", "at-in-username"))
    def test_bad_endpoint_hides_password(self, endpoint, shown) -> None:
        with pytest.raises(EndpointError) as excinfo:
            HttpGenerator(endpoint, "test-model")
        assert repr(shown) in str(excinfo.value)
        assert "secret" not in str(excinfo.value)

    @pytest.mark.parametrize("kwargs", [
        {"timeout_ms": 0}, {"timeout_ms": float("nan")}, {"timeout_ms": float("inf")},
        {"timeout_ms": 10 ** 400}, {"max_retries": -1}, {"timeout_ms": 1e14},
        {"timeout_ms": 1e300},
    ])
    def test_invalid_settings_rejected(self, kwargs) -> None:
        with pytest.raises(ValueError) as excinfo:
            HttpGenerator("http://127.0.0.1:9/v1/chat/completions", "test-model", **kwargs)
        # The message names the bad setting and no other.
        settings = ("timeout_ms", "max_retries")
        assert {name for name in settings if name in str(excinfo.value)} == set(kwargs)

    def test_api_key_header(self, stub, monkeypatch) -> None:
        monkeypatch.setenv("PROOFSKETCH_API_KEY", "sk-test-abc")
        stub.plan(("ok", _ok_payload("hi")))
        _client(stub).generate(REQUEST)
        assert stub.requests[0]["auth"] == "Bearer sk-test-abc"

    def test_no_key_no_header(self, stub, monkeypatch) -> None:
        monkeypatch.delenv("PROOFSKETCH_API_KEY", raising=False)
        stub.plan(("ok", _ok_payload("hi")))
        _client(stub).generate(REQUEST)
        assert stub.requests[0]["auth"] is None

    def test_custom_key_env(self, stub, monkeypatch) -> None:
        monkeypatch.setenv("OTHER_KEY", "sk-other")
        stub.plan(("ok", _ok_payload("hi")))
        _client(stub, api_key_env="OTHER_KEY").generate(REQUEST)
        assert stub.requests[0]["auth"] == "Bearer sk-other"


class TestThreadSafety:
    def test_http_generator_adds_no_cap(self, stub) -> None:
        # Six threads share one client. The stub answers only once all six
        # requests are in flight together (503 if that takes over 3 s), so
        # any cap below the caller's thread count fails every call.
        barrier = threading.Barrier(6, timeout=3)
        stub.plan(*[("barrier", barrier, _ok_payload("hi"))] * 6)
        client = _client(stub, max_retries=0)
        results: list[object] = []

        def call() -> None:
            try:
                results.append(client.generate(REQUEST).text)
            except GeneratorError as exc:
                results.append(exc)

        threads = [threading.Thread(target=call) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert results == ["hi"] * 6

    def test_wrapped_generator_serializes_calls(self) -> None:
        # A run shares one scripted generator across questions; its own
        # lock hands each concurrent call a distinct response.
        script = [f"item {i}" for i in range(200)]
        scripted = ScriptedGenerator(script)
        request = GenerationRequest(prompt="p", max_tokens=10)
        errors: list[Exception] = []
        texts: list[str] = []

        def hammer() -> None:
            try:
                for _ in range(50):
                    texts.append(scripted.generate(request).text)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert scripted.calls == 200
        assert sorted(texts) == sorted(script)


class TestDeadline:
    def test_deadline_covers_retries(self, stub) -> None:
        # timeout_ms is one deadline per call: three 503s that take 100 ms
        # each cannot stretch a 250 ms call to (max_retries + 1) attempts.
        stub.plan(*[("status", 503, 0.1)] * 3)
        client = _client(stub, timeout_ms=250, max_retries=5)
        started = time.perf_counter()
        with pytest.raises(GenerationTimeout, match="^no response within 250 ms"):
            client.generate(REQUEST)
        assert time.perf_counter() - started < 0.45

    def test_backoff_past_deadline_ends_call(self, stub, monkeypatch) -> None:
        stub.plan(("status", 503))
        client = _client(stub, timeout_ms=500, max_retries=3, backoff_base_s=1.0)
        monkeypatch.setattr(time, "sleep", lambda seconds: pytest.fail("slept past the deadline"))
        with pytest.raises(GenerationTimeout, match="^no response within 500 ms; "
                                                    "last attempt: server error 503$") as excinfo:
            client.generate(REQUEST)
        assert excinfo.value.__cause__.status_code == 503
        assert len(stub.requests) == 1

    def test_backoff_sleep_overrun_ends_call(self, stub, monkeypatch) -> None:
        # The backoff fits the deadline when it starts but overruns it: the
        # next attempt must time out, not pass a negative socket timeout.
        stub.plan(("status", 500))
        client = _client(stub, timeout_ms=300, max_retries=1)
        sleep = time.sleep
        monkeypatch.setattr(time, "sleep", lambda seconds: sleep(0.35))
        with pytest.raises(GenerationTimeout, match="^no response within 300 ms$"):
            client.generate(REQUEST)
        assert len(stub.requests) == 1


def _generate_from_threads(client: HttpGenerator, count: int) -> list[object]:
    results: list[object] = []

    def call() -> None:
        try:
            results.append(client.generate(REQUEST).text)
        except GeneratorError as exc:
            results.append(exc)

    threads = [threading.Thread(target=call) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return results


class TestKeepAlive:
    def test_sequential_calls_share_one_connection(self, stub) -> None:
        stub.plan(*[("ok", _ok_payload(f"reply {i}")) for i in range(5)])
        client = _client(stub)
        assert [client.generate(REQUEST).text for _ in range(5)] == [
            f"reply {i}" for i in range(5)]
        assert stub.connections == 1

    def test_one_connection_per_concurrent_caller(self, stub) -> None:
        # Twice, six calls that the stub answers only once all six are in
        # flight: the second six reuse the first six's connections.
        client = _client(stub, max_retries=0)
        for _ in range(2):
            barrier = threading.Barrier(6, timeout=3)
            stub.plan(*[("barrier", barrier, _ok_payload("hi"))] * 6)
            assert _generate_from_threads(client, 6) == ["hi"] * 6
        assert stub.connections == 6

    def test_server_closed_idle_connection_replaced_at_once(self, stub, monkeypatch) -> None:
        stub.plan(("drop", _ok_payload("one")), ("ok", _ok_payload("two")),
                  ("ok", _ok_payload("three")))
        client = _client(stub, max_retries=0)
        assert client.generate(REQUEST).text == "one"
        stub.wait_closed(1)
        # The resend on a new connection is no retry: no backoff sleep, and
        # max_retries 0 does not turn the idle gap into a failed call.
        monkeypatch.setattr(time, "sleep", lambda seconds: pytest.fail("backoff slept"))
        assert client.generate(REQUEST).text == "two"
        assert client.generate(REQUEST).text == "three"
        assert stub.connections == 2
        assert len(stub.requests) == 3

    def test_connection_dropped_after_timeout(self, stub) -> None:
        stub.plan(("sleep", 0.5), ("ok", _ok_payload("two")), ("ok", _ok_payload("three")))
        client = _client(stub, timeout_ms=250, max_retries=0)
        with pytest.raises(GenerationTimeout):
            client.generate(REQUEST)
        # The late reply to the first call is never read as the second's.
        assert client.generate(REQUEST).text == "two"
        assert client.generate(REQUEST).text == "three"
        assert stub.connections == 2

    def test_connection_dropped_after_connection_close_reply(self, stub, monkeypatch) -> None:
        connects: list[tuple] = []
        create = socket.create_connection

        def counted(*args, **kwargs):
            connects.append(args)
            return create(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counted)
        stub.plan(("close", _ok_payload("one")))
        client = HttpGenerator(stub.url, "test-model", max_retries=0)
        assert client.generate(REQUEST).text == "one"
        stub.close()  # nothing listens any more; the client is not closed
        # The next call tries one new connection, and its failure is a
        # transport failure, not a stale connection to send again on.
        with pytest.raises(GeneratorError, match="^transport failure"):
            client.generate(REQUEST)
        assert len(connects) == 2

    def test_reused_connection_waits_only_for_what_is_left(self, stub) -> None:
        # A kept-alive socket keeps the timeout it was connected with unless
        # each attempt sets what is left of the deadline on it.
        stub.plan(("ok", _ok_payload("warm")), ("status", 503, 0.6), ("sleep", 2.0))
        client = _client(stub, timeout_ms=1000, max_retries=1)
        client.generate(REQUEST)
        started = time.perf_counter()
        with pytest.raises(GenerationTimeout):
            client.generate(REQUEST)
        assert time.perf_counter() - started < 1.3
        assert stub.connections == 1

    def test_close_closes_idle_connections(self, stub) -> None:
        stub.plan(("ok", _ok_payload("one")), ("ok", _ok_payload("two")))
        client = _client(stub)
        client.generate(REQUEST)
        assert stub.closed == 0
        client.close()
        stub.wait_closed(1)
        # The instance stays usable: a later call opens a new connection.
        assert client.generate(REQUEST).text == "two"
        assert stub.connections == 2
        client.close()
        stub.wait_closed(2)

    def test_shared_idle_stack_under_contention(self, stub) -> None:
        # Eight threads, 25 calls each, on one client with a tiny switch
        # interval: no connection is lost from the idle stack or handed to
        # two calls at once, so every reply is whole and close() ends them all.
        texts = [f"reply {i}" for i in range(200)]
        stub.plan(*[("ok", _ok_payload(text)) for text in texts])
        client = _client(stub, max_retries=0)
        results: list[object] = []

        def hammer() -> None:
            for _ in range(25):
                try:
                    results.append(client.generate(REQUEST).text)
                except GeneratorError as exc:  # pragma: no cover - failure path
                    results.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results, key=str) == sorted(texts)
        assert 1 <= stub.connections <= 8
        client.close()
        stub.wait_closed()

    def test_bench_stub_sees_one_connection(self, monkeypatch) -> None:
        bench = Path(__file__).resolve().parent.parent / "bench"
        name = "proofsketch_bench_corpus"
        spec = importlib.util.spec_from_file_location(name, bench / "corpus.py")
        corpus = importlib.util.module_from_spec(spec)
        # Registered before exec_module: its dataclasses look their module up.
        monkeypatch.setitem(sys.modules, name, corpus)
        spec.loader.exec_module(corpus)
        theory, question = "Anne is big.", "Is Anne big?"
        prompt = f"STATEMENTS:\n{theory}\n\nQUESTION:\n{question}\n\nReply.\n"
        replies = [f"reply {i}" for i in range(5)]
        stub = subprocess.Popen([sys.executable, str(bench / "stub.py")], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        try:
            port = int(stub.stdout.readline())

            def control(path: str, payload: dict | None = None) -> dict:
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                try:
                    connection.request("POST" if payload is not None else "GET", path,
                                       json.dumps(payload) if payload is not None else None)
                    return json.loads(connection.getresponse().read())
                finally:
                    connection.close()

            control("/load", {corpus.stub_key(theory, question): replies})
            client = HttpGenerator(f"http://127.0.0.1:{port}/v1/chat/completions", "stub")
            request = GenerationRequest(prompt=prompt, max_tokens=32)
            assert [client.generate(request).text for _ in range(5)] == replies
            client.close()
            assert control("/stats") == {"connections": 1, "requests": 5, "unknown_prompts": 0}
        finally:
            stub.stdin.close()
            stub.wait(timeout=10)
            stub.stdout.close()
