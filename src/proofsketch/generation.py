"""The compared methods, their prompts and budgets, and generator backends.

Method is the one table of compared methods: three prompting baselines
(answer-only, a few reasoning lines, a long derivation), each with a
closing instruction and a completion budget, and the sketch pipeline.
Every prompt shares one layout: an opening line, the statements, the
question, then the method's instruction.

Everything the pipeline asks a text generator for goes through one
call, Generator.generate(request) -> response. Three backends implement
it:

    ScriptedGenerator  replays a fixed list of responses in order, starting
                       over after the last; golden tests
    OracleGenerator    derives sketches from the symbolic closure, with
                       seeded noise knobs for controlled degradation
    HttpGenerator      OpenAI-style chat-completions endpoint over HTTP

A backend that a run shares across questions (scripted, http) is safe for
concurrent calls. An oracle is one cursor per (method, record) pair, never
shared across threads; the cursors of one record share only its first
reply, through a dict that is safe for concurrent draws.
HttpGenerator keeps its http.client connections alive between calls and
reuses them, verifies https with the default SSL context, and reads no
proxy or .netrc settings. It adds no concurrency limit: the caller's
thread count is the one bound, on calls in flight and on open connections.

Token accounting for local backends is whitespace tokenization; the HTTP
backend trusts the endpoint's usage.completion_tokens when it is a
non-negative integer, and counts whitespace tokens otherwise.
Budgets are enforced on the gateway side: request_sketch truncates
over-length text at a token boundary and recounts, and returns that
clamped GenerationResponse, so the pipeline never sees a sketch above the
requested maximum.

Prompt text is frozen in module constants. Bump PROMPT_VERSION when
changing any of it so run configuration stamps stay comparable.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import threading
import time
from enum import Enum
from typing import Any, Hashable, Iterable, NamedTuple, Protocol, Sequence
from urllib.parse import urlsplit

from .closure import Closure, decide_from_closure, verified_literals
from .theory import Label, Question, Theory

PROMPT_VERSION = "1"

_TOKEN_RE = re.compile(r"\S+")


class Method(str, Enum):
    """The compared methods: three prompting baselines, then the pipeline."""

    ZERO_SHOT = "ZeroShot"
    SHORT_COT = "ShortCoT"
    LONG_COT = "LongCoT"
    PROOFSKETCH = "ProofSketch"


_PROMPT_TEMPLATE = """{opening}

STATEMENTS:
{theory}

QUESTION:
{question}

{instruction}
"""

_SKETCH_OPENING = "You are a careful logician working over a fixed set of statements."

_SKETCH_INSTRUCTION = """Reply with exactly one JSON object and nothing else, in this schema:
{"answer": "True|False|Unknown", "claims": ["<entity> is <attribute>", ...]}

Requirements:
- "answer" must be exactly one of True, False, Unknown.
- Each claim is one short sentence, "<entity> is <attribute>" or "<entity> is not <attribute>", using only entities and attributes that appear in the STATEMENTS.
- Give at most 3 claims, each about the entity named in the QUESTION."""

_BASELINE_OPENING = "Read the statements and answer the question."

_ANSWER_LINE = "then finish with a final line of the form:\nAnswer: True|False|Unknown"

_BASELINE_INSTRUCTIONS = {
    Method.ZERO_SHOT: "Respond with exactly one of True, False, Unknown and nothing else.",
    Method.SHORT_COT: f"Write at most 3 short reasoning lines, {_ANSWER_LINE}",
    Method.LONG_COT: "Work through the problem in up to 10 numbered steps, citing the "
                     f"statements you use, {_ANSWER_LINE}",
}

# Completion budgets for the baselines: answer-only, a few lines, room for
# a full derivation.
BASELINE_BUDGETS: dict[Method, int] = {
    Method.ZERO_SHOT: 16,
    Method.SHORT_COT: 128,
    Method.LONG_COT: 384,
}


class GeneratorError(Exception):
    """A backend failed to produce a completion.

    When raised out of the answering pipeline, calls_made and
    tokens_generated carry the partial accounting up to the failure.
    """

    def __init__(self, message: str, *, status_code: int | None = None) -> None:
        super().__init__(message)
        self.status_code = status_code
        self.calls_made: int | None = None
        self.tokens_generated: int | None = None


class GenerationTimeout(GeneratorError, TimeoutError):
    """The endpoint did not answer within the configured deadline."""


class _GenerationRequestFields(NamedTuple):
    prompt: str
    max_tokens: int
    temperature: float = 0.0


class GenerationRequest(_GenerationRequestFields):
    """One completion request. A max_tokens below 1 or a temperature that
    is not a finite non-negative number raises ValueError, however the
    request is built: _make, and so _replace, construct through __new__."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "GenerationRequest":
        request = super().__new__(cls, *args, **kwargs)
        if request.max_tokens < 1:
            raise ValueError("max_tokens must be at least 1")
        if not 0 <= request.temperature <= sys.float_info.max:
            raise ValueError("temperature must be a finite non-negative number")
        return request

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "GenerationRequest":
        return cls(*iterable)


class GenerationResponse(NamedTuple):
    text: str
    completion_tokens: int


class Generator(Protocol):
    """Minimal backend contract: one synchronous call.

    A backend that one run shares across questions must be safe for
    concurrent generate() calls; it guards its own state.
    """

    def generate(self, request: GenerationRequest) -> GenerationResponse: ...


def count_tokens(text: str) -> int:
    """Whitespace token count used by the local backends."""
    return len(text.split())


def truncate_to_tokens(text: str, max_tokens: int) -> str:
    """Cut text after its max_tokens-th whitespace token, keeping spacing."""
    for index, match in enumerate(_TOKEN_RE.finditer(text)):
        if index == max_tokens - 1:
            return text[: match.end()]
    return text


def _render_prompt(opening: str, theory: Theory, question: Question, instruction: str) -> str:
    theory_text = theory.source_text or theory.to_text()
    return _PROMPT_TEMPLATE.format(opening=opening, theory=theory_text.strip(),
                                   question=question.raw_text.strip(), instruction=instruction)


def build_sketch_prompt(theory: Theory, question: Question) -> str:
    return _render_prompt(_SKETCH_OPENING, theory, question, _SKETCH_INSTRUCTION)


def build_baseline_prompt(theory: Theory, question: Question, method: Method) -> str:
    return _render_prompt(_BASELINE_OPENING, theory, question, _BASELINE_INSTRUCTIONS[method])


def request_sketch(generator: Generator, prompt: str, max_tokens: int,
                   temperature: float) -> GenerationResponse:
    """One budgeted generator call, clamped so completion_tokens <= max_tokens."""
    response = generator.generate(
        GenerationRequest(prompt=prompt, max_tokens=max_tokens, temperature=temperature)
    )
    if response.completion_tokens <= max_tokens:
        return response
    text = truncate_to_tokens(response.text, max_tokens)
    return response._replace(text=text, completion_tokens=min(max_tokens, count_tokens(text)))


class ScriptedGenerator:
    """Replays a fixed response list: each call takes the next response,
    and the script starts again after the last. A run shares one instance
    across questions, so the cursor is guarded by a lock: concurrent calls
    each take one response, in an order the caller's threads decide.
    """

    def __init__(self, script: Sequence[str]) -> None:
        if not script:
            raise ValueError("script must contain at least one response")
        self._script = [str(item) for item in script]
        self._cursor = 0
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return self._cursor

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        with self._lock:
            position = self._cursor % len(self._script)
            self._cursor += 1
        text = self._script[position]
        return GenerationResponse(text=text, completion_tokens=count_tokens(text))


class _OracleNoiseFields(NamedTuple):
    flip_answer_prob: float = 0.0
    corrupt_claim_prob: float = 0.0
    malform_prob: float = 0.0


class OracleNoiseConfig(_OracleNoiseFields):
    """Corruption probabilities for the oracle; each OracleGenerator has its own seed.
    A probability outside [0, 1] raises ValueError, however the config is
    built: _make, and so _replace, construct through __new__."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "OracleNoiseConfig":
        noise = super().__new__(cls, *args, **kwargs)
        for name, value in zip(noise._fields, noise):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        return noise

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "OracleNoiseConfig":
        return cls(*iterable)


_MALFORMED_TEXT = "I am sorry, I could not produce a structured reply for this request."


class OracleGenerator:
    """Emits sketches read off the closure, degraded by seeded noise.

    At noise zero the sketch answers with the closure's verdict and lists
    the first 3 of the queried entity's verified_literals, so it is
    certifiable whenever any sketch could be. The noise draws happen in a
    fixed order per call (malform, answer flip, then one corruption draw
    per claim), so equal seeds give byte-identical output streams. The
    request is never read: the stream depends only on the closure, the
    question, the noise and the seed. The label and claims are read off
    the closure at the first draw, so an uncalled generator does no work.

    Generators whose streams are equal may share their first reply through
    first_replies, a dict that holds it under key; callers give equal keys
    only to equal (closure, question, noise, seed). The first generator of
    a key to draw stores its first reply there, and the others return it.
    One of those that asks for a second reply seeds its own RNG and replays
    the first draw, so the dict holds one reply per key and no RNG. Threads
    may share the dict: two that draw one key's first reply at once store
    equal replies, and setdefault keeps one. A generator itself is one
    cursor that no caller shares across threads, so its RNG needs no lock.
    """

    def __init__(self, closure: Closure, question: Question,
                 noise: OracleNoiseConfig | None = None, seed: int = 0, *,
                 first_replies: dict[Hashable, GenerationResponse] | None = None,
                 key: Hashable = None) -> None:
        self._closure = closure
        self._question = question
        self._noise = noise or OracleNoiseConfig()
        self._seed = seed
        self._first_replies = first_replies
        self._key = key
        self._drawn = 0  # replies returned, drawn here or shared
        self._rng: random.Random | None = None

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        self._drawn += 1
        shared = self._first_replies
        if self._drawn == 1 and shared is not None:
            reply = shared.get(self._key)
            return reply if reply is not None else shared.setdefault(self._key, self._draw())
        return self._draw()

    def _draw(self) -> GenerationResponse:
        if self._rng is None:
            closure, question = self._closure, self._question
            self._rng = random.Random(self._seed)
            self._label = decide_from_closure(closure, question)
            self._claims = tuple(verified_literals(closure, question.target.entity)[:3])
            for _ in range(self._drawn - 1):  # replay the replies shared with this one
                self._next_reply()
        return self._next_reply()

    def _next_reply(self) -> GenerationResponse:
        rng = self._rng
        noise = self._noise
        if rng.random() < noise.malform_prob:
            return GenerationResponse(
                text=_MALFORMED_TEXT, completion_tokens=count_tokens(_MALFORMED_TEXT)
            )
        answer = self._label.value
        if rng.random() < noise.flip_answer_prob:
            others = [label.value for label in Label if label is not self._label]
            answer = rng.choice(others)
        claims = []
        for literal in self._claims:
            emitted = literal.negated() if rng.random() < noise.corrupt_claim_prob else literal
            claims.append(emitted.to_text())
        text = json.dumps({"answer": answer, "claims": claims})
        return GenerationResponse(text=text, completion_tokens=count_tokens(text))


class EndpointError(ValueError):
    """An endpoint URL the HTTP backend cannot call."""


class HttpGenerator:
    """Chat-completions client for an OpenAI-compatible endpoint.

    It posts the prompt as one user message and reads the reply from
    choices[0].message.content only.

    Transport failures and 5xx responses are retried with exponential
    backoff plus jitter; 3xx and 4xx responses fail immediately. timeout_ms
    is one deadline per call, retries and backoff included: each attempt
    waits only for what is left of it, and a backoff sleep that would pass
    it ends the call at once with GenerationTimeout. The API key is read
    from the named environment variable at call time and never logged.

    Instances are safe to share across threads. Connections are kept alive
    and reused, the most recently idle first. A calling thread holds one
    connection at a time, so there are never more open connections than
    concurrent calls. A connection is closed after a timeout, a transport
    error or a reply that ends it; one the server closed while idle is
    replaced at once, without a backoff sleep and without counting as a
    retry. close() closes the idle connections.
    """

    def __init__(self, endpoint_url: str, model_name: str, *,
                 api_key_env: str = "PROOFSKETCH_API_KEY",
                 timeout_ms: float = 30000.0,
                 max_retries: int = 2,
                 backoff_base_s: float = 0.25,
                 backoff_jitter_s: float = 0.1) -> None:
        import http.client  # here, so that only the http backend loads it (and ssl)
        import logging  # likewise: only the http backend logs

        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0 < timeout_ms <= sys.float_info.max:
            raise ValueError("timeout_ms must be a finite positive number")
        # A socket timeout above the platform's largest wait overflows in settimeout.
        if timeout_ms / 1000.0 > threading.TIMEOUT_MAX:
            raise ValueError(f"timeout_ms must be at most {threading.TIMEOUT_MAX * 1000.0:.0f}")
        try:
            parts = urlsplit(endpoint_url)
            parts.port  # ValueError on a port that is not a number in range
        except ValueError:
            parts = None
        if (parts is None or parts.scheme not in ("http", "https") or not parts.hostname
                or "@" in parts.netloc or any(not " " < char < "\x7f" for char in endpoint_url)):
            # Name the endpoint, but never the password in a user:password@ part.
            shown = re.sub(r"(^|//)([^/?#:]*):[^/?#]*@", r"\1\2:***@", endpoint_url)
            raise EndpointError(f"endpoint {shown!r} must be an http(s) URL in printable "
                                "ASCII with a host and no user:password@ part")
        self._connection_class = (http.client.HTTPSConnection if parts.scheme == "https"
                                  else http.client.HTTPConnection)
        self._netloc = parts.netloc
        self._path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._model_name = model_name
        self._api_key_env = api_key_env
        self._timeout_s = timeout_ms / 1000.0
        self._max_retries = max_retries
        self._backoff_base_s = backoff_base_s
        self._backoff_jitter_s = backoff_jitter_s
        self._lock = threading.Lock()
        # Idle kept-alive connections, the one returned last on top.
        self._idle: list[http.client.HTTPConnection] = []
        self._logger = logging.getLogger(__name__)

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self._api_key_env, "")
        if any(not " " <= char <= "~" for char in api_key):
            # http.client cannot send it, and its error would show the key.
            raise GeneratorError(f"the API key in ${self._api_key_env} must be printable ASCII")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def _extract(self, data: dict) -> GenerationResponse:
        try:
            choice = data["choices"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise GeneratorError("completion payload has no choices") from exc
        message = choice.get("message") if isinstance(choice, dict) else None
        text = message.get("content") if isinstance(message, dict) else None
        if not isinstance(text, str):
            raise GeneratorError("completion payload has no text content")
        usage = data.get("usage")
        tokens = usage.get("completion_tokens") if isinstance(usage, dict) else None
        if not isinstance(tokens, int) or isinstance(tokens, bool) or tokens < 0:
            tokens = count_tokens(text)
        return GenerationResponse(text=text, completion_tokens=tokens)

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        import http.client  # loaded by __init__; this binds the name

        last_error: GeneratorError | None = None
        body = json.dumps({
            "model": self._model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "max_tokens": request.max_tokens,
            "temperature": request.temperature,
        }).encode("utf-8")
        headers = self._headers()
        deadline = time.perf_counter() + self._timeout_s
        overrun = f"no response within {self._timeout_s * 1000:.0f} ms"
        for attempt in range(self._max_retries + 1):
            if attempt:
                delay = self._backoff_base_s * (2 ** (attempt - 1))
                delay += random.uniform(0.0, self._backoff_jitter_s)
                if time.perf_counter() + delay >= deadline:
                    raise GenerationTimeout(
                        f"{overrun}; last attempt: {last_error}") from last_error
                time.sleep(delay)
            with self._lock:
                idle = self._idle.pop() if self._idle else None
            try:
                # None from a reused connection: the server closed it while idle.
                reply = idle and self._exchange(idle, body, headers, deadline, reused=True)
                status, data = reply or self._exchange(self._connection_class(self._netloc),
                                                       body, headers, deadline, reused=False)
            except TimeoutError as exc:
                raise GenerationTimeout(overrun) from exc
            except (OSError, http.client.HTTPException) as exc:
                last_error = GeneratorError(f"transport failure: {exc}")
                self._logger.debug("transport failure on attempt %d: %s", attempt + 1, exc)
                continue
            if status >= 500:
                last_error = GeneratorError(f"server error {status}", status_code=status)
                self._logger.debug("server error %d on attempt %d", status, attempt + 1)
                continue
            if status >= 300:
                raise GeneratorError(f"request rejected with status {status}", status_code=status)
            try:
                data = json.loads(data)
            except (ValueError, RecursionError) as exc:
                raise GeneratorError("completion payload is not JSON") from exc
            return self._extract(data)
        assert last_error is not None
        raise last_error

    def _exchange(self, connection: http.client.HTTPConnection, body: bytes,
                  headers: dict[str, str], deadline: float, *,
                  reused: bool) -> tuple[int, bytes] | None:
        """Send the request on connection and read the whole reply, within
        what is left of the deadline. The connection goes back on the idle
        stack after a whole reply that leaves it open, and is closed after
        anything else.

        Returns None when a reused connection fails before any reply byte
        arrives (RemoteDisconnected, a reset or a broken pipe): the server
        closed it while it was idle, and the caller sends again at once on
        a new connection.
        """
        pooled = False
        try:
            timeout = deadline - time.perf_counter()
            if timeout <= 0:
                raise TimeoutError
            connection.timeout = timeout  # read at connect
            if connection.sock is not None:
                connection.sock.settimeout(timeout)
            try:
                connection.request("POST", self._path, body, headers)
                response = connection.getresponse()
            except ConnectionError:
                if reused:
                    return None
                raise
            with response:
                status, data = response.status, response.read()
            pooled = not response.will_close
            return status, data
        finally:
            if pooled:
                with self._lock:
                    self._idle.append(connection)
            else:
                connection.close()

    def close(self) -> None:
        """Close the idle connections. A call made later opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()
