"""Span tracing around the package's layer entry points, from outside it.

The traced run wraps each layer's public entry points at every place the
package binds them: the defining module and every other proofsketch
module that imported the function by name (selector.forward_chain,
generation.forward_chain, harness.parse_theory_nl, ...), so intra- and
cross-module calls are both seen. Methods are wrapped on their class.
Nothing under src/ changes, and the wrappers are removed after the run.

Each call becomes a Span with its parent: the innermost traced call on
the same thread, or, for a worker thread with nothing open, the innermost
call open on the main thread (the evaluate() that submitted the work).
Self time is a span's duration minus the part of it its children cover.

An entry point that cannot be found is reported as missing, and so is
every metric that needs it; a metric that the workload does not exercise
(HTTP transport on an oracle workload) is reported as not applicable.
Neither is ever reported as a measured zero in the table or result file.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

Inspect = Callable[[tuple, Any], dict]


def _generate_info(args: tuple, result: Any) -> dict:
    request = args[1] if len(args) > 1 else None
    return {"max_tokens": request.max_tokens, "tokens": result.completion_tokens}


def _sketch_info(args: tuple, result: Any) -> dict:
    return {"status": result.parse_status.value, "dropped": result.dropped_claims}


def _pipeline_info(args: tuple, result: Any) -> dict:
    return {"source": result.answer_source.value}


def _score_info(args: tuple, result: Any) -> dict:
    return {"cert": result.score.cert}


# (span name, defining module, attribute or Class.method, result inspector)
ENTRY_POINTS: tuple[tuple[str, str, str, Inspect | None], ...] = (
    ("cli.main", "proofsketch.cli", "main", None),
    ("harness.load_dataset", "proofsketch.harness", "load_dataset", None),
    ("harness.evaluate", "proofsketch.harness", "evaluate", None),
    ("harness.run_proofsketch", "proofsketch.harness", "run_proofsketch", None),
    ("harness.run_baseline", "proofsketch.harness", "run_baseline", None),
    ("harness.extract_label", "proofsketch.harness", "extract_label", None),
    ("harness.compute_metrics", "proofsketch.harness", "compute_metrics", None),
    ("harness.write_run", "proofsketch.harness", "write_run", None),
    ("theory.parse_theory_nl", "proofsketch.theory", "parse_theory_nl", None),
    ("closure.forward_chain", "proofsketch.closure", "forward_chain", None),
    ("generation.build_sketch_prompt", "proofsketch.generation", "build_sketch_prompt", None),
    ("generation.build_baseline_prompt", "proofsketch.generation", "build_baseline_prompt", None),
    ("generation.OracleGenerator.__init__", "proofsketch.generation",
     "OracleGenerator.__init__", None),
    ("generation.OracleGenerator.generate", "proofsketch.generation",
     "OracleGenerator.generate", _generate_info),
    ("generation.HttpGenerator.generate", "proofsketch.generation",
     "HttpGenerator.generate", _generate_info),
    ("sketch.parse_sketch", "proofsketch.sketch", "parse_sketch", _sketch_info),
    ("sketch.canonicalize_claim", "proofsketch.sketch", "canonicalize_claim", None),
    ("selector.run_pipeline", "proofsketch.selector", "run_pipeline", _pipeline_info),
    ("selector.score_sketch", "proofsketch.selector", "score_sketch", _score_info),
)


class Span:
    __slots__ = ("name", "parent", "phase", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None", phase: str | None) -> None:
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = 0.0
        self.end = 0.0
        self.info: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def within(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


class Tracer:
    """Installs the wrappers, records spans in memory, restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase: str | None = None
        self.sites: dict[str, list[str]] = {}
        self.missing: dict[str, str] = {}
        self._main_thread = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, inspect: Inspect | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is None and stack is not tracer._main_stack:
                try:
                    parent = tracer._main_stack[-1]
                except IndexError:
                    parent = None
            span = Span(name, parent, tracer.phase)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if inspect is not None:
                try:
                    span.info = inspect(args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    span.info = None
            return result

        return traced

    def install(self) -> None:
        for name, module_name, attribute, inspect in ENTRY_POINTS:
            try:
                home = importlib.import_module(module_name)
            except ImportError:
                self.missing[name] = f"module {module_name} not found"
                continue
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(member)
                if original is None:
                    self.missing[name] = f"{module_name}.{attribute} not found"
                    continue
                self._patch(owner, member, self._wrap(name, original, inspect))
                self.sites[name] = [f"{home.__name__.rsplit('.', 1)[-1]}.{attribute}"]
                continue
            original = getattr(home, member, None)
            if not callable(original):
                self.missing[name] = f"{module_name}.{attribute} not found"
                continue
            traced = self._wrap(name, original, inspect)
            sites = []
            for module_key, module in sorted(sys.modules.items()):
                if module is None or module_key.split(".")[0] != "proofsketch":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
                        sites.append(f"{module_key.rsplit('.', 1)[-1]}.{key}")
            self.sites[name] = sites

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def self_ms(span: Span, children: list[Span]) -> float:
    """Duration minus the union of the children's intervals inside it."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, cursor), min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return (span.end - span.start - covered) * 1000.0


@dataclass
class PhaseView:
    """Spans of one phase grouped by name, with self times on demand."""

    spans: list[Span]
    by_name: dict[str, list[Span]] = field(init=False)
    children: dict[int, list[Span]] = field(init=False)

    def __post_init__(self) -> None:
        self.by_name = {}
        self.children = {}
        for span in self.spans:
            self.by_name.setdefault(span.name, []).append(span)
            if span.parent is not None:
                self.children.setdefault(id(span.parent), []).append(span)

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total_ms(self, name: str) -> float:
        return sum(span.ms for span in self.by_name.get(name, ()))

    def self_total_ms(self, name: str) -> float:
        return sum(self_ms(span, self.children.get(id(span), []))
                   for span in self.by_name.get(name, ()))

    def infos(self, name: str) -> list[dict | None]:
        return [span.info for span in self.by_name.get(name, ())]


# ---------------------------------------------------------------------------
# Per-layer metrics


@dataclass
class LayerContext:
    """What the per-layer formulas need besides the spans."""

    eval_questions: int
    eval_runs: int
    backend: str
    method: str
    service_delay_ms: float
    stub_connections: int | None
    stub_requests: int | None
    scaling_ms: dict[str, float]
    overhead_share: float


NA = "n/a"
MISSING = "missing"

HTTP_GENERATE = "generation.HttpGenerator.generate"
GENERATE = ("generation.OracleGenerator.generate", HTTP_GENERATE)
GENERATE_ENTRY = "generate"  # stands for the generate() of the workload's backend
SOURCES = ("ClosureShortCircuit", "CertifiedSketch", "BestSketch", "ClosureCorrection")
SCALING_SIZES = ((50, 200), (200, 800), (1000, 2000))


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]  # entry points it reads
    moves: str  # the end-to-end metric, and workload, it should move


_m = LayerMetric


PARSE, CLOSE = ("theory.parse_theory_nl",), ("closure.forward_chain",)
SKETCH, PIPELINE = ("sketch.parse_sketch",), ("selector.run_pipeline",)
ON_SHARED, ON_HTTP = "on shared-small", "on http-undecided"
# unique-large is not gated (see corpus.WORKLOADS); where it shows a layer
# best, the gated workload that also runs the layer is named first.
ON_UNIQUE = "on shared-small, most on unique-large"

LAYER_METRICS: tuple[LayerMetric, ...] = (
    _m("theory.parse_calls_per_question", "count", "lower", PARSE,
       f"eval_answers_per_s {ON_SHARED}"),
    _m("theory.parse_ms_per_question", "ms", "lower", PARSE, f"eval_answers_per_s {ON_SHARED}"),
    _m("theory.load_parse_ms_per_question", "ms", "lower", PARSE + ("harness.load_dataset",),
       "setup_s"),
    _m("closure.calls_per_question", "count", "lower", CLOSE, f"eval_answers_per_s {ON_SHARED}"),
    _m("closure.ms_per_call", "ms", "lower", CLOSE,
       f"eval_answers_per_s and answer_ms_p90 {ON_UNIQUE}"),
    *(_m(f"closure.ms_at_{e}x{r}", "ms", "lower", CLOSE, f"closure work {ON_UNIQUE}")
      for e, r in SCALING_SIZES),
    _m("closure.short_circuit_share", "share", "higher", PIPELINE,
       "generator_calls_per_answer and tokens_per_answer"),
    _m("generation.prompt_ms_per_question", "ms", "lower",
       ("generation.build_sketch_prompt", "generation.build_baseline_prompt"),
       f"eval_answers_per_s {ON_SHARED}"),
    _m("generation.generate_ms_per_call", "ms", "lower", (GENERATE_ENTRY,),
       f"answer_ms_p50 {ON_HTTP}"),
    _m("generation.transport_ms_per_call", "ms", "lower", (HTTP_GENERATE,),
       f"answer_ms_p50 {ON_HTTP}"),
    _m("generation.connections_per_call", "count", "lower", (), f"answer_ms_p50 {ON_HTTP}"),
    _m("generation.http_attempts_per_call", "count", "lower", (HTTP_GENERATE,),
       f"failed answers and answer_ms_p90 {ON_HTTP}"),
    _m("generation.truncated_share", "share", "lower", (GENERATE_ENTRY,),
       f"tokens_per_answer {ON_HTTP}"),
    _m("sketch.parse_ms_per_sketch", "ms", "lower", SKETCH, f"eval_answers_per_s {ON_SHARED}"),
    _m("sketch.canonicalize_ms_per_claim", "ms", "lower", ("sketch.canonicalize_claim",),
       f"eval_answers_per_s {ON_UNIQUE}"),
    _m("sketch.clean_share", "share", "higher", SKETCH, "accuracy and cert_rate"),
    _m("sketch.repaired_share", "share", "lower", SKETCH, "accuracy and cert_rate"),
    _m("sketch.failed_share", "share", "lower", SKETCH,
       "accuracy, cert_rate and generator_calls_per_answer"),
    _m("sketch.dropped_claims_per_sketch", "count", "lower", SKETCH,
       "accuracy, cert_rate and generator_calls_per_answer"),
    _m("selector.self_ms_per_question", "ms", "lower", PIPELINE,
       f"eval_answers_per_s {ON_UNIQUE}"),
    _m("selector.verify_ms_per_sketch", "ms", "lower", ("selector.score_sketch",),
       f"eval_answers_per_s {ON_UNIQUE}"),
    _m("selector.certified_sketch_share", "share", "higher", ("selector.score_sketch",),
       f"generator_calls_per_answer and tokens_per_answer {ON_HTTP}"),
    *(_m(f"selector.source.{source}", "share", better, PIPELINE,
         "accuracy, cert_rate and tokens_per_answer")
      for source, better in zip(SOURCES, ("higher", "higher", "lower", "lower"))),
    _m("harness.load_ms_per_question", "ms", "lower", ("harness.load_dataset",), "setup_s"),
    _m("harness.evaluate_self_ms_per_question", "ms", "lower", ("harness.evaluate",),
       f"eval_answers_per_s {ON_HTTP}"),
    _m("harness.extract_label_ms_per_call", "ms", "lower", ("harness.extract_label",),
       f"eval_answers_per_s {ON_SHARED}"),
    _m("harness.metrics_write_ms_per_run", "ms", "lower",
       ("harness.compute_metrics", "harness.write_run"), f"eval_answers_per_s {ON_SHARED}"),
    _m("cli.self_ms_per_command", "ms", "lower", ("cli.main",), f"answer_ms_p50 {ON_SHARED}"),
    _m("trace.overhead_share", "share", "lower", (), "nothing: the cost of tracing itself"),
)


def _share(values: list, predicate: Callable[[Any], bool]) -> float | str:
    if any(v is None for v in values):
        return MISSING
    return sum(1 for v in values if predicate(v)) / len(values) if values else NA


def layer_metrics(tracer: Tracer, ctx: LayerContext) -> dict[str, float | str]:
    """Every per-layer metric: a number, NA or MISSING."""
    ev = PhaseView([s for s in tracer.spans if s.phase == "eval"])
    ans = PhaseView([s for s in tracer.spans if s.phase == "answer"])
    q = ctx.eval_questions
    http = ctx.backend == "http"

    def per(total: float, count: int) -> float | str:
        return total / count if count else NA

    generate_calls = sum(ev.count(name) for name in GENERATE)
    generate_infos = [i for name in GENERATE for i in ev.infos(name)]
    sketch_infos = ev.infos("sketch.parse_sketch")
    sources = [None if i is None else i["source"] for i in ev.infos("selector.run_pipeline")]
    http_calls = ev.count(HTTP_GENERATE)
    load_parse = sum(s.ms for s in ev.by_name.get("theory.parse_theory_nl", ())
                     if s.within("harness.load_dataset"))

    formulas: dict[str, Callable[[], float | str]] = {
        "theory.parse_calls_per_question": lambda: ev.count("theory.parse_theory_nl") / q,
        "theory.parse_ms_per_question": lambda: ev.total_ms("theory.parse_theory_nl") / q,
        "theory.load_parse_ms_per_question": lambda: load_parse / q,
        "closure.calls_per_question": lambda: ev.count("closure.forward_chain") / q,
        "closure.ms_per_call": lambda: per(ev.total_ms("closure.forward_chain"),
                                           ev.count("closure.forward_chain")),
        "closure.short_circuit_share": lambda: _share(sources, lambda s: s == SOURCES[0]),
        "generation.prompt_ms_per_question": lambda: (
            ev.total_ms("generation.build_sketch_prompt")
            + ev.total_ms("generation.build_baseline_prompt")) / q,
        "generation.generate_ms_per_call": lambda: per(
            sum(ev.total_ms(name) for name in GENERATE), generate_calls),
        "generation.transport_ms_per_call": lambda: (
            ev.total_ms(HTTP_GENERATE) / http_calls - ctx.service_delay_ms
            if http and http_calls else NA),
        "generation.connections_per_call": lambda: (
            ctx.stub_connections / ctx.stub_requests if http and ctx.stub_requests else NA),
        "generation.http_attempts_per_call": lambda: (
            ctx.stub_requests / http_calls if http and http_calls else NA),
        "generation.truncated_share": lambda: _share(
            generate_infos, lambda i: i["tokens"] > i["max_tokens"]),
        "sketch.parse_ms_per_sketch": lambda: per(ev.total_ms("sketch.parse_sketch"),
                                                  ev.count("sketch.parse_sketch")),
        "sketch.canonicalize_ms_per_claim": lambda: per(ev.total_ms("sketch.canonicalize_claim"),
                                                        ev.count("sketch.canonicalize_claim")),
        "sketch.clean_share": lambda: _share(sketch_infos, lambda i: i["status"] == "Clean"),
        "sketch.repaired_share": lambda: _share(sketch_infos, lambda i: i["status"] == "Repaired"),
        "sketch.failed_share": lambda: _share(sketch_infos, lambda i: i["status"] == "Failed"),
        "sketch.dropped_claims_per_sketch": lambda: (
            MISSING if None in sketch_infos
            else per(sum(i["dropped"] for i in sketch_infos), len(sketch_infos))),
        "selector.self_ms_per_question": lambda: per(ev.self_total_ms("selector.run_pipeline"),
                                                     ev.count("selector.run_pipeline")),
        "selector.verify_ms_per_sketch": lambda: per(ev.total_ms("selector.score_sketch"),
                                                     ev.count("selector.score_sketch")),
        "selector.certified_sketch_share": lambda: _share(
            ev.infos("selector.score_sketch"), lambda i: i["cert"] == 1),
        **{f"selector.source.{source}": (lambda source=source: _share(
            sources, lambda s: s == source)) for source in SOURCES},
        "harness.load_ms_per_question": lambda: ev.total_ms("harness.load_dataset") / q,
        "harness.evaluate_self_ms_per_question": lambda: ev.self_total_ms("harness.evaluate") / q,
        "harness.extract_label_ms_per_call": lambda: (
            NA if ctx.method != "all" else per(ev.total_ms("harness.extract_label"),
                                               ev.count("harness.extract_label"))),
        "harness.metrics_write_ms_per_run": lambda: (
            ev.total_ms("harness.compute_metrics") + ev.total_ms("harness.write_run"))
        / ctx.eval_runs,
        "cli.self_ms_per_command": lambda: per(ans.self_total_ms("cli.main"),
                                               ans.count("cli.main")),
        "trace.overhead_share": lambda: ctx.overhead_share,
    }
    for e, r in SCALING_SIZES:
        key = f"closure.ms_at_{e}x{r}"
        formulas[key] = lambda key=key: ctx.scaling_ms.get(key, MISSING)

    backend_generate = HTTP_GENERATE if http else GENERATE[0]
    out: dict[str, float | str] = {}
    for metric in LAYER_METRICS:
        needs = (backend_generate if entry == GENERATE_ENTRY else entry for entry in metric.needs)
        if any(entry in tracer.missing for entry in needs):
            out[metric.name] = MISSING
        else:
            out[metric.name] = formulas[metric.name]()
    return out
