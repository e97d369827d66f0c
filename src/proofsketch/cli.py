"""Command-line front end: closure, answer, eval, ablate, report."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import zlib
from dataclasses import asdict, fields as dataclass_fields
from pathlib import Path
from typing import Callable, Hashable, Iterator

from .closure import Closure, forward_chain
from .generation import (PROMPT_VERSION, BASELINE_BUDGETS, EndpointError, GenerationResponse,
                         Generator, GeneratorError, HttpGenerator, Method, OracleGenerator,
                         OracleNoiseConfig, ScriptedGenerator)
from .harness import (EmptyDatasetError, MetricsReport, ablation_csv, compute_metrics,
                      emit_report, evaluate, load_dataset, run_ablation, write_run)
from .selector import PipelineConfig, run_pipeline
from .theory import (InconsistentFactsError, ParseError, Polarity, Question, SchemaError,
                     parse_question, parse_theory_nl, parse_theory_structured)

_METHOD_CHOICES = {
    "zero": [Method.ZERO_SHOT],
    "short": [Method.SHORT_COT],
    "long": [Method.LONG_COT],
    "sketch": [Method.PROOFSKETCH],
    "all": list(Method),
}

_PIPELINE_KEYS = {f.name for f in dataclass_fields(PipelineConfig)}
# The --config keys passed to HttpGenerator as they are; its signature
# holds their defaults.
_HTTP_KEYS = {"api_key_env", "timeout_ms", "max_retries"}

# Every --config key (the PipelineConfig fields and _HTTP_KEYS) with its accepted
# JSON types. bool is an int subclass in Python, so it passes only where it is listed.
_CONFIG_TYPES: dict[str, tuple[tuple[type, ...], str]] = {
    **dict.fromkeys(("max_sketches", "budget_anchored", "budget_unanchored", "max_retries"),
                    ((int,), "an integer")),
    "fixed_budget": ((int, type(None)), "an integer or null"),
    **dict.fromkeys(("temperature", "timeout_ms"), ((int, float), "a number")),
    **dict.fromkeys(("certify_unknown_from_closure", "closure_short_circuit"),
                    ((bool,), "a boolean")),
    "api_key_env": ((str,), "a string"),
}


# How many theory texts `answer` keeps the closure of, dropping the least
# recently used: a process that answers several questions about one
# theory parses and closes it once.
_CLOSURE_CACHE_SIZE = 8

# The largest --workers: the thread pool starts a thread for each pair
# submitted, up to this many, so an unbounded value could start thousands.
_MAX_WORKERS = 64


class UsageError(Exception):
    """A command-line argument or config value the command cannot run with."""


# Bad input from the user: one stderr line and exit status 2.
_USER_ERRORS = (UsageError, OSError, ParseError, SchemaError, InconsistentFactsError,
                EmptyDatasetError, GeneratorError)


def _read_text(path: str | Path) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not valid UTF-8 (byte {exc.start})") from exc


@contextlib.contextmanager
def _json_errors(path: str | Path) -> Iterator[None]:
    """Turn a JSON decoding failure inside the block into a UsageError naming path."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise UsageError(f"{path}: invalid JSON: nested too deeply") from exc


def _read_json(path: str | Path):
    text = _read_text(path)
    with _json_errors(path):
        return json.loads(text)


def _parse_theory(text: str, structured: bool):
    return parse_theory_structured(json.loads(text)) if structured else parse_theory_nl(text)


def _load_theory_file(path: str):
    text = _read_text(path)
    with _json_errors(path):
        return _parse_theory(text, path.endswith(".json"))


@functools.lru_cache(maxsize=_CLOSURE_CACHE_SIZE)
def _closure_of(text: str, structured: bool) -> Closure:
    """The closure of a theory file's text, for `answer`. A Closure is
    read-only, so every answer about the same text may share one; a text
    that fails to parse raises on every call, as nothing is cached then."""
    return forward_chain(_parse_theory(text, structured))


def _load_closure(path: str) -> Closure:
    text = _read_text(path)
    with _json_errors(path):
        return _closure_of(text, path.endswith(".json"))


# PipelineConfig is frozen, so every command without --config shares one.
_DEFAULT_CONFIG = PipelineConfig()

# JSONEncoder.encode keeps nothing between calls, so commands share one.
_INDENTED_JSON = json.JSONEncoder(indent=2)


def _load_config(path: str | None) -> tuple[dict, PipelineConfig]:
    """The --config document, type-checked, and the PipelineConfig it sets."""
    if not path:
        return {}, _DEFAULT_CONFIG
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_TYPES))
    if unknown:
        raise UsageError(f"config file has unknown key(s): {', '.join(unknown)}")
    for key, value in doc.items():
        types, described = _CONFIG_TYPES[key]
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise SchemaError(f"config key {key!r} must be {described}")
        # Also rejects NaN, and integers too large for a float.
        if float in types and not abs(value) <= sys.float_info.max:
            raise SchemaError(f"config key {key!r} must be a finite number")
    try:
        return doc, PipelineConfig(**{key: doc[key] for key in doc.keys() & _PIPELINE_KEYS})
    except ValueError as exc:
        raise UsageError(f"config file: {exc}") from exc


def _record_seed(base_seed: int, record_id: str) -> int:
    # Stable per-record stream: replayable across runs and worker counts.
    return (base_seed * 1_000_003) ^ zlib.crc32(record_id.encode("utf-8"))


GeneratorMaker = Callable[[Closure, Question, int, Hashable], Generator]


@contextlib.contextmanager
def _generator_for(args: argparse.Namespace, config_doc: dict) -> Iterator[GeneratorMaker]:
    """The --backend generator for (closure, question, oracle seed, record
    id). The scripted and http backends are one instance shared by every
    question; the http one closes its connections when the command is done.
    The oracle backend is one cursor per call, and the cursors of one
    record id share its first reply for the life of the command."""
    if args.backend == "scripted":
        if not args.script:
            raise UsageError("--backend scripted requires --script <file>")
        script = _read_json(args.script)
        if not isinstance(script, list) or not all(isinstance(s, str) for s in script):
            raise UsageError("script file must hold a JSON array of strings")
        shared = ScriptedGenerator(script, strict=False)
    elif args.backend == "http":
        if not args.endpoint or not args.model:
            raise UsageError("--backend http requires --endpoint and --model")
        try:
            settings = {key: config_doc[key] for key in config_doc.keys() & _HTTP_KEYS}
            shared = HttpGenerator(args.endpoint, args.model, **settings)
        except ValueError as exc:  # an EndpointError names the --endpoint value
            prefix = "" if isinstance(exc, EndpointError) else "config file: "
            raise UsageError(f"{prefix}{exc}") from exc
    else:
        try:  # one noise config per command; each record brings its own seed
            noise = OracleNoiseConfig(args.flip, args.corrupt, args.malform)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        # A record's stream depends only on its closure, question and seed,
        # which its id fixes within one command.
        first_replies: dict[Hashable, GenerationResponse] = {}

        def make_oracle(closure: Closure, question: Question, seed: int,
                        record_id: Hashable) -> Generator:
            return OracleGenerator(closure, question, noise, seed,
                                   first_replies=first_replies, key=record_id)

        yield make_oracle
        return
    try:
        yield lambda closure, question, seed, record_id: shared
    finally:
        if isinstance(shared, HttpGenerator):
            shared.close()


def _per_record(args: argparse.Namespace, make: GeneratorMaker):
    return lambda record: make(record.closure, record.question,
                               _record_seed(args.seed, record.record_id), record.record_id)


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=["scripted", "oracle", "http"], default="oracle")
    parser.add_argument("--script", help="JSON array of canned responses (scripted backend)")
    parser.add_argument("--endpoint", help="chat-completions URL (http backend)")
    parser.add_argument("--model", help="model name (http backend)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--flip", type=float, default=0.0, help="oracle answer-flip probability")
    parser.add_argument("--corrupt", type=float, default=0.0, help="oracle claim-corruption probability")
    parser.add_argument("--malform", type=float, default=0.0, help="oracle malformed-output probability")
    parser.add_argument("--config", help="JSON file with pipeline and http settings")


def _cmd_closure(args: argparse.Namespace) -> int:
    theory = _load_theory_file(args.theory_file)
    closure = forward_chain(theory)
    # Polarity is a str enum, so "negative" sorts before "positive".
    literals = [
        {
            "entity": entity,
            "attribute": attribute,
            "negated": polarity is Polarity.NEGATIVE,
            "depth": depth,
        }
        for entity, pairs in sorted(closure.table.items())
        for (attribute, polarity), depth in sorted(pairs.items())
    ]
    print(_INDENTED_JSON.encode({"literals": literals, "contradictory": closure.contradictory}))
    return 0


def _cmd_answer(args: argparse.Namespace) -> int:
    config_doc, config = _load_config(args.config)
    closure = _load_closure(args.theory_file)
    question = parse_question(args.question)
    with _generator_for(args, config_doc) as make:
        result = run_pipeline(closure, question, config,
                              make(closure, question, args.seed, None))
    print(_INDENTED_JSON.encode(result.to_json_dict()))
    return 0


def _config_stamp(args: argparse.Namespace, config: PipelineConfig,
                  methods: list[Method]) -> dict:
    return {
        "prompt_version": PROMPT_VERSION,
        "backend": args.backend,
        "seed": args.seed,
        "workers": getattr(args, "workers", 1),
        "methods": [m.value for m in methods],
        "baseline_budgets": {method.value: budget for method, budget in BASELINE_BUDGETS.items()},
        "pipeline": {**asdict(config), "adaptive_budget": config.adaptive_budget},
        "noise": {"flip": args.flip, "corrupt": args.corrupt, "malform": args.malform},
    }


def _cmd_eval(args: argparse.Namespace) -> int:
    config_doc, config = _load_config(args.config)
    methods = _METHOD_CHOICES[args.method]
    loaded = load_dataset(args.dataset)
    with _generator_for(args, config_doc) as make:
        results = evaluate(loaded.records, methods, config, _per_record(args, make),
                           workers=args.workers)
    report = compute_metrics(results)
    if args.out:
        write_run(
            args.out,
            config_stamp=_config_stamp(args, config, methods),
            eval_records=results,
            report=report,
            rejects=loaded.rejects,
        )
        print(f"run written to {args.out}", file=sys.stderr)
    print(emit_report(report, "md"))
    if loaded.rejects:
        print(f"rejected {len(loaded.rejects)} line(s)", file=sys.stderr)
    return 0


def _parse_budgets(spec: str) -> list[int]:
    parts = spec.split(":") if ":" in spec else [p for p in spec.split(",") if p.strip()]
    if not parts or not all(part.strip().isdecimal() and int(part) > 0 for part in parts):
        raise UsageError("--budgets expects one or more positive integers")
    if ":" not in spec:
        return [int(part) for part in parts]
    if len(parts) != 3:
        raise UsageError("--budgets expects start:stop:step or a comma list")
    start, stop, step = (int(part) for part in parts)
    if stop < start:
        raise UsageError("--budgets range must be increasing with a positive step")
    return list(range(start, stop + 1, step))


def _cmd_ablate(args: argparse.Namespace) -> int:
    config_doc, config = _load_config(args.config)
    budgets = _parse_budgets(args.budgets)
    loaded = load_dataset(args.dataset)
    with _generator_for(args, config_doc) as make:
        rows = run_ablation(loaded.records, budgets, config, _per_record(args, make),
                            workers=args.workers)
    csv_text = ablation_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(f"ablation written to {args.out}", file=sys.stderr)
    else:
        print(csv_text, end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    doc = _read_json(Path(args.run_dir) / "metrics.json")
    report = MetricsReport.from_json_dict(doc)
    print(emit_report(report, args.format), end="")
    return 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by command name,
    built on first use and shared by every main() call in the process.
    Parsing only reads them, so threads may share them."""
    parser = argparse.ArgumentParser(
        prog="proofsketch",
        description="Verification-guided question answering over unary logical theories",
    )
    # main() never reads args.command; dest names it in the missing-command error.
    commands = parser.add_subparsers(dest="command", required=True)

    closure_cmd = commands.add_parser("closure", help="print a theory's closure as JSON")
    closure_cmd.add_argument("theory_file")
    closure_cmd.set_defaults(handler=_cmd_closure)

    answer_cmd = commands.add_parser("answer", help="answer one question against a theory")
    answer_cmd.add_argument("theory_file")
    answer_cmd.add_argument("--question", required=True)
    _add_backend_arguments(answer_cmd)
    answer_cmd.set_defaults(handler=_cmd_answer)

    eval_cmd = commands.add_parser("eval", help="evaluate methods over a JSONL dataset")
    eval_cmd.add_argument("dataset")
    eval_cmd.add_argument("--method", choices=sorted(_METHOD_CHOICES), default="all")
    eval_cmd.add_argument("--workers", type=int, default=1)
    eval_cmd.add_argument("--out", help="run directory to write")
    _add_backend_arguments(eval_cmd)
    eval_cmd.set_defaults(handler=_cmd_eval)

    ablate_cmd = commands.add_parser("ablate", help="sweep sketch budgets over a dataset")
    ablate_cmd.add_argument("dataset")
    ablate_cmd.add_argument("--budgets", default="120:220:20")
    ablate_cmd.add_argument("--workers", type=int, default=1)
    ablate_cmd.add_argument("--out", help="CSV file to write")
    _add_backend_arguments(ablate_cmd)
    ablate_cmd.set_defaults(handler=_cmd_ablate)

    report_cmd = commands.add_parser("report", help="re-render a run's metrics")
    report_cmd.add_argument("run_dir")
    report_cmd.add_argument("--format", choices=["md", "csv", "json"], default="md")
    report_cmd.set_defaults(handler=_cmd_report)

    return parser, commands.choices


def build_parser() -> argparse.ArgumentParser:
    """The top-level command-line parser, built once per process and shared,
    like each command's parser, by every main() call. main() runs it only
    when argv names no command, for the help text or the usage error."""
    return _parsers()[0]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line once, by the parser of the command it starts
    with; the top-level parser sees only a line that names no command."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    return command.parse_args(argv[1:]) if command else parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit status. Each command line is
    parsed once, by its command's parser; an argument error prints the usage
    of the command it belongs to and exits with status 2."""
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if not 1 <= getattr(args, "workers", 1) <= _MAX_WORKERS:
            raise UsageError(f"--workers must be between 1 and {_MAX_WORKERS}")
        status = args.handler(args)
        # Flush here, so that a closed stdout fails inside this try and not at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away (`| head`): exit 1 quietly, as Python's signal
        # docs advise, with stdout on devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _USER_ERRORS as exc:
        message = " ".join(str(exc).split())
        print(f"proofsketch: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
