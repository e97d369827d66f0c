"""Command-line front end: closure, answer, eval, ablate, report.

Each handler imports the modules only it needs: eval, ablate and report
import harness, and answer, eval and ablate the generation stack
(generation, selector, sketch). So closure loads neither, and answer
never loads harness.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .closure import Closure, forward_chain
from .dataset import EmptyDatasetError, load_dataset
from .theory import (InconsistentFactsError, ParseError, Polarity, Question, SchemaError,
                     parse_question, parse_theory_nl, parse_theory_structured)

if TYPE_CHECKING:
    from .generation import GenerationResponse, Generator, Method
    from .selector import PipelineConfig

# The --method choices, each with the name of the Method it runs; "all" runs every Method.
_METHOD_CHOICES = {
    "zero": "ZERO_SHOT",
    "short": "SHORT_COT",
    "long": "LONG_COT",
    "sketch": "PROOFSKETCH",
    "all": None,
}

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

# The most budgets one ablate sweeps; each is a full eval.
_MAX_BUDGETS = 1000

# The largest --workers: the thread pool starts a thread for each pair
# submitted, up to this many, so an unbounded value could start thousands.
_MAX_WORKERS = 64


class UsageError(Exception):
    """A command-line argument or config value the command cannot run with,
    or a generator call that failed, such as a request the endpoint rejected;
    the message is the generator's own."""


# Bad input from the user: one stderr line and exit status 2. A
# GeneratorError arrives as a UsageError (see _generator_for), so closure
# need not load generation to catch it.
_USER_ERRORS = (UsageError, OSError, ParseError, SchemaError, InconsistentFactsError,
                EmptyDatasetError)


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


@functools.lru_cache(maxsize=_CLOSURE_CACHE_SIZE)
def _closure_of(text: str, structured: bool) -> Closure:
    """The closure of a theory file's text, for `answer` and `closure`. A
    Closure is read-only, so every command about the same text may share
    one; a text that fails to parse raises on every call, as nothing is
    cached then."""
    theory = parse_theory_structured(json.loads(text)) if structured else parse_theory_nl(text)
    return forward_chain(theory)


def _load_closure(path: str) -> Closure:
    text = _read_text(path)
    with _json_errors(path):
        return _closure_of(text, path.endswith(".json"))


# JSONEncoder.encode keeps nothing between calls, so commands share one.
_INDENTED_JSON = json.JSONEncoder(indent=2)


def _load_config(path: str | None) -> tuple[PipelineConfig, dict]:
    """The PipelineConfig the --config document sets, and the HttpGenerator
    settings it holds, each key type-checked."""
    from .selector import PipelineConfig

    if not path:
        return PipelineConfig(), {}
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
    pipeline = {key: doc[key] for key in doc.keys() & PipelineConfig._fields}
    try:
        config = PipelineConfig(**pipeline)
    except ValueError as exc:
        raise UsageError(f"config file: {exc}") from exc
    return config, {key: doc[key] for key in doc.keys() & _HTTP_KEYS}


def _record_seed(base_seed: int, record_id: str) -> int:
    # Stable per-record stream: replayable across runs and worker counts.
    return (base_seed * 1_000_003) ^ zlib.crc32(record_id.encode("utf-8"))


@contextlib.contextmanager
def _generator_for(args: argparse.Namespace,
                   http_settings: dict) -> Iterator[Callable[..., Generator]]:
    """Yield make(closure, question, record_id=None), the --backend generator
    for one question of the command. Scripted and http make one instance for
    every question; http closes its connections when the command ends. The
    oracle makes a cursor per call, seeded by --seed without a record id
    (`answer` passes none) and by _record_seed(--seed, record_id) with one.
    Within a command the id fixes closure, question and seed, so it keys the
    record's first reply, shared by its cursors. A GeneratorError raised in
    the block leaves it as a UsageError with the same message."""
    from .generation import (EndpointError, GeneratorError, HttpGenerator, OracleGenerator,
                             OracleNoiseConfig, ScriptedGenerator)

    shared = None
    if args.backend == "scripted":
        if not args.script:
            raise UsageError("--backend scripted requires --script <file>")
        script = _read_json(args.script)
        if not isinstance(script, list) or not all(isinstance(s, str) for s in script):
            raise UsageError("script file must hold a JSON array of strings")
        if not script:
            raise UsageError("script file must hold at least one response")
        shared = ScriptedGenerator(script)
    elif args.backend == "http":
        if not args.endpoint or not args.model:
            raise UsageError("--backend http requires --endpoint and --model")
        try:
            shared = HttpGenerator(args.endpoint, args.model, **http_settings)
        except ValueError as exc:  # an EndpointError names the --endpoint value
            prefix = "" if isinstance(exc, EndpointError) else "config file: "
            raise UsageError(f"{prefix}{exc}") from exc
    else:
        try:  # one noise config per command; each record brings its own seed
            noise = OracleNoiseConfig(args.flip, args.corrupt, args.malform)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        first_replies: dict[str | None, GenerationResponse] = {}

    def make(closure: Closure, question: Question, record_id: str | None = None) -> Generator:
        if shared is not None:
            return shared
        seed = args.seed if record_id is None else _record_seed(args.seed, record_id)
        return OracleGenerator(closure, question, noise, seed,
                               first_replies=first_replies, key=record_id)

    try:
        yield make
    except GeneratorError as exc:
        raise UsageError(str(exc)) from exc
    finally:
        if isinstance(shared, HttpGenerator):
            shared.close()


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
    closure = _load_closure(args.theory_file)
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
    from .selector import run_pipeline

    config, http_settings = _load_config(args.config)
    closure = _load_closure(args.theory_file)
    question = parse_question(args.question)
    with _generator_for(args, http_settings) as make:
        result = run_pipeline(closure, question, config, make(closure, question))
    print(_INDENTED_JSON.encode(result.to_json_dict()))
    return 0


def _config_stamp(args: argparse.Namespace, config: PipelineConfig,
                  methods: list[Method]) -> dict:
    from .generation import BASELINE_BUDGETS, PROMPT_VERSION

    return {
        "prompt_version": PROMPT_VERSION,
        "backend": args.backend,
        "seed": args.seed,
        "workers": getattr(args, "workers", 1),
        "methods": [m.value for m in methods],
        "baseline_budgets": {method.value: budget for method, budget in BASELINE_BUDGETS.items()},
        "pipeline": {**config._asdict(), "adaptive_budget": config.adaptive_budget},
        "noise": {"flip": args.flip, "corrupt": args.corrupt, "malform": args.malform},
    }


def _cmd_eval(args: argparse.Namespace) -> int:
    from .generation import Method
    from .harness import compute_metrics, emit_report, evaluate, write_run

    config, http_settings = _load_config(args.config)
    member = _METHOD_CHOICES[args.method]
    methods = list(Method) if member is None else [Method[member]]
    loaded = load_dataset(args.dataset)
    with _generator_for(args, http_settings) as make:
        results = evaluate(loaded.records, methods, config,
                           lambda record: make(record.closure, record.question, record.record_id),
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
    budgets: Sequence[int] = [int(part) for part in parts]
    if ":" in spec:
        if len(budgets) != 3:
            raise UsageError("--budgets expects start:stop:step or a comma list")
        start, stop, step = budgets
        if stop < start:
            raise UsageError("--budgets range must be increasing with a positive step")
        budgets = range(start, stop + 1, step)
    # A slice counts even a range too long for len(), and builds no list.
    if len(budgets[:_MAX_BUDGETS + 1]) > _MAX_BUDGETS:
        raise UsageError(f"--budgets names more than {_MAX_BUDGETS} budgets")
    return list(budgets)


def _cmd_ablate(args: argparse.Namespace) -> int:
    from .harness import ablation_csv, run_ablation

    config, http_settings = _load_config(args.config)
    budgets = _parse_budgets(args.budgets)
    loaded = load_dataset(args.dataset)
    with _generator_for(args, http_settings) as make:
        rows = run_ablation(loaded.records, budgets, config,
                            lambda record: make(record.closure, record.question, record.record_id),
                            workers=args.workers)
    csv_text = ablation_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(f"ablation written to {args.out}", file=sys.stderr)
    else:
        print(csv_text, end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .harness import MetricsReport, emit_report

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
