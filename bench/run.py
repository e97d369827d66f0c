"""proofsketch benchmark: eval throughput, answer latency and token cost.

Run from the repository root:

    python3 bench/run.py --workload shared-small --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --seed 1        # every workload, one table

Everything goes through the user interface: in-process calls to
proofsketch.cli.main with the arguments a user would type, stdout
captured and kept off the terminal. Inputs come from bench/corpus.py and
depend only on --workload and --seed.

A run repeats rounds until its eval and answer phases have taken --seconds
in all (building inputs is not counted), stopping at the round end nearest
to that, and runs at least QUALITY_ROUNDS of them. Each round has fresh
theories, so no round gains from anything an earlier round left in a
cache, and has two phases:

  eval    one `eval` command over the round's corpus, writing a run dir
  answer  a closed loop of single-question `answer` commands over the
          round's answer sample (at least 100 questions): one client on
          the oracle workloads, nproc clients on http-undecided

With --trace 0 the result line carries the end-to-end metrics:

  setup_s                    median over SETUP_PROBES fresh interpreters of
                             `import proofsketch` plus `load_dataset` on
                             the round-0 corpus, spread between the rounds
                             so that a short slow spell of the machine
                             cannot hold the median
  eval_answers_per_s         eval records written per second of the whole
                             eval command: all rounds' records over all
                             rounds' eval wall time
  answer_ms_p50, _p90        wall time of one answer command, over every
                             answer of the run
  accuracy, cert_rate,       ProofSketch answers of the first QUALITY_ROUNDS
  tokens_per_answer,         rounds (run-dir rows and answer-command
  generator_calls_per_answer outputs), scored against the benchmark's own
                             gold labels; fixed for a given seed
  peak_rss_mb                peak resident memory of this process, which
                             runs the commands in-process; the benchmark's
                             own inputs are per round and freed with it,
                             so the figure does not grow with the rounds

On a shared host the speed this machine gets drifts by 20-40% over tens of
seconds, more than the bounds in BENCHMARK.json, and a whole run can fall
in a slow or a fast spell. So the four timings above are scaled to a
reference speed: after each round a Calibration sample times fixed work
of the benchmark's own, and each time is divided by (median sample /
CALIBRATION_REFERENCE_S), the eval rate multiplied by it. The result file
and the table keep every timing as timed too ("unscaled").

Failed answers are the result line's `failed` count, and failed_share in
the table is failed over attempted: a command error, a missing record, a
closure-decided question answered differently from gold, or a round-0
records.jsonl that differs from a rerun of the same command in anything
but latency_ms. Any failure makes the exit code 1, so failed_share is not
a result-line metric: it reads 0 on every run that is accepted.

With --trace 1 the run alternates untraced and traced rounds, wraps the
package's layer entry points (bench/tracing.py) on the traced ones, runs
the closure scaling curve through the `closure` command, and reports the
per-layer metrics. Metrics that do not apply to the workload, or whose
entry point has gone, read "n/a" or "missing" in the table and the result
file; the result line carries numbers only, so there they read 0 (n/a)
and -1 (missing).

Every run writes .bench_out/results/<workload>-seed<seed>-trace<t>.json
with the machine, Python version, seed, corpus statistics and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
from tracing import (  # noqa: E402
    LAYER_METRICS, MISSING, NA, SCALING_SIZES, LayerContext, Tracer, layer_metrics,
)

NOISE_ARGS = ["--flip", str(corpus.NOISE["flip"]), "--corrupt", str(corpus.NOISE["corrupt"]),
              "--malform", str(corpus.NOISE["malform"])]
SETUP_PROBES = 5
# Seconds one Calibration sample takes at the reference speed: about its
# median on a 2-vCPU Intel Xeon VM of a shared host, where it ranged from
# 0.10 to 0.20 s within minutes.
CALIBRATION_REFERENCE_S = 0.14
QUALITY_ROUNDS = 8
SCALING_REPEATS = {50: 5, 200: 3, 1000: 1}

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("eval_answers_per_s", "1/s", "higher"),
    ("answer_ms_p50", "ms", "lower"),
    ("answer_ms_p90", "ms", "lower"),
    ("accuracy", "share", "higher"),
    ("cert_rate", "share", "higher"),
    ("tokens_per_answer", "count", "lower"),
    ("generator_calls_per_answer", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class Capture(io.TextIOBase):
    """Stands in for stdout and stderr: each thread writes to its own buffer."""

    def __init__(self) -> None:
        self._local = threading.local()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        parts = getattr(self._local, "parts", None)
        if parts is None:
            parts = self._local.parts = []
        parts.append(text)
        return len(text)

    def take(self) -> str:
        parts = getattr(self._local, "parts", None) or []
        self._local.parts = []
        return "".join(parts)

    def __enter__(self) -> "Capture":
        self._saved = sys.stdout, sys.stderr
        sys.stdout = sys.stderr = self
        return self

    def __exit__(self, *exc) -> None:
        sys.stdout, sys.stderr = self._saved


class Stub:
    """The HTTP stub endpoint, run as a child process for one workload run."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("stub endpoint did not start")
        self.base = f"http://127.0.0.1:{port}"
        self.url = f"{self.base}/v1/chat/completions"

    def _call(self, path: str, payload: dict | None = None) -> dict:
        data = None if payload is None else json.dumps(payload).encode()
        with urllib.request.urlopen(urllib.request.Request(self.base + path, data=data),
                                    timeout=30) as response:
            return json.loads(response.read())

    def load(self, replies: dict[str, list[str]]) -> None:
        self._call("/load", replies)

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Calibration:
    """Samples of how fast the host runs fixed work of the benchmark's own.

    One sample times rendering and naively closing the same 30 large
    theories (corpus.naive_fixpoint): nothing of the package under test
    runs in it, so a change to the package cannot move it; only the speed
    the shared host gives this machine at the time can. It runs in this
    thread between rounds, where the rounds themselves run, and with the
    garbage collector off, so that what the package leaves on the heap
    does not change its cost.
    """

    def __init__(self) -> None:
        self.specs = [corpus.large_theory(random.Random(f"calibration:{i}"), 25, 160)
                      for i in range(30)]
        self.samples: list[float] = []

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            for spec in self.specs:
                corpus.render_theory(spec)
                corpus.naive_fixpoint(spec)
            self.samples.append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()


@dataclass
class RoundInputs:
    index: int
    eval_corpus: corpus.Round
    answer_corpus: corpus.Round
    dataset: Path
    run_dir: Path
    theory_files: list[Path]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def _mask_latency(text: str) -> str:
    return re.sub(r'"latency_ms": [-0-9.eE+]+', '"latency_ms": _', text)


def _percentile(values: list[float], percent: int) -> float:
    """Nearest rank: the ceil(percent * n / 100)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(1, -(-percent * len(ordered) // 100)) - 1]


class WorkloadRun:
    def __init__(self, workload: corpus.Workload, seed: int, work: Path) -> None:
        from proofsketch import cli  # imported after the src check in main()

        self.cli = cli
        self.w = workload
        self.seed = seed
        self.work = work
        self.rounds = corpus.RoundFactory(workload, seed)
        self.tally = Tally()
        self.stub: Stub | None = None
        self.capture = Capture()
        self.clients = len(os.sched_getaffinity(0)) if workload.backend == "http" else 1
        self.quality = {"n": 0, "correct": 0, "certified": 0, "tokens": 0, "calls": 0}
        self.eval_records: list[int] = []
        self.eval_walls: list[float] = []
        self.answer_ms: list[float] = []
        self.answer_p50s: list[float] = []
        self.round_walls: list[tuple[bool, float]] = []
        self.stub_traffic = {"connections": 0, "requests": 0}

    # -- inputs ---------------------------------------------------------

    def prepare(self, index: int) -> RoundInputs:
        folder = self.work / f"round{index}"
        folder.mkdir(parents=True)
        eval_corpus = self.rounds.build(index, "eval")
        answer_corpus = self.rounds.build(index, "answer")
        dataset = folder / "dataset.jsonl"
        dataset.write_text(eval_corpus.dataset_jsonl(), encoding="utf-8")
        theory_files = []
        for t, text in enumerate(answer_corpus.theories):
            path = folder / f"theory{t}.txt"
            path.write_text(text + "\n", encoding="utf-8")
            theory_files.append(path)
        return RoundInputs(index, eval_corpus, answer_corpus, dataset, folder / "run", theory_files)

    def _backend_args(self, seed: int) -> list[str]:
        if self.w.backend == "http":
            return ["--backend", "http", "--endpoint", self.stub.url, "--model", "stub"]
        return ["--backend", "oracle", "--seed", str(seed), *NOISE_ARGS]

    # -- phases ---------------------------------------------------------

    def run_eval(self, inputs: RoundInputs, run_dir: Path) -> float:
        """One eval command; returns its wall time in seconds."""
        if self.stub:
            self.stub.load(inputs.eval_corpus.stub_replies(self.seed))
        argv = ["eval", str(inputs.dataset), "--method", self.w.method,
                "--workers", str(self.w.workers), "--out", str(run_dir),
                *self._backend_args(self.seed)]
        with self.capture:
            started = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failed command, not a crash
                code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - started
            self.capture.take()
        if code != 0:
            self.tally.fail(0, f"round {inputs.index} eval failed: {code}")
        return wall

    def check_eval(self, inputs: RoundInputs) -> int:
        """Score the run dir against gold; returns the records it holds."""
        questions = {q.record_id: q for q in inputs.eval_corpus.questions}
        methods = 4 if self.w.method == "all" else 1
        expected = len(questions) * methods
        self.tally.attempted += expected
        path = inputs.run_dir / "records.jsonl"
        rows = ([json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
                if path.exists() else [])
        seen = set()
        for row in rows:
            q = questions.get(row.get("record_id"))
            if q is None or (q.record_id, row.get("method")) in seen:
                self.tally.fail(1, f"round {inputs.index}: unexpected record "
                                   f"{row.get('record_id')}")
                continue
            seen.add((q.record_id, row["method"]))
            right = row["predicted"] == q.gold
            if row["correct"] != right:
                self.tally.fail(1, f"{q.record_id}: correct flag disagrees with gold {q.gold}")
            elif row["method"] == "ProofSketch" and q.decided and not right:
                self.tally.fail(1, f"{q.record_id}: decided question answered "
                                   f"{row['predicted']}, gold {q.gold}")
            if row["method"] == "ProofSketch" and inputs.index < QUALITY_ROUNDS:
                self._score(right, bool(row["certified"]), row["tokens"], row["generator_calls"])
        if len(seen) < expected:
            self.tally.fail(expected - len(seen),
                            f"round {inputs.index}: {expected - len(seen)} records missing")
        return len(rows)

    def _score(self, right: bool, certified: bool, tokens: int, calls: int) -> None:
        self.quality["n"] += 1
        self.quality["correct"] += right
        self.quality["certified"] += certified
        self.quality["tokens"] += tokens
        self.quality["calls"] += calls

    def run_answers(self, inputs: RoundInputs) -> float:
        """Closed loop of answer commands; returns the phase's wall time."""
        questions = inputs.answer_corpus.questions
        if self.stub:
            self.stub.load(inputs.answer_corpus.stub_replies(self.seed))
        results: list[tuple[float, object, str] | None] = [None] * len(questions)
        cursor = iter(range(len(questions)))
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                q = questions[i]
                argv = ["answer", str(inputs.theory_files[q.theory_index]), "--question", q.text,
                        *self._backend_args(self.seed * 100_003 + inputs.index * 1000 + i)]
                started = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except (Exception, SystemExit) as exc:  # counted as a failed answer
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = (time.perf_counter() - started) * 1000.0
                results[i] = (elapsed, code, self.capture.take())

        with self.capture:
            started = time.perf_counter()
            threads = [threading.Thread(target=client) for _ in range(self.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started

        self.tally.attempted += len(questions)
        self.answer_p50s.append(_percentile([r[0] for r in results], 50))
        for q, result in zip(questions, results):
            elapsed, code, output = result
            self.answer_ms.append(elapsed)
            if code != 0:
                self.tally.fail(1, f"{q.record_id}: answer command failed: {code}")
                continue
            try:
                doc = json.loads(output)
                answer = doc["answer"]
                if inputs.index < QUALITY_ROUNDS:
                    self._score(answer == q.gold, doc["certification"] == "Certified",
                                doc["total_generated_tokens"], doc["generator_calls"])
            except (ValueError, KeyError, TypeError):
                self.tally.fail(1, f"{q.record_id}: answer output is not the expected JSON")
                continue
            if q.decided and answer != q.gold:
                self.tally.fail(1, f"{q.record_id}: decided question answered {answer}, "
                                   f"gold {q.gold}")
        return wall

    def round(self, inputs: RoundInputs, tracer: Tracer | None = None) -> None:
        before = self.stub.stats() if (self.stub and tracer) else None
        if tracer:
            tracer.install()
            tracer.phase = "eval"
        try:
            eval_wall = self.run_eval(inputs, inputs.run_dir)
            if before is not None:
                after = self.stub.stats()
                for key in self.stub_traffic:
                    self.stub_traffic[key] += after[key] - before[key]
            if tracer:
                tracer.phase = "answer"
            answer_wall = self.run_answers(inputs)
        finally:
            if tracer:
                tracer.phase = None
                tracer.uninstall()
        records = self.check_eval(inputs)
        self.eval_records.append(records)
        self.eval_walls.append(eval_wall)
        self.round_walls.append((tracer is not None, eval_wall + answer_wall))
        if inputs.index > 0:
            shutil.rmtree(inputs.run_dir, ignore_errors=True)

    def check_determinism(self, first: RoundInputs) -> None:
        rerun = first.run_dir.with_name("rerun")
        self.run_eval(first, rerun)
        a = first.run_dir / "records.jsonl"
        b = rerun / "records.jsonl"
        if not (a.exists() and b.exists()):
            self.tally.fail(0, "determinism: a records.jsonl is missing")
            return
        left = _mask_latency(a.read_text(encoding="utf-8")).splitlines()
        right = _mask_latency(b.read_text(encoding="utf-8")).splitlines()
        differing = sum(x != y for x, y in zip(left, right)) + abs(len(left) - len(right))
        if differing:
            self.tally.fail(differing, f"determinism: {differing} records.jsonl lines differ "
                                       "between two runs of the same eval")

    # -- measurements ---------------------------------------------------

    def setup_seconds(self, dataset: Path, records: int) -> float:
        """One fresh interpreter's import plus load, in seconds."""
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(dataset)],
            capture_output=True, text=True, timeout=120,
        )
        try:
            probe = json.loads(done.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-300:]}")
        if probe["records"] != records or not probe["module"].startswith(str(SRC)):
            raise RuntimeError(f"setup probe loaded the wrong data: {probe}")
        return probe["seconds"]

    def scaling_curve(self, tracer: Tracer) -> tuple[dict[str, float], list[dict]]:
        """Time the closure of large theories through the `closure` command."""
        timings: dict[str, float] = {}
        details = []
        tracer.install()
        try:
            for entities, rules in SCALING_SIZES:
                key = f"closure.ms_at_{entities}x{rules}"
                spec = corpus.large_theory(
                    random.Random(f"scaling:{self.seed}:{entities}x{rules}"), entities, rules)
                path = self.work / f"scaling-{entities}x{rules}.txt"
                path.write_text(corpus.render_theory(spec) + "\n", encoding="utf-8")
                samples, output = [], ""
                for _ in range(SCALING_REPEATS[entities]):
                    first = len(tracer.spans)
                    tracer.phase = "scaling"
                    with self.capture:
                        self.cli.main(["closure", str(path)])
                        output = self.capture.take()
                    tracer.phase = None
                    spans = [s for s in tracer.spans[first:] if s.name == "closure.forward_chain"]
                    if spans:
                        samples.append(sum(s.ms for s in spans))
                if samples:
                    timings[key] = statistics.median(samples)
                try:
                    literals = {(lit["entity"], lit["attribute"], not lit["negated"])
                                for lit in json.loads(output)["literals"]}
                except (ValueError, KeyError, TypeError):
                    self.tally.fail(1, f"closure command at {entities}x{rules} gave no literals")
                    literals = set()
                row = {"size": f"{entities}x{rules}", "ms": timings.get(key, MISSING),
                       "literals": len(literals), "repeats": len(samples)}
                # The naive fixpoint takes about 1.5 s at the largest size.
                expected = set(corpus.naive_fixpoint(spec))
                row["naive_check"] = "pass" if literals == expected else "FAIL"
                if literals != expected:
                    self.tally.fail(1, f"closure at {entities}x{rules} differs from the "
                                       "naive fixpoint")
                details.append(row)
        finally:
            tracer.uninstall()
        return timings, details


def _machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform()}


def run_workload(args: argparse.Namespace) -> int:
    if not (SRC / "proofsketch" / "__init__.py").is_file():
        print(f"no proofsketch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import proofsketch

    if not Path(proofsketch.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"proofsketch was imported from {proofsketch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # The stub is on loopback; never route it through a proxy.
    for var in ("NO_PROXY", "no_proxy"):
        os.environ[var] = ",".join(filter(None, [os.environ.get(var), "127.0.0.1", "localhost"]))

    workload = corpus.WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = WorkloadRun(workload, args.seed, work)
    calibration: Calibration | None = None
    try:
        if workload.backend == "http":
            run.stub = Stub()
        if not args.trace:
            calibration = Calibration()
        first = run.prepare(0)
        setup: list[float] = []
        probes = 0 if args.trace else SETUP_PROBES

        def probe_setup(due: int) -> None:
            while len(setup) < min(due, probes):
                setup.append(run.setup_seconds(first.dataset, len(first.eval_corpus.questions)))

        tracer = Tracer() if args.trace else None
        index, inputs = 0, first
        minimum = 2 if args.trace else QUALITY_ROUNDS
        measured = 0.0
        # Stop when one more round would end further past --seconds than
        # stopping now falls short of it.
        while index < minimum or measured + run.round_walls[-1][1] / 2 < args.seconds:
            if index:
                inputs = run.prepare(index)
            run.round(inputs, tracer if (tracer and index % 2 == 1) else None)
            index += 1
            measured = sum(wall for _, wall in run.round_walls)
            if calibration:
                calibration.sample()
            probe_setup(1 + int(probes * measured / args.seconds))
        probe_setup(probes)
        run.check_determinism(first)

        if args.trace:
            scaling_ms, scaling = run.scaling_curve(tracer)
            walls = {flag: [w for traced, w in run.round_walls if traced is flag]
                     for flag in (True, False)}
            overhead = statistics.mean(walls[True]) / statistics.mean(walls[False]) - 1.0
            traced_rounds = len(walls[True])
            ctx = LayerContext(
                eval_questions=workload.eval_questions * traced_rounds,
                eval_runs=traced_rounds, backend=workload.backend, method=workload.method,
                service_delay_ms=corpus.SERVICE_DELAY_MS,
                stub_connections=run.stub_traffic["connections"] if run.stub else None,
                stub_requests=run.stub_traffic["requests"] if run.stub else None,
                scaling_ms=scaling_ms, overhead_share=overhead,
            )
            layers = layer_metrics(tracer, ctx)
            result = {
                "per_layer": {m.name: {"value": layers[m.name], "unit": m.unit,
                                       "better": m.better, "moves": m.moves}
                              for m in LAYER_METRICS},
                "scaling": scaling, "traced_rounds": traced_rounds,
                "entry_points": tracer.sites, "missing_entry_points": tracer.missing,
            }
            metrics = {m.name: {"value": _as_number(layers[m.name]), "unit": m.unit}
                       for m in LAYER_METRICS}
        else:
            q = run.quality
            # How much slower than the reference speed the host ran this run.
            slowdown = statistics.median(calibration.samples) / CALIBRATION_REFERENCE_S
            unscaled = {
                "setup_s": statistics.median(setup),
                "eval_answers_per_s": sum(run.eval_records) / sum(run.eval_walls),
                "answer_ms_p50": _percentile(run.answer_ms, 50),
                "answer_ms_p90": _percentile(run.answer_ms, 90),
            }
            values = {
                "setup_s": unscaled["setup_s"] / slowdown,
                "eval_answers_per_s": unscaled["eval_answers_per_s"] * slowdown,
                "answer_ms_p50": unscaled["answer_ms_p50"] / slowdown,
                "answer_ms_p90": unscaled["answer_ms_p90"] / slowdown,
                "accuracy": q["correct"] / q["n"],
                "cert_rate": q["certified"] / q["n"],
                "tokens_per_answer": q["tokens"] / q["n"],
                "generator_calls_per_answer": q["calls"] / q["n"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            samples = {"setup_s": len(setup), "eval_answers_per_s": len(run.eval_walls),
                       "answer_ms_p50": len(run.answer_ms), "answer_ms_p90": len(run.answer_ms),
                       "peak_rss_mb": 1, **{k: q["n"] for k in (
                           "accuracy", "cert_rate", "tokens_per_answer",
                           "generator_calls_per_answer")}}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in END_TO_END}
            result = {
                "end_to_end": {name: {"value": values[name], "unit": unit, "better": better,
                                      "samples": samples[name],
                                      **({"unscaled": unscaled[name]} if name in unscaled
                                         else {})}
                               for name, unit, better in END_TO_END},
                "calibration": {"reference_s": CALIBRATION_REFERENCE_S,
                                "samples_s": calibration.samples, "slowdown": slowdown},
            }
        rounds = index
    finally:
        if run.stub:
            run.stub.close()
        shutil.rmtree(work, ignore_errors=True)

    line = {"correct": run.tally.failed == 0 and not run.tally.problems,
            "attempted": run.tally.attempted, "failed": run.tally.failed, "metrics": metrics}
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "machine": _machine(),
        "setup": {"method": workload.method, "backend": workload.backend,
                  "eval_workers": workload.workers, "answer_clients": run.clients,
                  "noise": corpus.NOISE, "service_delay_ms": corpus.SERVICE_DELAY_MS
                  if workload.backend == "http" else None},
        "corpus": {"eval_round0": first.eval_corpus.stats(),
                   "answer_round0": first.answer_corpus.stats(),
                   "entities_x_rules": ("{}x{}".format(*workload.large_shape)
                                        if workload.large_shape
                                        else "<=8 entities, <=10 attributes, <=8 rules")},
        "per_round": {"eval_records": run.eval_records, "eval_s": run.eval_walls,
                      "answer_ms_p50": run.answer_p50s,
                      "wall_s": [wall for _, wall in run.round_walls]},
        "answer_ms_deciles": ([_percentile(run.answer_ms, p) for p in range(10, 100, 10)]
                              if run.answer_ms else []),
        "problems": run.tally.problems,
        **result, "result": line,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    _print_table(report)
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _as_number(value: float | str) -> float:
    """The result line carries numbers only: n/a reads 0 there, missing -1."""
    return {NA: 0, MISSING: -1}[value] if isinstance(value, str) else value


def _fmt(value) -> str:
    return value if isinstance(value, str) else f"{value:.4f}"


def _print_table(report: dict) -> None:
    stats = report["corpus"]["eval_round0"]
    print(f"== {report['workload']} (seed {report['seed']}, {report['rounds']} rounds): "
          f"{report['why']}")
    print(f"   corpus: {stats['questions']} questions, {stats['distinct_theories']} theories, "
          f"{stats['questions_per_theory']} per theory, {report['corpus']['entities_x_rules']}, "
          f"decided {stats['decided_share']}, contradictory {stats['contradictory_closure_share']}")
    for name, row in report.get("end_to_end", {}).items():
        unscaled = f", {_fmt(row['unscaled'])} as timed" if "unscaled" in row else ""
        print(f"   {name:<28} {_fmt(row['value']):>14} {row['unit']:<6} "
              f"({row['better']} is better, n={row['samples']}{unscaled})")
    if "calibration" in report:
        cal = report["calibration"]
        print(f"   timings above are scaled to the reference speed: the host ran "
              f"{cal['slowdown']:.3f}x the reference time of the calibration "
              f"(median of {len(cal['samples_s'])})")
    result = report["result"]
    print(f"   {'failed_share':<28} {_fmt(result['failed'] / max(1, result['attempted'])):>14} "
          f"share  (failed over attempted answers, n={result['attempted']})")
    for name, row in report.get("per_layer", {}).items():
        print(f"   {name:<40} {_fmt(row['value']):>12} {row['unit']:<6} -> {row['moves']}")
    for row in report.get("scaling", []):
        print(f"   closure {row['size']:<10} {_fmt(row['ms']):>10} ms  {row['literals']} literals, "
              f"naive check {row['naive_check']}")
    for problem in report["problems"]:
        print(f"   FAILED: {problem}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then one table of every metric."""
    status = 0
    reports = {}
    for name in corpus.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print("\n".join(done.stdout.strip().splitlines()[:-1]))
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        reports[name] = (json.loads(path.read_text(encoding="utf-8"))
                         if done.returncode in (0, 1) and path.exists() else {})
        if done.returncode != 0:
            status = 1
    section = "per_layer" if args.trace else "end_to_end"
    names = list(reports)
    rows = list(dict.fromkeys(m for report in reports.values() for m in report.get(section, {})))
    print("\n== summary")
    print(f"   {'metric':<40} {'unit':<6} " + " ".join(f"{n:>16}" for n in names))
    for metric in rows:
        cells = [reports[n].get(section, {}).get(metric) for n in names]
        unit = next(cell["unit"] for cell in cells if cell)
        print(f"   {metric:<40} {unit:<6} "
              + " ".join(f"{_fmt(cell['value']) if cell else '-':>16}" for cell in cells))
    print("   correct: " + ", ".join(
        f"{n}={reports[n].get('result', {}).get('correct', False)}" for n in names))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="proofsketch benchmark")
    parser.add_argument("--workload", choices=[*corpus.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
