"""The benchmark's traced entry points still exist in the package.

bench/tracing.py wraps named package functions from outside the package
and reports any it cannot find as "missing", which turns the per-layer
metrics built on them into "missing" too. This test resolves every entry
point the same way the tracer does, so a rename fails here first, and
runs the tracer's result inspectors on real results, so a reshaped result
type fails here instead of in a traced run. It also runs
bench/setup_probe.py, which reads load_dataset off the package root. It
only reads bench/.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from proofsketch.theory import Label, parse_question, parse_theory_nl
from proofsketch.closure import decide_from_closure, forward_chain
from proofsketch.sketch import parse_sketch
from proofsketch.generation import GenerationRequest, OracleGenerator
from proofsketch.selector import PipelineConfig, run_pipeline, score_sketch

REPO = Path(__file__).resolve().parent.parent
TRACING_PATH = REPO / "bench" / "tracing.py"


def _load_tracing():
    name = "proofsketch_bench_tracing"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    # Registered before exec_module: its dataclasses look their module up.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()
ENTRY_POINTS = TRACING.ENTRY_POINTS


def test_entry_point_count() -> None:
    assert len(ENTRY_POINTS) == 19


@pytest.mark.parametrize("span, module_name, attribute",
                         [entry[:3] for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_entry_point_resolves(span: str, module_name: str, attribute: str) -> None:
    home = importlib.import_module(module_name)
    owner_name, _, member = attribute.rpartition(".")
    if owner_name:
        owner = getattr(home, owner_name)
        assert member in vars(owner), f"{span}: {attribute} is not defined on its class"
        assert callable(vars(owner)[member])
    else:
        assert callable(getattr(home, member, None)), f"{span}: {attribute} not found"


CLOSURE = forward_chain(parse_theory_nl("Anne is big. Bob is round. "
                                        "If someone is big then they are kind."))
OPEN_Q = parse_question("Is Bob kind?")


def test_generate_inspector_reads_oracle_results() -> None:
    generator = OracleGenerator(CLOSURE, OPEN_Q)
    request = GenerationRequest(prompt="p", max_tokens=50)
    response = generator.generate(request)
    # Methods are wrapped on their class, so the tracer sees self first.
    info = TRACING._generate_info((generator, request), response)
    assert info == {"max_tokens": 50, "tokens": response.completion_tokens}


def test_sketch_inspector_reads_parsed_sketches() -> None:
    text = '{"answer": "Unknown", "claims": ["bob is round", "zed is odd"]}'
    parsed = parse_sketch(text, CLOSURE.theory)
    info = TRACING._sketch_info((text, CLOSURE.theory), parsed)
    assert info == {"status": parsed.parse_status.value, "dropped": parsed.dropped_claims}
    assert info["dropped"] == 1


def test_pipeline_and_score_inspectors_read_results() -> None:
    args = (CLOSURE, OPEN_Q, PipelineConfig(), OracleGenerator(CLOSURE, OPEN_Q))
    result = run_pipeline(*args)
    assert TRACING._pipeline_info(args, result) == {"source": result.answer_source.value}
    sketch = result.sketches[0]
    decision = decide_from_closure(CLOSURE, OPEN_Q)
    assert decision is Label.UNKNOWN
    scored = score_sketch(sketch.parsed, sketch.raw, CLOSURE, decision)
    info = TRACING._score_info((sketch.parsed, sketch.raw, CLOSURE, decision), scored)
    assert info == {"cert": scored.score.cert} == {"cert": 1}


def test_setup_probe_loads_through_package_root(tmp_path) -> None:
    """bench/setup_probe.py times `import proofsketch` plus the root's
    load_dataset in a fresh interpreter; it must keep working from src/."""
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("".join(
        json.dumps({"id": f"r{i}", "theory": "Anne is big.", "question": "Is Anne big?",
                    "answer": "True"}) + "\n" for i in range(2)), encoding="utf-8")
    src = REPO / "src"
    completed = subprocess.run(
        [sys.executable, str(REPO / "bench" / "setup_probe.py"), str(src), str(dataset)],
        capture_output=True, text=True, check=True, timeout=60)
    probe = json.loads(completed.stdout)
    assert probe["records"] == 2
    assert Path(probe["module"]).resolve().is_relative_to(src.resolve())
