"""Verification-guided reasoning over unary logical theories.

Parse a theory, compute its symbolic closure, sample short structured
sketches from a generator under an adaptive token budget, verify every
claim against the closure, and select the answer that survives
verification. An evaluation harness compares the pipeline with plain
prompting baselines on accuracy, certification rate, token spend, and
latency.
"""

from .closure import (
    Closure,
    VerdictStatus,
    brute_force_closure,
    decide_from_closure,
    entity_has_closure_facts,
    forward_chain,
    verify_claim,
)
from .generation import (
    BASELINE_BUDGETS,
    PROMPT_VERSION,
    GenerationRequest,
    GenerationResponse,
    Generator,
    GeneratorError,
    GenerationTimeout,
    HttpGenerator,
    Method,
    OracleGenerator,
    OracleNoiseConfig,
    ScriptExhaustedError,
    ScriptedGenerator,
    build_baseline_prompt,
    build_sketch_prompt,
    count_tokens,
    request_sketch,
    truncate_to_tokens,
)
from .harness import (
    AblationRow,
    DatasetRecord,
    EmptyDatasetError,
    EmptyInputError,
    EvalRecord,
    GeneratorFactory,
    LoadResult,
    MethodMetrics,
    MetricsReport,
    RejectedLine,
    ablation_csv,
    compute_metrics,
    emit_report,
    evaluate,
    extract_label,
    load_dataset,
    nearest_rank_p95,
    per_example_token_savings,
    run_ablation,
    run_baseline,
    run_proofsketch,
    savings_percent,
    token_savings,
    write_run,
)
from .selector import (
    AnswerSource,
    Certification,
    PipelineConfig,
    PipelineResult,
    ScoreTuple,
    ScoredSketch,
    compare_scores,
    run_pipeline,
    score_sketch,
    select_budget,
)
from .sketch import (
    ParseStatus,
    ParsedSketch,
    RawSketch,
    anchor_claims,
    canonicalize_claim,
    parse_sketch,
)
from .theory import (
    EmptySymbolError,
    InconsistentFactsError,
    Label,
    Literal,
    ParseError,
    Polarity,
    Question,
    Rule,
    SchemaError,
    Theory,
    canonicalize_symbol,
    parse_question,
    parse_theory_nl,
    parse_theory_structured,
)

__version__ = "0.1.0"
