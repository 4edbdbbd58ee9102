"""Two-agent stepwise math solver with a rejection cache and token budgets.

A Decomposer agent proposes one reasoning step per turn in a strict
``STEP:`` / ``FINAL_ANSWER:`` format; an Evaluator agent scores each
candidate 0-3 with a short feedback hint; the solve loop accepts,
retries with the hint, or forces acceptance after the retry limit,
under a shared token budget and an optional per-problem rejection
cache of math fingerprints. Includes GSM8K next-step preprocessing and
a benchmark harness with Wilson confidence intervals and budget sweeps.
"""

from .agents import (
    AgentReply,
    BackendError,
    BackendTimeout,
    DecodeParams,
    HTTPBackend,
    Role,
    ScriptExhausted,
    ScriptedBackend,
    estimate_tokens,
)
from .cache import CacheDecision, RejectionCache, fingerprint
from .dataset import (
    DataError,
    RawExample,
    TrainingInstance,
    UnknownRating,
    load_gsm8k_examples,
    make_instances,
    map_prm_rating,
    serialize_instance,
    split_examples,
)
from .harness import (
    InvalidCounts,
    RunResult,
    SummaryRow,
    SWEEP_BUDGETS,
    WilsonInterval,
    budget_sweep,
    load_problems,
    run_benchmark,
    wilson_interval,
)
from .protocol import (
    AcceptedStep,
    CanonicalNumber,
    Evaluation,
    MalformedEvaluation,
    MalformedStep,
    MissingMarker,
    NoNumberFound,
    Problem,
    ProtocolError,
    ScoreOutOfRange,
    StepCandidate,
    StepKind,
    build_decomposer_prompt,
    build_evaluator_prompt,
    normalize_answer,
    parse_agent_step,
    parse_evaluation,
    parse_worked_solution,
)
from .solver import (
    Decision,
    EventKind,
    Outcome,
    SolveTrace,
    SolverConfig,
    TraceEvent,
    solve,
    step_decision,
)

__version__ = "0.1.0"
