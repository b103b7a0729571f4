"""Zero-shot text-to-SQL by Monte Carlo tree search over reasoning actions.

A question is answered by searching a small space of reasoning steps
(rephrase, pick schema, note values and functions, write SQL, revise,
stop), with an LLM executing each step. Candidate queries are scored by
sampling the generator again and checking execution-result agreement, and
the final answer is the execution-consistency majority across the search's
terminal trajectories.
"""

from .core.types import ActionKind, NLQuestion, SearchConfig, SearchNode
from .errors import (
    ContractViolation,
    IngestionError,
    ParseError,
    ProtocolError,
    ScriptError,
    SqlScoutError,
    TransportError,
)
from .mcts import SearchDeps, Trajectory, run_search
from .reward_select import compute_reward, select_final
from .sql_exec import ExecutionResult, execute_sql, results_equal

__version__ = "0.1.0"

__all__ = [
    "ActionKind",
    "ContractViolation",
    "ExecutionResult",
    "IngestionError",
    "NLQuestion",
    "ParseError",
    "ProtocolError",
    "ScriptError",
    "SearchConfig",
    "SearchDeps",
    "SearchNode",
    "SqlScoutError",
    "Trajectory",
    "TransportError",
    "__version__",
    "compute_reward",
    "execute_sql",
    "results_equal",
    "run_search",
    "select_final",
]
