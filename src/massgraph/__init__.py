"""Deterministic simulator for mass-based graph memory dynamics.

Nodes carry mass (the importance of an atomic proposition), edges carry
weight (the strength of an association); each phase applies one dynamic
input through a logarithmic reinforcement kernel with a log-Cauchy
perturbation, and threshold pruning models forgetting.
"""

import importlib

from .errors import (
    DiagonalError,
    DuplicateEdgeError,
    GenerationError,
    InputError,
    KernelDomainError,
    MassGraphError,
    NodeLookupError,
    ParameterError,
    ScriptError,
    SequencingError,
    SimulationError,
)
from .kernel import (
    KernelParams,
    MonotonicityReport,
    log_cauchy_pdf,
    reinforcement,
    validate_kernel_params,
)
from .graph import EdgeRecord, GraphState, NodeRecord, edge_key, new_graph, validate_state
from .engine import (
    AddEdge,
    AddNode,
    Event,
    Prune,
    PruneReport,
    apply_event,
    settle_phase_one,
)
from .scenario import (
    KernelDraw,
    MetricsReport,
    PhaseHistory,
    ScenarioConfig,
    generate_scenario,
    metrics,
    run_script,
)
from .io import (
    canonical_json_bytes,
    export_dot,
    export_history_json,
    load_history,
    parse_script,
    script_document,
    state_digest,
)

__version__ = "0.1.0"

__all__ = [
    "AddEdge",
    "AddNode",
    "DiagonalError",
    "DuplicateEdgeError",
    "EdgeRecord",
    "Event",
    "GenerationError",
    "GraphState",
    "InputError",
    "KernelDomainError",
    "KernelDraw",
    "KernelParams",
    "MassGraphError",
    "MetricsReport",
    "MonotonicityReport",
    "NodeLookupError",
    "NodeRecord",
    "ParameterError",
    "PhaseHistory",
    "Prune",
    "PruneReport",
    "ScenarioConfig",
    "ScriptError",
    "SequencingError",
    "SimulationError",
    "apply_event",
    "canonical_json_bytes",
    "cli_main",
    "edge_key",
    "export_dot",
    "export_history_json",
    "generate_scenario",
    "load_history",
    "log_cauchy_pdf",
    "metrics",
    "new_graph",
    "parse_script",
    "reinforcement",
    "run_script",
    "script_document",
    "settle_phase_one",
    "state_digest",
    "validate_kernel_params",
    "validate_state",
]


def __getattr__(name: str):
    # the CLI loads on first use, so `python -m massgraph.cli` finds it not
    # yet imported and runs it without a RuntimeWarning
    if name in ("cli", "cli_main"):
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else cli.cli_main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
