"""Multi-fidelity hyperparameter tuning schedulers, simulated on tabulated
learning-curve benchmarks.

The package provides successive-halving schedulers (asynchronous promotion
with an optional progressively growing resource cap), rank-stability criteria
that drive the cap growth, a deterministic discrete-event simulator of
parallel workers, a synthetic benchmark generator, and an experiment runner
that aggregates seeded repetitions into comparison tables.
"""

from .benchgen import (
    CurveModel,
    FormatError,
    GenerationError,
    crossing_report,
    generate,
    load,
    save,
)
from .core import DataError, InternalError, ResourceSpec, TunesimError, UsageError
from .experiment import (
    CellResult,
    ExperimentSpec,
    MethodSpec,
    aggregate,
    emit_report,
    read_cells,
    run_cells,
    run_experiment,
    write_cells,
)
from .ranking import RankingCriterion
from .scheduler import SchedulerConfig
from .simulator import (
    Curve,
    LearningCurveTable,
    SimResult,
    TraceEvent,
    read_trace,
    replay_trace,
    simulate,
    speedup,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    # errors
    "TunesimError",
    "UsageError",
    "DataError",
    "InternalError",
    "FormatError",
    "GenerationError",
    # benchmarks
    "CurveModel",
    "generate",
    "load",
    "save",
    "crossing_report",
    "LearningCurveTable",
    "Curve",
    # scheduling
    "ResourceSpec",
    "RankingCriterion",
    "SchedulerConfig",
    "simulate",
    "SimResult",
    "speedup",
    # traces
    "TraceEvent",
    "write_trace",
    "read_trace",
    "replay_trace",
    # experiments
    "ExperimentSpec",
    "MethodSpec",
    "CellResult",
    "run_experiment",
    "run_cells",
    "aggregate",
    "emit_report",
    "read_cells",
    "write_cells",
]
