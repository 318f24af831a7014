"""RCGP core: CGP encoding, mutation, fitness, evolution, full flow."""

from .config import RcgpConfig
from .engine import (
    EvolutionRun,
    TelemetryWriter,
    decode_genome,
    encode_genome,
    read_telemetry,
)
from .evolution import EvolutionResult, evolve
from .fitness import Evaluator, Fitness
from .kernel import NetlistKernel
from .mutation import MutationDelta, chromosome_length, mutate, \
    mutate_with_delta
from .simstate import SimulationState
from .pareto import ParetoArchive, dominates, evolve_pareto
from .restart import (
    evolve_with_checkpoints,
    load_checkpoint,
    multi_start,
    save_checkpoint,
)
from .windowing import (
    Window,
    WindowResult,
    analyze_window,
    extract_window,
    optimize_window,
    splice_window,
    windowed_optimize,
)
from .synthesis import (
    BaselineResult,
    SynthesisResult,
    baseline_initialization,
    initialize_netlist,
)

__all__ = [
    "RcgpConfig",
    "Fitness",
    "Evaluator",
    "EvolutionRun",
    "TelemetryWriter",
    "encode_genome",
    "decode_genome",
    "read_telemetry",
    "mutate",
    "mutate_with_delta",
    "MutationDelta",
    "NetlistKernel",
    "SimulationState",
    "chromosome_length",
    "evolve",
    "EvolutionResult",
    "initialize_netlist",
    "baseline_initialization",
    "BaselineResult",
    "SynthesisResult",
    "Window",
    "WindowResult",
    "analyze_window",
    "extract_window",
    "splice_window",
    "optimize_window",
    "windowed_optimize",
    "evolve_with_checkpoints",
    "multi_start",
    "save_checkpoint",
    "load_checkpoint",
    "evolve_pareto",
    "ParetoArchive",
    "dominates",
]
