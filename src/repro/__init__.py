"""RCGP — automatic synthesis of reversible quantum-flux-parametron
(RQFP) logic circuits via efficient Cartesian genetic programming.

A from-scratch reproduction of Fu, Wille & Ho, DAC 2024.  The public API
re-exports the pieces a downstream user needs:

>>> from repro import synthesize, RcgpConfig
>>> from repro.bench import get_benchmark
>>> spec = get_benchmark("decoder_2_4").spec()
>>> result = synthesize(spec, RcgpConfig(generations=2000, seed=7))
>>> result.verify()
True

Many specs, shared workers, resumable state — use a
:class:`~repro.api.Session` (see ``docs/api_overview.md``):

>>> from repro import Session
>>> with Session(store="runs/", workers=8) as session:   # doctest: +SKIP
...     result = session.synthesize("designs/decod24.real")

Subpackages
-----------
``repro.logic``      bit-parallel truth tables, ISOP covers
``repro.sat``        CDCL solver, Tseitin encodings, CEC miters
``repro.networks``   AIG / MIG networks
``repro.opt``        resyn2- / aqfp_resynthesis-style optimization
``repro.rqfp``       RQFP gates, netlists, splitter & buffer insertion
``repro.core``       the CGP optimizer (the paper's contribution)
``repro.exact``      SAT-based exact synthesis (baseline 2)
``repro.io``         BLIF / AIGER / Verilog / PLA / .real / JSON
``repro.reversible`` MCT/MCF reversible-circuit substrate
``repro.jobs``       multi-job scheduler with persistent job store
``repro.service``    the scheduler over HTTP (``rcgp serve`` + client)
``repro.bench``      every Table-1/2 benchmark as executable spec
``repro.harness``    experiment harness regenerating the tables
"""

from .api import Session, synthesize
from .core.config import RcgpConfig
from .core.engine import EvolutionRun, TelemetryWriter, read_telemetry
from .core.evolution import EvolutionResult, evolve
from .core.fitness import Evaluator, Fitness
from .core.kernel import NetlistKernel
from .core.mutation import MutationDelta, mutate_with_delta
from .core.simstate import SimulationState
from .core.synthesis import (
    BaselineResult,
    SynthesisResult,
    baseline_initialization,
    initialize_netlist,
)
from .errors import (
    EncodingError,
    ExactSynthesisTimeout,
    FanoutViolation,
    NetlistError,
    ParseError,
    PathBalanceViolation,
    ReproError,
    SynthesisError,
    VerificationError,
)
from .exact.synthesizer import ExactResult, exact_synthesize
from .flow import load_spec
from .jobs import Job, JobSpec, JobStore, Scheduler
from .logic.truth_table import TruthTable, tabulate_word
from .rqfp.metrics import CircuitCost
from .rqfp.netlist import RqfpNetlist

__version__ = "2.0.0"

__all__ = [
    "__version__",
    "synthesize",
    "Session",
    "Job",
    "JobSpec",
    "JobStore",
    "Scheduler",
    "RcgpConfig",
    "initialize_netlist",
    "baseline_initialization",
    "SynthesisResult",
    "BaselineResult",
    "evolve",
    "EvolutionRun",
    "EvolutionResult",
    "TelemetryWriter",
    "read_telemetry",
    "Evaluator",
    "Fitness",
    "MutationDelta",
    "mutate_with_delta",
    "NetlistKernel",
    "SimulationState",
    "exact_synthesize",
    "ExactResult",
    "load_spec",
    "TruthTable",
    "tabulate_word",
    "RqfpNetlist",
    "CircuitCost",
    "ReproError",
    "ParseError",
    "NetlistError",
    "FanoutViolation",
    "PathBalanceViolation",
    "EncodingError",
    "SynthesisError",
    "ExactSynthesisTimeout",
    "VerificationError",
]
