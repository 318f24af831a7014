"""Experiment runner: produces the rows of Tables 1 and 2.

Each row runs up to three flows on one benchmark:

* **Initialization** — baseline 1 (initialization + buffer insertion),
* **Exact logic synthesis** — baseline 2 (SAT-based; budget exhaustion
  is recorded as the paper's ``\\`` timeout),
* **RCGP** — the full CGP flow.

Budgets are configurable (and overridable through ``RCGP_BENCH_*``
environment variables) because the paper's 5·10⁷-generation,
240 000-second setup is not reproducible per-run in pure Python;
EXPERIMENTS.md records which budget produced every published number.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..api import Session
from ..bench.registry import Benchmark, get_benchmark, table_benchmarks
from ..core.config import RcgpConfig
from ..errors import ExactSynthesisTimeout
from ..exact.synthesizer import exact_synthesize
from ..rqfp.metrics import CircuitCost, circuit_cost, garbage_lower_bound
from ..rqfp.buffer_opt import optimal_levels


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    return float(value) if value else default


@dataclass
class HarnessConfig:
    """Budgets for one harness invocation."""

    generations: int = 4000
    offspring: int = 4
    mutation_rate: float = 0.08
    max_mutated_genes: int = 8
    seed: int = 2024
    shrink: str = "always"
    exact_conflict_budget: int = 150_000
    exact_time_budget: float = 240.0
    exact_max_gates: int = 6
    run_exact: bool = True
    stagnation_limit: Optional[int] = None
    workers: int = 0
    telemetry_dir: Optional[str] = None
    store_dir: Optional[str] = None
    batch_timeout: Optional[float] = None
    batch_retries: int = 2

    @classmethod
    def from_env(cls) -> "HarnessConfig":
        """Defaults, overridable via RCGP_BENCH_* environment variables."""
        base = cls()
        return cls(
            generations=_env_int("RCGP_BENCH_GENERATIONS", base.generations),
            offspring=_env_int("RCGP_BENCH_OFFSPRING", base.offspring),
            mutation_rate=_env_float("RCGP_BENCH_MUTATION_RATE",
                                     base.mutation_rate),
            seed=_env_int("RCGP_BENCH_SEED", base.seed),
            exact_conflict_budget=_env_int("RCGP_BENCH_EXACT_CONFLICTS",
                                           base.exact_conflict_budget),
            exact_time_budget=_env_float("RCGP_BENCH_EXACT_TIME",
                                         base.exact_time_budget),
            exact_max_gates=_env_int("RCGP_BENCH_EXACT_MAX_GATES",
                                     base.exact_max_gates),
            run_exact=_env_int("RCGP_BENCH_RUN_EXACT", 1) != 0,
            workers=_env_int("RCGP_BENCH_WORKERS", base.workers),
            telemetry_dir=os.environ.get("RCGP_BENCH_TELEMETRY_DIR") or None,
            store_dir=os.environ.get("RCGP_BENCH_STORE") or None,
        )

    def rcgp_config(self, scale: float = 1.0,
                    benchmark_name: str = "") -> RcgpConfig:
        telemetry_path = None
        if self.telemetry_dir and benchmark_name:
            os.makedirs(self.telemetry_dir, exist_ok=True)
            telemetry_path = os.path.join(self.telemetry_dir,
                                          f"{benchmark_name}.jsonl")
        return RcgpConfig(
            generations=max(1, int(self.generations * scale)),
            offspring=self.offspring,
            mutation_rate=self.mutation_rate,
            max_mutated_genes=self.max_mutated_genes,
            seed=self.seed,
            shrink=self.shrink,
            stagnation_limit=self.stagnation_limit,
            workers=self.workers,
            telemetry_path=telemetry_path,
            batch_timeout=self.batch_timeout,
            batch_retries=self.batch_retries,
        )


@dataclass
class ExperimentRow:
    """One benchmark's measured results alongside the paper's."""

    name: str
    n_pi: int
    n_po: int
    g_lb: int
    init: CircuitCost
    rcgp: CircuitCost
    exact: Optional[CircuitCost]          # None => not run / timed out
    exact_timeout: bool
    paper: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "n_pi": self.n_pi,
            "n_po": self.n_po,
            "g_lb": self.g_lb,
            "init": self.init.as_row(),
            "rcgp": self.rcgp.as_row(),
            "exact": self.exact.as_row() if self.exact else None,
            "exact_timeout": self.exact_timeout,
        }


def _rcgp_for(benchmark: Benchmark, config: HarnessConfig,
              gen_scale: float, rcgp: Optional[RcgpConfig]) -> RcgpConfig:
    """The evolution config for one row.

    An explicit ``rcgp`` config is authoritative for the search; the
    env-derived :class:`HarnessConfig` then only supplies the exact-
    synthesis budgets and run flags.  Without one, the legacy env
    overlay builds the config as before.
    """
    if rcgp is None:
        return config.rcgp_config(gen_scale, benchmark_name=benchmark.name)
    if gen_scale != 1.0:
        rcgp = rcgp.replace(
            generations=max(1, int(rcgp.generations * gen_scale)))
    return rcgp


def run_benchmark(benchmark: Benchmark, config: Optional[HarnessConfig] = None,
                  gen_scale: float = 1.0, *,
                  rcgp: Optional[RcgpConfig] = None,
                  session: Optional[Session] = None) -> ExperimentRow:
    """Produce one table row for a benchmark.

    The RCGP flow runs as a scheduler job through ``session`` (one is
    created from ``config.store_dir``/``config.workers`` when not
    given); with a disk-backed store, a row that already completed under
    the same configuration is served from the store without re-running.
    """
    config = config or HarnessConfig.from_env()
    spec = benchmark.spec()
    rcgp_config = _rcgp_for(benchmark, config, gen_scale, rcgp)

    owned: Optional[Session] = None
    if session is None:
        owned = session = Session(config.store_dir,
                                  workers=rcgp_config.workers)
    try:
        result = session.synthesize(spec, rcgp_config, name=benchmark.name)
    finally:
        if owned is not None:
            owned.close()
    if not result.verify():
        raise AssertionError(f"{benchmark.name}: RCGP result failed verification")

    exact_cost: Optional[CircuitCost] = None
    exact_timeout = False
    if config.run_exact:
        try:
            start = time.monotonic()
            exact = exact_synthesize(
                spec, name=benchmark.name,
                conflict_budget=config.exact_conflict_budget,
                time_budget=config.exact_time_budget,
                max_gates=config.exact_max_gates,
            )
            plan = optimal_levels(exact.netlist)
            exact_cost = circuit_cost(exact.netlist, plan,
                                      runtime=time.monotonic() - start)
        except ExactSynthesisTimeout:
            exact_timeout = True

    return ExperimentRow(
        name=benchmark.name,
        n_pi=benchmark.num_inputs,
        n_po=benchmark.num_outputs,
        g_lb=garbage_lower_bound(benchmark.num_inputs, benchmark.num_outputs),
        init=result.initial.cost,
        rcgp=result.cost,
        exact=exact_cost,
        exact_timeout=exact_timeout,
        paper=benchmark.paper_row,
    )


def run_table(table: int, config: Optional[HarnessConfig] = None,
              names: Optional[List[str]] = None,
              gen_scale: float = 1.0, *,
              rcgp: Optional[RcgpConfig] = None,
              session: Optional[Session] = None) -> List[ExperimentRow]:
    """All rows of one paper table (optionally a named subset).

    All rows share one scheduling session (and so one worker pool and
    one store); interrupted table runs over a disk-backed store resume
    at the first unfinished row.
    """
    config = config or HarnessConfig.from_env()
    benchmarks = table_benchmarks(table)
    if names is not None:
        benchmarks = [get_benchmark(n) for n in names]
    owned: Optional[Session] = None
    if session is None:
        workers = rcgp.workers if rcgp is not None else config.workers
        owned = session = Session(config.store_dir, workers=workers)
    try:
        return [run_benchmark(b, config, gen_scale, rcgp=rcgp,
                              session=session)
                for b in benchmarks]
    finally:
        if owned is not None:
            owned.close()
