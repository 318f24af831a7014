"""Workload definitions and the seeded job lists they run.

The job list of a run is a function of the workload, the ``--seed`` and
the ``--seconds`` budget alone: circuits, per-job RCGP seeds, order and
the split between clients.  The budget fixes the number of rounds (one
round runs every circuit of the workload once, in a seeded order), so
two runs with the same seed and budget do exactly the same work, and a
shorter budget runs a prefix of a longer one.  Design-file formats
rotate by circuit and round, the same for every seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

TABLE1 = ("full_adder", "4gt10", "alu", "c17", "decoder_2_4", "decoder_3_8",
          "graycode4", "ham3", "mux4")
TABLE2_NO_HWB8 = ("4_49", "graycode6", "mod5adder", "intdiv4", "intdiv5",
                  "intdiv6", "intdiv7", "intdiv8", "intdiv9", "intdiv10")
TUNED = {"mutation_rate": 0.08, "max_mutated_genes": 8, "eval_cache_size": 0}
FORMATS = (".real", ".pla", ".blif", ".v", ".aag", ".bench")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "inproc" (synthesize) or "serve" (HTTP)
    circuits: Tuple[str, ...]
    generations: int
    config: Dict[str, object]   # RcgpConfig fields besides budget and seed
    files: bool                 # synthesize(path) on written design files
    warmup: str                 # circuit of the untimed warm-up job
    round_s: float              # nominal seconds of one round (2-CPU host)
    clients: int = 1
    why: str = ""


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "synth-paper", "inproc", ("intdiv7", "intdiv8", "intdiv9",
                                  "mod5adder"),
        generations=300, config={}, files=False, warmup="intdiv6",
        round_s=17.0,
        why="paper defaults (mu=1 uncapped, memo cache on) through "
            "synthesize(); mutation dominates; store, pool and service "
            "bypassed"),
    Workload(
        "synth-tuned-files", "inproc", TABLE1 + TABLE2_NO_HWB8,
        generations=300, config=dict(TUNED, verify_result=True),
        files=True, warmup="intdiv6", round_s=6.0,
        why="tuned config on design files in six formats with the result "
            "gate: parsing, resyn2 and cone resimulation show; mutation "
            "is small"),
    Workload(
        "serve-pool", "serve", TABLE1,
        generations=200, config={}, files=False, warmup="ham3",
        round_s=6.0, clients=2,
        why="rcgp serve --workers 2 with two closed-loop HTTP clients: "
            "HTTP, fsynced store writes, telemetry and the shared pool's "
            "delta protocol"),
    # exhaustive_input_limit below the input count sends 12-13 input
    # specs down the path of wider ones: sampled simulation plus SAT.
    Workload(
        "synth-sampled", "inproc", ("onehot12", "onehot13"),
        generations=300, config=dict(TUNED, exhaustive_input_limit=8),
        files=True, warmup="onehot9", round_s=9.5,
        why="tuned config, exhaustive_input_limit 8 on 12-13 input .pla "
            "files: sampled simulation plus SAT CEC, the only path to sat"),
    # The default limit (14) makes 15-16 input specs take that path
    # unprompted; at the commit that defined the benchmark every such
    # job fails before any work (JobSpec.job_id), so BENCHMARK.json
    # leaves this one out.
    Workload(
        "synth-sampled-wide", "inproc", ("onehot15", "onehot16"),
        generations=300, config=dict(TUNED), files=True, warmup="onehot5",
        round_s=5.0,
        why="15-16 input specs take sampled simulation plus SAT at the "
            "default limit; every job fails before any work at this "
            "commit (JobSpec.job_id)"),
)}


@dataclass(frozen=True)
class Job:
    name: str
    circuit: str
    seed: int
    fmt: Optional[str] = None   # design-file extension, or None for tables

    def key(self, generations: int) -> str:
        """Identity of the job's work, for the determinism record."""
        return f"{self.circuit}|{self.seed}|{generations}|{self.fmt}"


@dataclass
class Plan:
    workload: Workload
    warmup: Job
    clients: List[List[Job]] = field(default_factory=list)

    @property
    def jobs(self) -> List[Job]:
        return [job for client in self.clients for job in client]


def design_format(workload: Workload, circuit: str, round_index: int):
    """Design-file extension of ``circuit`` in a round, or None for tables.

    Fixed by circuit and round, not drawn from the seed: parsing cost
    depends strongly on the format (loading intdiv10 from ``.real`` takes
    about 2 s, from ``.pla`` 5 ms), so every seed runs the same
    circuit/format mix."""
    if not workload.files:
        return None
    if circuit.startswith("onehot"):
        return ".pla"
    index = workload.circuits.index(circuit)
    return FORMATS[(index + round_index) % len(FORMATS)]


def make_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    rounds = max(1, round(seconds / workload.round_s))
    rng = random.Random(f"{workload.name}/{seed}")
    warm_fmt = ".pla" if workload.files else None
    plan = Plan(workload,
                Job("warmup", workload.warmup, rng.getrandbits(31), warm_fmt))
    for client in range(workload.clients):
        jobs: List[Job] = []
        for round_index in range(rounds):
            order = list(workload.circuits)
            rng.shuffle(order)
            for circuit in order:
                jobs.append(Job(f"c{client}-{len(jobs):03d}-{circuit}",
                                circuit, rng.getrandbits(31),
                                design_format(workload, circuit,
                                              round_index)))
        plan.clients.append(jobs)
    return plan


def spec_of(circuit: str):
    """Truth tables of a workload circuit."""
    if circuit.startswith("onehot"):
        from repro.bench.extras import one_hot_checker
        return one_hot_checker(int(circuit[len("onehot"):]))
    from repro.bench.registry import get_benchmark
    return get_benchmark(circuit).spec()


def write_design(circuit: str, fmt: str, directory: str) -> str:
    """Write ``circuit`` as a design file of extension ``fmt``."""
    from repro.io import (write_aiger, write_bench, write_blif, write_pla,
                          write_real, write_verilog)
    from repro.networks.convert import tables_to_aig
    from repro.reversible.spec import bennett_embedding
    from repro.reversible.synthesis import synthesize_tables
    from repro.errors import SynthesisError

    path = os.path.join(directory, circuit + fmt)
    if os.path.exists(path):
        return path
    spec = spec_of(circuit)
    if fmt == ".pla":
        text = write_pla(spec)
    elif fmt == ".real":
        try:   # permutation specs get a transformation-based cascade
            circuit_obj = synthesize_tables(spec, name=circuit)
        except (SynthesisError, ValueError):
            circuit_obj = bennett_embedding(spec, name=circuit)
        text = write_real(circuit_obj)
    else:
        aig = tables_to_aig(spec, name=circuit)
        if fmt == ".blif":
            text = write_blif(aig)
        elif fmt == ".v":   # Verilog identifiers may not start with a digit
            text = write_verilog(aig, module_name="m_" + circuit)
        elif fmt == ".aag":
            text = write_aiger(aig)
        else:
            text = write_bench(aig)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def rcgp_config(workload: Workload, seed: int):
    from repro import RcgpConfig
    return RcgpConfig(generations=workload.generations, seed=seed,
                      **workload.config)
