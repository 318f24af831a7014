"""Differential fuzz harness: flat kernel vs object path vs SAT.

Every round draws a random specification and a random RQFP netlist,
drives both candidate representations through a random mutation chain,
and cross-checks every invariant the evolution engine silently relies
on:

* **genome codec** — ``encode_genome``/``decode_genome``/
  ``NetlistKernel.from_genome`` round-trip;
* **kernel vs object** — simulation, shrink, levels, buffer estimate
  and fan-out counts agree bit for bit after every mutation;
* **mutation parity** — the same RNG stream mutates the kernel and the
  object netlist into the same chromosome with the same delta and the
  same number of draws, under either the paper's defaults (μ = 1,
  uncapped) or a capped config (μ = 0.3, ≤ 4 genes), drawn per round;
  the kernel side mutates a brood of two through one shared
  ``PortReaders`` table, which after every step must be unchanged and
  equal a fresh build.  A round's parent is either a legal fan-out
  netlist (children mutate through the table) or a shared-port
  ``random_rqfp`` netlist (children take the object route);
* **incremental vs full** — cone-aware incremental fitness equals full
  re-simulation for both representations;
* **early stop** — against the parent's own tables, with the parent's
  fitness as the floor, the incremental verdict equals full
  simulation's, a functional child's key is exact, and the object and
  kernel sweeps count the same ports;
* **SAT vs exhaustive simulation** — ``check_against_tables`` and the
  one equivalence rule, ``realizes``, agree with each other and with
  exhaustive truth-table comparison, UNSAT and SAT legs both, and
  returned counterexamples actually distinguish the circuits;
* **formal leg** — a sampled evaluator's ``_formally_equivalent`` gives
  the exhaustive truth-table verdict, and for an inequivalent candidate
  the pattern it appends is the solver's model;
* **legality** — splitter insertion yields a fan-out-legal netlist
  whose default (exact) buffer plan passes ``validate_circuit`` /
  ``check_circuit`` cleanly, keeps the ASAP depth and needs no more
  buffers than the fitness loop's ASAP estimate;
* **chunk boundaries** — a random 17- or 18-input netlist of a few
  gates tabulates in ``2**16``-pattern chunks exactly as one full-width
  simulation, ``first_mismatch`` finds nothing against its own tables
  and exactly the pattern whose bit one output's table had flipped;
* **window splicing** — a random window of a random 2- to 18-input
  netlist, extracted and spliced back as it is and after ``shrink()``,
  realizes the netlist's tables under ``realizes``.

Usage::

    PYTHONPATH=src python tools/fuzz_diff.py --seed 0 --rounds 50
    PYTHONPATH=src python tools/fuzz_diff.py --seed 0 --only 17  # replay

Any mismatch prints a replay command, writes a ``fuzz_replay_*.json``
artifact (uploaded by CI on failure) and exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.random_circuits import random_rqfp          # noqa: E402
from repro.core.config import RcgpConfig                      # noqa: E402
from repro.core.engine import decode_genome, encode_genome  # noqa: E402
from repro.core.fitness import Evaluator                       # noqa: E402
from repro.core.kernel import NetlistKernel                    # noqa: E402
from repro.core.mutation import mutate_with_delta, port_readers  # noqa: E402
from repro.core.verify import realizes                         # noqa: E402
from repro.core.windowing import (analyze_window, extract_window,  # noqa: E402
                                  splice_window)
from repro.logic.bitops import full_mask, variable_pattern     # noqa: E402
from repro.logic.truth_table import TruthTable, first_mismatch  # noqa: E402
from repro.rqfp.buffers import estimate_buffers                # noqa: E402
from repro.rqfp.netlist import RqfpNetlist                     # noqa: E402
from repro.rqfp.splitters import insert_splitters              # noqa: E402
from repro.rqfp.validate import check_circuit, validate_circuit  # noqa: E402
from repro.sat.equivalence import check_against_tables         # noqa: E402

NUM_CONFIGS = 512
MUTATION_STEPS = 6


class Mismatch(AssertionError):
    """A differential invariant failed."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def round_rng(seed: int, round_index: int) -> random.Random:
    """Independent, well-mixed RNG stream for one fuzz round."""
    data = f"fuzz:{seed}:{round_index}".encode()
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def random_spec(rng: random.Random, num_vars: int,
                num_outputs: int) -> list:
    full = (1 << (1 << num_vars)) - 1
    return [TruthTable(num_vars, rng.getrandbits(1 << num_vars) & full)
            for _ in range(num_outputs)]


def random_netlist(rng: random.Random, num_inputs: int,
                   num_gates: int, num_outputs: int) -> RqfpNetlist:
    netlist = RqfpNetlist(num_inputs, "fuzz")
    for g in range(num_gates):
        limit = netlist.first_gate_port(g)  # const + PIs + earlier gates
        netlist.add_gate(rng.randrange(limit), rng.randrange(limit),
                         rng.randrange(limit),
                         rng.randrange(NUM_CONFIGS))
    for _ in range(num_outputs):
        netlist.add_output(rng.randrange(netlist.num_ports()))
    return netlist


def check_kernel_vs_object(netlist: RqfpNetlist, kernel: NetlistKernel,
                           words, mask) -> None:
    _check(encode_genome(netlist) == kernel.to_genome(),
           "genome: kernel and object encodings differ")
    _check(kernel.simulate(words, mask) == netlist.simulate(words, mask),
           "simulate: kernel diverged from object netlist")
    _check(kernel.shrink().to_genome()
           == NetlistKernel.from_netlist(netlist.shrink()).to_genome(),
           "shrink: kernel diverged from object netlist")
    _check(kernel.levels() == netlist.levels(),
           "levels: kernel diverged from object netlist")
    _check(kernel.estimate_buffers() == estimate_buffers(netlist),
           "buffer estimate: kernel diverged from object netlist")
    _check(kernel.fanout_counts_flat() == netlist.fanout_counts_flat(),
           "fan-out counts: kernel diverged from object netlist")


def check_codec(netlist: RqfpNetlist) -> None:
    genome = encode_genome(netlist)
    _check(encode_genome(decode_genome(genome)) == genome,
           "codec: decode/encode round trip changed the genome")
    _check(NetlistKernel.from_genome(genome).to_genome() == genome,
           "codec: kernel from_genome/to_genome changed the genome")


def check_incremental(evaluator: Evaluator, parent, child, delta) -> None:
    state = evaluator.prepare_parent(parent)
    incremental = evaluator.evaluate_incremental(child, delta, state)
    full = evaluator.evaluate(child)
    _check(incremental.key() == full.key(),
           f"incremental fitness {incremental} != full fitness {full}")


def check_early_stop(config: RcgpConfig, parent_obj, parent_ker,
                     child_obj, child_ker, delta) -> None:
    spec = parent_obj.to_truth_tables()  # the parent is functional
    full = Evaluator(spec, config).evaluate(child_obj)
    ports = []
    for parent, child in ((parent_obj, child_obj), (parent_ker, child_ker)):
        evaluator = Evaluator(spec, config)
        floor = evaluator.evaluate(parent)
        state = evaluator.prepare_parent(parent)
        early = evaluator.evaluate_incremental(child, delta, state, floor)
        _check(early.functional == full.functional,
               f"early stop said functional={early.functional}, full "
               f"simulation says {full.functional}")
        if full.functional:
            _check(early.key() == full.key(),
                   f"early-stop fitness {early} != full fitness {full}")
        ports.append(evaluator.ports_resimulated)
    _check(ports[0] == ports[1],
           f"early stop: object/kernel ports {ports} differ")


def check_sat_vs_simulation(netlist: RqfpNetlist, spec) -> None:
    result = check_against_tables(netlist.encoder(), spec)
    expected = netlist.to_truth_tables() == list(spec)
    _check(result.equivalent is not None,
           "SAT: budget exhausted on a tiny miter")
    _check(result.equivalent == expected,
           f"SAT said equivalent={result.equivalent}, exhaustive "
           f"simulation says {expected}")
    if result.equivalent is False:
        pattern = result.counterexample
        _check(pattern is not None, "SAT: inequivalent without model")
        tables = netlist.to_truth_tables()
        _check(any(t.value(pattern) != s.value(pattern)
                   for t, s in zip(tables, spec)),
               f"SAT counterexample {pattern:#x} does not distinguish "
               "the circuits")
    decided = realizes(netlist, spec)
    _check(decided.equivalent == expected == result.equivalent,
           f"realizes said equivalent={decided.equivalent}, SAT says "
           f"{result.equivalent}, exhaustive simulation says {expected}")
    pattern = decided.counterexample
    if pattern is not None:
        tables = netlist.to_truth_tables()
        _check(any(t.value(pattern) != s.value(pattern)
                   for t, s in zip(tables, spec)),
               f"realizes counterexample {pattern:#x} does not "
               "distinguish the circuits")


def check_formal_leg(netlist: RqfpNetlist, spec, config) -> None:
    evaluator = Evaluator(spec, config.replace(exhaustive_input_limit=0))
    active = netlist.shrink()
    before = list(evaluator._patterns)
    verdict = evaluator._formally_equivalent(active)
    expected = netlist.to_truth_tables() == list(spec)
    _check(verdict == expected,
           f"formal leg said equivalent={verdict}, exhaustive simulation "
           f"says {expected}")
    if expected:
        _check(evaluator._patterns == before,
               "formal leg: an equivalent candidate added a pattern")
        return
    result = check_against_tables(
        active.encoder(), spec, conflict_budget=config.sat_conflict_budget)
    if result.equivalent is not None:
        _check(evaluator._patterns == before + [result.counterexample],
               "formal leg: the appended pattern is not the solver's model")


def check_legality(netlist: RqfpNetlist) -> None:
    legal = insert_splitters(netlist)
    _check(legal.fanout_violations() == [],
           "insert_splitters left fan-out violations")
    _check(legal.to_truth_tables() == netlist.to_truth_tables(),
           "insert_splitters changed the function")
    plan = validate_circuit(legal)  # raises on any design-rule violation
    _check(check_circuit(legal, plan) == [],
           "check_circuit disagrees with validate_circuit")
    asap = estimate_buffers(legal)
    _check(plan.num_buffers <= asap,
           f"buffer plan needs {plan.num_buffers} buffers, more than the "
           f"ASAP estimate {asap}")
    _check(plan.depth == legal.depth(),
           f"buffer plan depth {plan.depth} is not the netlist depth "
           f"{legal.depth()}")


def check_chunked_tables(rng: random.Random) -> None:
    num_inputs = rng.randint(17, 18)
    netlist = random_netlist(rng, num_inputs, rng.randint(1, 4),
                             rng.randint(1, 3))
    tables = netlist.to_truth_tables()
    words = [variable_pattern(i, num_inputs) for i in range(num_inputs)]
    _check([t.bits for t in tables]
           == netlist.simulate(words, full_mask(num_inputs)),
           f"chunked tabulation at {num_inputs} inputs diverged from "
           "full-width simulation")
    _check(first_mismatch(netlist.simulate, tables) is None,
           "first_mismatch: a netlist mismatches its own tables")
    output = rng.randrange(len(tables))
    pattern = rng.getrandbits(num_inputs)
    flipped = list(tables)
    flipped[output] = TruthTable(num_inputs,
                                 tables[output].bits ^ (1 << pattern))
    found = first_mismatch(netlist.simulate, flipped)
    _check(found == pattern,
           f"first_mismatch found {found} after flipping pattern "
           f"{pattern:#x} of output {output}")


def check_window_splice(rng: random.Random) -> None:
    num_inputs = rng.randint(2, 18)
    netlist = random_netlist(rng, num_inputs, rng.randint(1, 12),
                             rng.randint(1, 3))
    tables = netlist.to_truth_tables()
    start = rng.randrange(netlist.num_gates)
    stop = rng.randint(start + 1, netlist.num_gates)
    window = analyze_window(netlist, start, stop)
    sub = extract_window(netlist, window)
    for label, replacement in (("extracted", sub), ("shrunk", sub.shrink())):
        result = realizes(splice_window(netlist, window, replacement),
                          tables)
        _check(result.equivalent is True,
               f"window [{start}, {stop}) of a {num_inputs}-input netlist, "
               f"spliced back {label}, changed the function (pattern "
               f"{result.counterexample})")


def run_round(seed: int, round_index: int) -> None:
    rng = round_rng(seed, round_index)
    num_inputs = rng.randint(1, 4)
    num_outputs = rng.randint(1, 3)
    num_gates = rng.randint(1, 10)

    spec = random_spec(rng, num_inputs, num_outputs)
    if rng.getrandbits(1):
        # Legal fan-out: children mutate through the reader table.
        netlist = insert_splitters(
            random_netlist(rng, num_inputs, num_gates, num_outputs))
    else:
        # Ports feeding several gate inputs: children take the route.
        netlist = random_rqfp(num_inputs, num_gates, num_outputs, rng)
    kernel = NetlistKernel.from_netlist(netlist)
    if rng.getrandbits(1):
        config = RcgpConfig(seed=round_index)  # paper defaults
    else:
        config = RcgpConfig(seed=round_index, mutation_rate=0.3,
                            max_mutated_genes=4)
    evaluator = Evaluator(spec, config)
    words, mask = evaluator._words, evaluator._mask

    check_codec(netlist)
    check_kernel_vs_object(netlist, kernel, words, mask)
    check_sat_vs_simulation(netlist, spec)
    check_formal_leg(netlist, spec, config)
    check_legality(netlist)
    # The UNSAT leg: a spec the netlist realizes by construction.
    check_sat_vs_simulation(netlist, netlist.to_truth_tables())
    check_formal_leg(netlist, netlist.to_truth_tables(), config)

    parent_obj, parent_ker = netlist, kernel
    for step in range(MUTATION_STEPS):
        mutation_seed = rng.getrandbits(48)
        rng_obj = random.Random(mutation_seed)
        rng_ker = random.Random(mutation_seed)
        table = port_readers(parent_ker)
        before = table._replace(
            reader=table.reader[:],
            outputs={p: list(u) for p, u in table.outputs.items()})
        child_obj, delta_obj = mutate_with_delta(parent_obj, rng_obj, config)
        child_ker, delta_ker = mutate_with_delta(
            parent_ker, rng_ker, config, consumers=table, rollback=True)
        _check(delta_obj == delta_ker,
               f"step {step}: mutation deltas diverged across "
               "representations")
        _check(rng_obj.getstate() == rng_ker.getstate(),
               f"step {step}: mutation made different RNG draws across "
               "representations")
        _, sibling_obj = mutate_with_delta(
            parent_obj, random.Random(mutation_seed + 1), config)
        _, sibling_ker = mutate_with_delta(
            parent_ker, random.Random(mutation_seed + 1), config,
            consumers=table, rollback=True)
        _check(sibling_obj == sibling_ker,
               f"step {step}: a second child of the shared table "
               "diverged from the object path")
        _check(table == before and table == port_readers(parent_ker),
               f"step {step}: mutation changed the shared reader table")
        _check(encode_genome(child_obj) == child_ker.to_genome(),
               f"step {step}: mutated genomes diverged across "
               "representations")
        check_kernel_vs_object(child_obj, child_ker, words, mask)
        check_incremental(evaluator, parent_obj, child_obj, delta_obj)
        check_incremental(evaluator, parent_ker, child_ker, delta_ker)
        check_early_stop(config, parent_obj, parent_ker, child_obj,
                         child_ker, delta_ker)
        check_legality(child_obj)
        parent_obj, parent_ker = child_obj, child_ker
    # Drawn last, so the legs above see the same round as before.
    check_chunked_tables(rng)
    check_window_splice(rng)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Differential fuzzing of kernel/object/incremental/"
                    "SAT/formal-leg/legality/chunking/window-splice "
                    "invariants.")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (each round derives its own "
                             "stream; default 0)")
    parser.add_argument("--rounds", type=int, default=50,
                        help="number of fuzz rounds (default 50)")
    parser.add_argument("--only", type=int, default=None, metavar="ROUND",
                        help="replay a single round index")
    parser.add_argument("--artifact-dir", default=".",
                        help="where to write fuzz_replay_*.json on "
                             "failure (default: cwd)")
    args = parser.parse_args(argv)

    rounds = [args.only] if args.only is not None else range(args.rounds)
    failures = 0
    for round_index in rounds:
        try:
            run_round(args.seed, round_index)
        except Exception as exc:  # mismatch OR unexpected crash: both bugs
            failures += 1
            replay = (f"PYTHONPATH=src python tools/fuzz_diff.py "
                      f"--seed {args.seed} --only {round_index}")
            print(f"FAIL round {round_index}: {type(exc).__name__}: {exc}")
            print(f"  replay: {replay}")
            artifact = os.path.join(
                args.artifact_dir, f"fuzz_replay_{round_index}.json")
            with open(artifact, "w") as handle:
                json.dump({"seed": args.seed, "round": round_index,
                           "error": f"{type(exc).__name__}: {exc}",
                           "replay": replay}, handle, indent=2)
            print(f"  artifact: {artifact}")
    total = len(list(rounds))
    if failures:
        print(f"{failures}/{total} rounds failed")
        return 1
    print(f"all {total} rounds clean "
          f"(seed {args.seed}, {MUTATION_STEPS} mutations/round)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
