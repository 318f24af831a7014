"""Unit + property tests for RCGP mutation (§3.2.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.random_circuits import random_rqfp
from repro.bench.registry import get_benchmark
from repro.core import mutation
from repro.core.config import RcgpConfig
from repro.core.engine import encode_genome
from repro.core.kernel import NetlistKernel
from repro.core.mutation import (chromosome_length, mutate_with_delta,
                                 port_readers)
from repro.core.synthesis import initialize_netlist
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist
from repro.rqfp.splitters import insert_splitters


def _legal_parent(rng, num_inputs=3, num_gates=6, num_outputs=2):
    netlist = random_rqfp(num_inputs, num_gates, num_outputs, rng,
                          legal_fanout=True)
    return insert_splitters(netlist)


class TestChromosomeLength:
    def test_paper_formula(self):
        """n_L = 4 n_C + n_po; Fig. 3(a): 4 gates + 4 POs -> 20."""
        netlist = RqfpNetlist(2)
        for g in range(4):
            netlist.add_gate(CONST_PORT, CONST_PORT, CONST_PORT,
                             NORMAL_CONFIG)
        for _ in range(4):
            netlist.add_output(CONST_PORT)
        assert chromosome_length(netlist) == 20

    def test_shrink_reduces_length(self):
        """Fig. 3(c): removing a useless gate shrinks 20 -> 16."""
        netlist = RqfpNetlist(2)
        g0 = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
        netlist.add_gate(CONST_PORT, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g0, 0))
        assert chromosome_length(netlist) == 9
        assert chromosome_length(netlist.shrink()) == 5


class TestMutationInvariants:
    def test_parent_untouched(self, rng):
        parent = _legal_parent(rng)
        snapshot = parent.describe()
        config = RcgpConfig(mutation_rate=0.5, seed=1)
        for _ in range(20):
            mutate_with_delta(parent, rng, config)
        assert parent.describe() == snapshot

    def test_single_fanout_preserved_without_po_mutation(self, rng):
        """The swap rule keeps gate-input fan-out legal (paper case 1)."""
        config = RcgpConfig(mutation_rate=0.3, enable_output_mutation=False)
        for trial in range(40):
            parent = _legal_parent(rng)
            child = mutate_with_delta(parent, rng, config)[0]
            assert child.fanout_violations() == [], f"trial {trial}"

    def test_structure_stays_valid(self, rng):
        config = RcgpConfig(mutation_rate=0.5)
        for _ in range(40):
            parent = _legal_parent(rng)
            child = mutate_with_delta(parent, rng, config)[0]
            child.validate(require_single_fanout=False)

    def test_gate_and_output_counts_stable(self, rng):
        """Point mutation never changes the chromosome shape."""
        parent = _legal_parent(rng)
        config = RcgpConfig(mutation_rate=1.0)
        child = mutate_with_delta(parent, rng, config)[0]
        assert child.num_gates == parent.num_gates
        assert child.num_outputs == parent.num_outputs

    def test_zero_rate_mutates_at_least_one_gene(self, rng):
        """m is drawn from [1, max(1, round(mu * n_L))], so even mu=0
        attempts one gene (it may be a no-op resample)."""
        parent = _legal_parent(rng)
        config = RcgpConfig(mutation_rate=0.0)
        mutate_with_delta(parent, rng, config)  # must not raise


class TestMutationKinds:
    def test_inverter_mutation_only_changes_configs(self, rng):
        parent = _legal_parent(rng)
        config = RcgpConfig(mutation_rate=0.4,
                            enable_input_mutation=False,
                            enable_output_mutation=False)
        child = mutate_with_delta(parent, rng, config)[0]
        for pg, cg in zip(parent.gates, child.gates):
            assert pg.inputs == cg.inputs
        assert child.outputs == parent.outputs

    def test_output_mutation_only_changes_outputs(self, rng):
        parent = _legal_parent(rng)
        config = RcgpConfig(mutation_rate=0.6,
                            enable_input_mutation=False,
                            enable_inverter_mutation=False)
        child = mutate_with_delta(parent, rng, config)[0]
        for pg, cg in zip(parent.gates, child.gates):
            assert pg.inputs == cg.inputs and pg.config == cg.config

    def test_input_mutation_changes_some_connection(self, rng):
        config = RcgpConfig(mutation_rate=1.0,
                            enable_output_mutation=False,
                            enable_inverter_mutation=False)
        changed = 0
        for _ in range(20):
            parent = _legal_parent(rng)
            child = mutate_with_delta(parent, rng, config)[0]
            if any(pg.inputs != cg.inputs
                   for pg, cg in zip(parent.gates, child.gates)):
                changed += 1
        assert changed > 10  # heavily mutated offspring must differ

    def test_all_kinds_disabled_rejected(self):
        with pytest.raises(ValueError):
            RcgpConfig(enable_input_mutation=False,
                       enable_output_mutation=False,
                       enable_inverter_mutation=False)

    def test_inverter_flip_is_single_bit(self, rng):
        parent = _legal_parent(rng)
        # Force exactly one mutation by using a tiny chromosome rate.
        config = RcgpConfig(mutation_rate=1e-9,
                            enable_input_mutation=False,
                            enable_output_mutation=False)
        for _ in range(30):
            child = mutate_with_delta(parent, rng, config)[0]
            diffs = [bin(pg.config ^ cg.config).count("1")
                     for pg, cg in zip(parent.gates, child.gates)]
            assert sum(diffs) in (0, 1)


class TestSwapRule:
    def test_swap_reuses_displaced_port(self):
        """Paper Fig. 3 example: mutating a taken port swaps the genes."""
        netlist = RqfpNetlist(2)
        g0 = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
        g1 = netlist.add_gate(netlist.gate_output_port(g0, 0),
                              netlist.gate_output_port(g0, 1),
                              CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g1, 0))
        # Mutate many times with inputs only; fan-out must stay legal and
        # the multiset of used source ports can only shuffle.
        rng = random.Random(7)
        config = RcgpConfig(mutation_rate=0.9, enable_output_mutation=False,
                            enable_inverter_mutation=False)
        parent = netlist
        for _ in range(100):
            child = mutate_with_delta(parent, rng, config)[0]
            assert child.fanout_violations() == []
            child.validate(require_single_fanout=True)
            parent = child


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(0.01, 1.0))
def test_mutation_fuzz(seed, rate):
    rng = random.Random(seed)
    parent = insert_splitters(
        random_rqfp(3, 5, 2, rng, legal_fanout=True))
    config = RcgpConfig(mutation_rate=rate)
    child = mutate_with_delta(parent, rng, config)[0]
    child.validate(require_single_fanout=False)
    # Gate-input fan-out can only be violated through PO genes.
    violations = child.fanout_violations()
    consumers = child.consumers()
    for port in violations:
        kinds = [kind for kind, _, _ in consumers[port]]
        assert "po" in kinds, "gate-only fan-out violation: swap rule broken"


class TestMutationCap:
    def test_cap_limits_gene_changes(self, rng):
        """With max_mutated_genes=1 at mu=1, at most one gene differs."""
        parent = _legal_parent(rng, num_gates=8)
        config = RcgpConfig(mutation_rate=1.0, max_mutated_genes=1)
        for _ in range(25):
            child = mutate_with_delta(parent, rng, config)[0]
            diffs = 0
            for pg, cg in zip(parent.gates, child.gates):
                diffs += sum(a != b for a, b in zip(pg.inputs, cg.inputs))
                diffs += pg.config != cg.config
            diffs += sum(a != b for a, b in zip(parent.outputs, child.outputs))
            # A single input mutation may swap a second gene (paper rule 1).
            assert diffs <= 2

    def test_cap_never_below_one(self, rng):
        parent = _legal_parent(rng)
        config = RcgpConfig(mutation_rate=0.0, max_mutated_genes=0)
        mutate_with_delta(parent, rng, config)  # must not raise


# ----------------------------------------------------------------------
# Kernel loop vs object path at paper scale
#
# The engine mutates flat kernels through the fused loop in
# ``_mutate_kernel``; the object path is its oracle.  At the paper's
# defaults (mu = 1, uncapped) a child of intdiv9 rewires hundreds of
# genes, reaching the constant-port skip, the reader-table stores, the
# copy-on-write PO lists and every swap-rule branch many times per call.

PAPER_CIRCUITS = ("intdiv7", "intdiv8", "intdiv9", "mod5adder")
MUTATION_CONFIGS = {
    "paper": RcgpConfig(),
    "tuned": RcgpConfig(mutation_rate=0.08, max_mutated_genes=8),
    "no_input": RcgpConfig(enable_input_mutation=False),
    "no_inverter": RcgpConfig(enable_inverter_mutation=False),
    "no_output": RcgpConfig(enable_output_mutation=False),
}
CHAIN_GENERATIONS = 3
BROOD = 2


@pytest.fixture(scope="module")
def initial_netlists():
    cache = {}

    def get(name):
        if name not in cache:
            benchmark = get_benchmark(name)
            cache[name] = initialize_netlist(benchmark.spec(), benchmark.name)
        return cache[name]
    return get


def _same_mutation(netlist, kernel, config, seed):
    """Mutate both representations with one seed, through every shared
    view; returns the (object, kernel) children."""
    rng_n, rng_k = random.Random(seed), random.Random(seed)
    child_n, delta_n = mutate_with_delta(netlist, rng_n, config)
    child_k, delta_k = mutate_with_delta(kernel, rng_k, config)
    assert isinstance(child_k, NetlistKernel)
    assert delta_k == delta_n
    assert child_k.to_genome() == encode_genome(child_n)
    assert rng_k.getstate() == rng_n.getstate()  # same number of draws

    # Shared reader table: the whole brood only reads it, so it still
    # equals a fresh build from the parent.
    shared = port_readers(kernel)
    for i in range(BROOD):
        _, delta = mutate_with_delta(kernel, random.Random(seed + i),
                                     config, consumers=shared,
                                     rollback=True)
        if i == 0:
            assert delta == delta_n
        assert shared == port_readers(kernel)

    # Shared netlist map, rolled back: the brood leaves it as it was.
    shared_n = netlist.consumers()
    for i in range(BROOD):
        _, delta = mutate_with_delta(netlist, random.Random(seed + i),
                                     config, consumers=shared_n,
                                     rollback=True)
        if i == 0:
            assert delta == delta_n
        assert shared_n == netlist.consumers()  # list order included
        assert all(shared_n.values()), "empty consumer list left behind"

    # Owned netlist map: becomes the child's map (in edit order).
    owned_n = netlist.consumers()
    _, delta = mutate_with_delta(netlist, random.Random(seed), config,
                                 consumers=owned_n)
    assert delta == delta_n
    assert {port: sorted(users) for port, users in owned_n.items()} == \
        {port: sorted(users)
         for port, users in child_n.consumers().items()}
    assert all(owned_n.values())
    return child_n, child_k


class TestKernelLoopMatchesObjectPath:
    @pytest.mark.parametrize("circuit", PAPER_CIRCUITS)
    @pytest.mark.parametrize("label", sorted(MUTATION_CONFIGS))
    def test_chained_generations(self, initial_netlists, circuit, label):
        config = MUTATION_CONFIGS[label]
        netlist = initial_netlists(circuit)
        kernel = NetlistKernel.from_netlist(netlist)
        for generation in range(CHAIN_GENERATIONS):
            netlist, kernel = _same_mutation(
                netlist, kernel, config, 1000 * generation + 17)

    def test_random_netlists_with_shared_ports(self):
        """Random netlists break single fan-out, so ports carry several
        gate and PO consumers and the first-consumer order matters."""
        for trial in range(20):
            netlist = random_rqfp(4, 14, 3, random.Random(trial))
            kernel = NetlistKernel.from_netlist(netlist)
            for label in ("paper", "no_input", "no_output"):
                _same_mutation(netlist, kernel, MUTATION_CONFIGS[label],
                               trial)

    def test_ports_read_by_several_outputs(self):
        """Outputs crowded onto three ports no gate reads: a gate input
        that picks one swaps with its first PO, in list order, and the
        edits keep reordering those lists."""
        for trial in range(20):
            rng = random.Random(trial)
            netlist = random_rqfp(4, 12, 2, rng, legal_fanout=True)
            fed = {port for gate in netlist.gates for port in gate.inputs}
            free = [port for port in range(1, netlist.num_ports())
                    if port not in fed]
            for _ in range(10):
                netlist.add_output(rng.choice(free[:3]))
            kernel = NetlistKernel.from_netlist(netlist)
            assert not port_readers(kernel).shared
            for generation in range(CHAIN_GENERATIONS):
                netlist, kernel = _same_mutation(
                    netlist, kernel, MUTATION_CONFIGS["paper"],
                    100 * trial + generation)

    def test_getrandbits_subclass_sees_the_same_draws(self, initial_netlists):
        class CountingRandom(random.Random):
            calls = 0

            def getrandbits(self, k):
                self.calls += 1
                return super().getrandbits(k)

        netlist = initial_netlists("intdiv7")
        kernel = NetlistKernel.from_netlist(netlist)
        rng_n, rng_k = CountingRandom(5), CountingRandom(5)
        _, delta_n = mutate_with_delta(netlist, rng_n, RcgpConfig())
        _, delta_k = mutate_with_delta(kernel, rng_k, RcgpConfig())
        assert delta_k == delta_n
        assert rng_k.calls == rng_n.calls > 100

    def test_rng_without_getrandbits_draws_is_rejected(self):
        """A subclass overriding only ``random()`` draws integers from
        floats; the kernel loop cannot reproduce that stream."""
        class FloatRandom(random.Random):
            def random(self):
                return super().random()

        netlist = random_rqfp(3, 6, 2, random.Random(1))
        mutate_with_delta(netlist, FloatRandom(1), RcgpConfig())  # fine
        with pytest.raises(TypeError, match="getrandbits"):
            mutate_with_delta(NetlistKernel.from_netlist(netlist),
                              FloatRandom(1), RcgpConfig())


ROUTE_GENERATIONS = 200


class TestObjectRoute:
    """A kernel parent in which a non-constant port feeds two or more
    gate inputs is mutated through the object path; the paper's circuits
    and their children never are."""

    @pytest.mark.parametrize("circuit", PAPER_CIRCUITS)
    def test_paper_chain_never_takes_the_route(self, initial_netlists,
                                               circuit, monkeypatch):
        def route(*args):
            raise AssertionError("a kernel parent took the object route")

        monkeypatch.setattr(mutation, "_mutate_netlist", route)
        kernel = NetlistKernel.from_netlist(initial_netlists(circuit))
        rng = random.Random(11)
        for _ in range(ROUTE_GENERATIONS):
            table = port_readers(kernel)
            assert not table.shared
            kernel, _ = mutate_with_delta(kernel, rng, RcgpConfig(),
                                          consumers=table, rollback=True)

    def test_shared_port_parent_matches_object_path(self, monkeypatch):
        routed = []
        object_path = mutation._mutate_netlist

        def spy(child, *args):
            routed.append(child)
            return object_path(child, *args)

        monkeypatch.setattr(mutation, "_mutate_netlist", spy)
        checked = 0
        for trial in range(20):
            netlist = random_rqfp(4, 14, 3, random.Random(trial))
            netlist.name = "shared"
            kernel = NetlistKernel.from_netlist(netlist)
            if not port_readers(kernel).shared:
                continue
            before = kernel.to_genome()
            rng_n, rng_k = random.Random(trial), random.Random(trial)
            child_n, delta_n = mutate_with_delta(
                netlist, rng_n, MUTATION_CONFIGS["paper"])
            del routed[:]
            child_k, delta_k = mutate_with_delta(
                kernel, rng_k, MUTATION_CONFIGS["paper"])
            assert len(routed) == 1 and isinstance(routed[0], RqfpNetlist)
            assert delta_k == delta_n
            assert child_k.to_genome() == encode_genome(child_n)
            assert rng_k.getstate() == rng_n.getstate()
            assert kernel.to_genome() == before
            assert (child_k.name, child_k.input_names,
                    child_k.output_names) == \
                (kernel.name, kernel.input_names, kernel.output_names)
            checked += 1
        assert checked >= 15
