"""Unit tests for repro.logic.truth_table."""

import pytest

from repro.logic.bitops import full_mask, variable_pattern
from repro.logic.truth_table import (
    TruthTable,
    exhaustive_chunks,
    first_mismatch,
    tables_equal,
    tabulate_word,
)
from repro.networks.aig import lit
from repro.networks.mig import Mig
from repro.rqfp.gate import NUM_CONFIGS
from repro.rqfp.netlist import RqfpNetlist


class TestConstruction:
    def test_constant(self):
        assert TruthTable.constant(False, 3).bits == 0
        assert TruthTable.constant(True, 3).bits == 0xFF

    def test_variable(self):
        x0 = TruthTable.variable(0, 2)
        assert [x0.value(t) for t in range(4)] == [0, 1, 0, 1]

    def test_from_values(self):
        tt = TruthTable.from_values([0, 1, 1, 0])
        assert tt.num_vars == 2
        assert tt.bits == 0b0110

    def test_from_values_rejects_bad_length(self):
        with pytest.raises(ValueError):
            TruthTable.from_values([0, 1, 1])

    def test_from_function(self):
        xor = TruthTable.from_function(lambda a, b: a ^ b, 2)
        assert xor == TruthTable.from_values([0, 1, 1, 0])

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable(1, 0b100)

    def test_immutable(self):
        tt = TruthTable(1, 0b01)
        with pytest.raises(AttributeError):
            tt.bits = 3


class TestQueries:
    def test_evaluate(self):
        maj = TruthTable.from_function(lambda a, b, c: (a & b) | (a & c) | (b & c), 3)
        assert maj.evaluate([1, 1, 0]) == 1
        assert maj.evaluate([1, 0, 0]) == 0

    def test_count_ones(self):
        assert TruthTable.variable(0, 4).count_ones() == 8

    def test_is_constant(self):
        assert TruthTable.constant(True, 2).is_constant()
        assert not TruthTable.variable(0, 2).is_constant()

    def test_support(self):
        f = TruthTable.from_function(lambda a, b, c: a ^ c, 3)
        assert f.support() == [0, 2]
        assert f.depends_on(0) and not f.depends_on(1)

    def test_cofactors(self):
        f = TruthTable.from_function(lambda a, b: a & b, 2)
        neg, pos = f.cofactors(0)
        assert neg == TruthTable.constant(False, 2)
        assert pos == TruthTable.variable(1, 2)

    def test_minterms(self):
        f = TruthTable.from_values([0, 1, 0, 1])
        assert f.minterms() == [1, 3]


class TestOperators:
    def test_boolean_ops_pointwise(self, rng):
        for _ in range(50):
            n = rng.randint(1, 5)
            a = TruthTable(n, rng.getrandbits(1 << n))
            b = TruthTable(n, rng.getrandbits(1 << n))
            for t in range(1 << n):
                assert (a & b).value(t) == (a.value(t) & b.value(t))
                assert (a | b).value(t) == (a.value(t) | b.value(t))
                assert (a ^ b).value(t) == (a.value(t) ^ b.value(t))
                assert (~a).value(t) == 1 - a.value(t)

    def test_majority_mux(self, rng):
        n = 4
        a = TruthTable(n, rng.getrandbits(16))
        b = TruthTable(n, rng.getrandbits(16))
        c = TruthTable(n, rng.getrandbits(16))
        maj = TruthTable.majority(a, b, c)
        mux = TruthTable.mux(a, b, c)
        for t in range(16):
            av, bv, cv = a.value(t), b.value(t), c.value(t)
            assert maj.value(t) == (av & bv) | (av & cv) | (bv & cv)
            assert mux.value(t) == (cv if av else bv)

    def test_implies(self):
        a = TruthTable.from_function(lambda x, y: x & y, 2)
        b = TruthTable.from_function(lambda x, y: x | y, 2)
        assert a.implies(b)
        assert not b.implies(a)

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError):
            TruthTable.variable(0, 2) & TruthTable.variable(0, 3)


class TestTransforms:
    def test_extend_keeps_function(self):
        f = TruthTable.from_function(lambda a, b: a ^ b, 2)
        g = f.extend(4)
        for t in range(16):
            assert g.value(t) == f.value(t & 3)


class TestTabulateWord:
    def test_adder(self):
        tables = tabulate_word(lambda x: (x & 1) + ((x >> 1) & 1), 2, 2)
        assert tables[0] == TruthTable.from_function(lambda a, b: a ^ b, 2)
        assert tables[1] == TruthTable.from_function(lambda a, b: a & b, 2)

    def test_out_of_range_output_rejected(self):
        with pytest.raises(ValueError):
            tabulate_word(lambda x: 4, 2, 2)

    def test_tables_equal(self):
        a = tabulate_word(lambda x: x, 2, 2)
        b = tabulate_word(lambda x: x, 2, 2)
        assert tables_equal(a, b)
        assert not tables_equal(a, b[:1])


def _wide_netlist(num_inputs, rng):
    """A few random RQFP gates, each fed by the top input, so the outputs
    depend on an input above the first chunk."""
    netlist = RqfpNetlist(num_inputs, "wide")
    for g in range(8):
        limit = netlist.first_gate_port(g)
        netlist.add_gate(num_inputs, rng.randrange(limit),
                         rng.randrange(limit), rng.randrange(NUM_CONFIGS))
    for port in range(netlist.num_ports() - 3, netlist.num_ports()):
        netlist.add_output(port)
    return netlist


def _wide_mig(num_inputs, rng):
    mig = Mig(num_inputs, "wide")
    lits = [lit(node) for node in mig.inputs]
    for _ in range(8):
        a, b = rng.sample(lits, 2)
        lits.append(mig.add_maj(lits[num_inputs - 1], a ^ rng.getrandbits(1),
                                b ^ rng.getrandbits(1)))
    for literal in lits[-3:]:
        mig.add_output(literal)
    return mig


def _full_width_tables(network, num_inputs):
    words = [variable_pattern(i, num_inputs) for i in range(num_inputs)]
    return [TruthTable(num_inputs, word)
            for word in network.simulate(words, full_mask(num_inputs))]


class TestExhaustiveChunks:
    """Every exhaustive tabulation and mismatch search runs in chunks of
    ``2**16`` patterns."""

    def test_chunks_cover_every_pattern_once(self):
        assert len(list(exhaustive_chunks(16))) == 1
        chunks = list(exhaustive_chunks(18))
        assert [offset for offset, _, _ in chunks] == \
            [k << 16 for k in range(4)]
        for k, (_, words, mask) in enumerate(chunks):
            assert mask == full_mask(16)
            assert words[:16] == [variable_pattern(i, 16)
                                  for i in range(16)]
            assert words[16:] == [mask * (k & 1), mask * (k >> 1)]

    @pytest.mark.parametrize("num_inputs", [17, 18])
    @pytest.mark.parametrize("build", [_wide_netlist, _wide_mig])
    def test_chunked_tables_equal_full_width_simulation(
            self, rng, build, num_inputs):
        network = build(num_inputs, rng)
        tables = network.to_truth_tables()
        assert tables == _full_width_tables(network, num_inputs)
        assert any(t.depends_on(var) for t in tables
                   for var in range(16, num_inputs))

    def test_first_mismatch_finds_the_flipped_pattern(self, rng):
        netlist = _wide_netlist(18, rng)
        tables = netlist.to_truth_tables()
        assert first_mismatch(netlist.simulate, tables) is None
        for pattern in (0, 0x2BEEF, (1 << 18) - 1):
            wrong = list(tables)
            wrong[1] = TruthTable(18, tables[1].bits ^ (1 << pattern))
            assert first_mismatch(netlist.simulate, wrong) == pattern
