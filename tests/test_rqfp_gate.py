"""Unit tests for RQFP gate semantics (paper §2.1, Fig. 1)."""

import pytest

from repro.rqfp.gate import (
    INVERTER_CONFIG,
    JJS_PER_BUFFER,
    JJS_PER_GATE,
    NORMAL_CONFIG,
    NUM_CONFIGS,
    SPLITTER_CONFIG,
    check_config,
    config_from_string,
    config_to_string,
    gate_output_tables,
    gate_outputs,
    inverter_bit,
    is_reversible_config,
    normal_gate,
    splitter_outputs,
)


def _maj(a, b, c):
    return (a & b) | (a & c) | (b & c)


class TestNormalGate:
    def test_paper_definition(self):
        """R(a,b,c) = {M(!a,b,c), M(a,!b,c), M(a,b,!c)} — Fig. 1(a)."""
        for t in range(8):
            a, b, c = t & 1, (t >> 1) & 1, (t >> 2) & 1
            x, y, z = normal_gate(a, b, c)
            assert x == _maj(1 - a, b, c)
            assert y == _maj(a, 1 - b, c)
            assert z == _maj(a, b, 1 - c)

    def test_logical_reversibility(self):
        """The normal gate is a bijection on (a,b,c) — Takeuchi's result."""
        assert is_reversible_config(NORMAL_CONFIG)

    def test_self_inverse(self):
        """R(R(a,b,c)) = (a,b,c): the normal RQFP gate is an involution."""
        for t in range(8):
            a, b, c = t & 1, (t >> 1) & 1, (t >> 2) & 1
            assert normal_gate(*normal_gate(a, b, c)) == (a, b, c)

    def test_config_value(self):
        assert NORMAL_CONFIG == 0b100010001
        assert config_to_string(NORMAL_CONFIG) == "100-010-001"


class TestSplitterInverter:
    def test_splitter_copies(self):
        assert splitter_outputs(0) == (0, 0, 0)
        assert splitter_outputs(1) == (1, 1, 1)

    def test_splitter_bit_parallel(self):
        word = 0b1011
        assert splitter_outputs(word, mask=0b1111) == (word, word, word)

    def test_splitter_not_reversible(self):
        assert not is_reversible_config(SPLITTER_CONFIG)


class TestConfigEncoding:
    def test_string_round_trip(self):
        for config in (0, NORMAL_CONFIG, SPLITTER_CONFIG, 511, 352):
            assert config_from_string(config_to_string(config)) == config

    def test_paper_example_352(self):
        """'101-100-000' is 352 in the paper's mutation example."""
        assert config_from_string("101-100-000") == 352
        assert config_to_string(352) == "101-100-000"

    def test_paper_mutation_example(self):
        """352 ^ ((1<<3)+(1<<4)+(1<<5)) = 344 = '101-011-000'."""
        mutated = 352 ^ ((1 << 3) + (1 << 4) + (1 << 5))
        assert mutated == 344
        assert config_to_string(mutated) == "101-011-000"

    def test_bad_strings_rejected(self):
        with pytest.raises(ValueError):
            config_from_string("101-100")
        with pytest.raises(ValueError):
            config_from_string("101-100-002")

    def test_config_range(self):
        assert NUM_CONFIGS == 512  # the paper's n_f
        with pytest.raises(ValueError):
            check_config(512)
        with pytest.raises(ValueError):
            check_config(-1)

    def test_inverter_bit_layout(self):
        # NORMAL: inverter before port m of majority m.
        for m in range(3):
            for p in range(3):
                assert inverter_bit(NORMAL_CONFIG, m, p) == (1 if m == p else 0)

    def test_inverter_bit_bad_indices(self):
        with pytest.raises(ValueError):
            inverter_bit(0, 3, 0)


class TestGateSemantics:
    def test_512_distinct_configs_behave_consistently(self):
        """Every config's outputs must match the bit-by-bit definition."""
        for config in range(NUM_CONFIGS):
            for t in (0b000, 0b101, 0b111):
                a, b, c = t & 1, (t >> 1) & 1, (t >> 2) & 1
                outs = gate_outputs(a, b, c, config)
                for m in range(3):
                    ports = []
                    for p, v in enumerate((a, b, c)):
                        if inverter_bit(config, m, p):
                            v ^= 1
                        ports.append(v)
                    assert outs[m] == _maj(*ports)

    def test_bit_parallel_agrees_with_scalar(self, rng):
        for _ in range(50):
            config = rng.randrange(NUM_CONFIGS)
            mask = 0xFF
            a, b, c = (rng.getrandbits(8) for _ in range(3))
            wide = gate_outputs(a, b, c, config, mask)
            for bit in range(8):
                scalar = gate_outputs((a >> bit) & 1, (b >> bit) & 1,
                                      (c >> bit) & 1, config)
                assert tuple((w >> bit) & 1 for w in wide) == scalar

    def test_output_tables_count_functions(self):
        """gate_output_tables(NORMAL) are the three majority variants."""
        tables = gate_output_tables(NORMAL_CONFIG)
        assert len(tables) == 3
        assert len(set(tables)) == 3

    def test_and_from_constant_specialization(self):
        """R(a,b,1) with normal config: third output is AND (paper §3.1)."""
        for t in range(4):
            a, b = t & 1, (t >> 1) & 1
            x, y, z = normal_gate(a, b, 1)
            assert z == (a & b)
            assert x == ((1 - a) | b)
            assert y == (a | (1 - b))


class TestCostModel:
    def test_jj_constants(self):
        """24 JJ/gate + 4 JJ/buffer validated against Table 1 rows."""
        assert JJS_PER_GATE == 24 and JJS_PER_BUFFER == 4
        # full adder RCGP row: 3 gates, 2 buffers, 80 JJs.
        assert 24 * 3 + 4 * 2 == 80
        # alu RCGP row: 4 gates, 6 buffers, 120 JJs.
        assert 24 * 4 + 4 * 6 == 120
        # hwb8 initialization row: 1427 gates, 2727 buffers, 45156 JJs.
        assert 24 * 1427 + 4 * 2727 == 45156
