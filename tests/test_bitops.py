"""Unit tests for repro.logic.bitops."""

import pytest

from repro.logic.bitops import (
    bits_of,
    cofactor_masks,
    from_bits,
    full_mask,
    majority3,
    parity,
    popcount,
    variable_pattern,
)


class TestFullMask:
    def test_zero_vars(self):
        assert full_mask(0) == 1

    def test_small(self):
        assert full_mask(1) == 0b11
        assert full_mask(2) == 0b1111
        assert full_mask(3) == 0xFF

    def test_large(self):
        assert full_mask(10) == (1 << 1024) - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            full_mask(-1)


class TestVariablePattern:
    def test_var0_three_vars(self):
        assert variable_pattern(0, 3) == 0b10101010

    def test_var1_three_vars(self):
        assert variable_pattern(1, 3) == 0b11001100

    def test_var2_three_vars(self):
        assert variable_pattern(2, 3) == 0b11110000

    def test_pattern_bit_matches_index_bit(self):
        for n in range(1, 6):
            for v in range(n):
                pat = variable_pattern(v, n)
                for t in range(1 << n):
                    assert (pat >> t) & 1 == (t >> v) & 1

    def test_matches_per_bit_reference_up_to_12_vars(self):
        for n in range(1, 13):
            for v in range(n):
                reference = int("".join(str((t >> v) & 1)
                                        for t in reversed(range(1 << n))), 2)
                assert variable_pattern(v, n) == reference, (v, n)

    def test_twenty_vars_spot_check(self):
        import random
        rng = random.Random(20)
        for v in range(20):
            pat = variable_pattern(v, 20)
            assert pat.bit_length() == 1 << 20
            assert pat.bit_count() == 1 << 19
            assert pat & full_mask(12) == (variable_pattern(v, 12)
                                           if v < 12 else 0)
            for t in rng.sample(range(1 << 20), 64):
                assert (pat >> t) & 1 == (t >> v) & 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            variable_pattern(3, 3)
        with pytest.raises(ValueError):
            variable_pattern(-1, 3)


class TestPopcountParity:
    def test_popcount_basics(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount((1 << 100) - 1) == 100

    def test_popcount_negative(self):
        with pytest.raises(ValueError):
            popcount(-1)

    def test_parity(self):
        assert parity(0) == 0
        assert parity(0b111) == 1
        assert parity(0b1111) == 0


class TestBitsRoundTrip:
    def test_bits_of(self):
        assert bits_of(0b1101, 4) == [1, 0, 1, 1]

    def test_round_trip(self):
        for value in (0, 1, 0b1011, 255):
            assert from_bits(bits_of(value, 10)) == value

    def test_from_bits_rejects_non_binary(self):
        with pytest.raises(ValueError):
            from_bits([0, 2, 1])


class TestMajority3:
    def test_scalar_truth_table(self):
        expected = {(0, 0, 0): 0, (0, 0, 1): 0, (0, 1, 0): 0, (1, 0, 0): 0,
                    (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}
        for (a, b, c), want in expected.items():
            assert majority3(a, b, c) == want

    def test_bitwise(self):
        assert majority3(0b1100, 0b1010, 0b1001) == 0b1000


class TestCofactorMasks:
    def test_partition(self):
        for n in range(1, 5):
            for v in range(n):
                neg, pos = cofactor_masks(v, n)
                assert neg & pos == 0
                assert neg | pos == full_mask(n)
