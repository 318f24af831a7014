"""Unit tests for the extra benchmark families."""

import pytest

from repro.bench.extras import (
    EXTRA_BENCHMARKS,
    extra_spec,
    multiplier,
    one_hot_checker,
    parity,
    rd,
    rd53,
    ripple_adder,
    sym,
    sym6,
)
from repro.logic.bitops import popcount


class TestWeightFunctions:
    def test_rd53_counts_ones(self):
        spec = rd53()
        assert len(spec) == 3
        for x in range(32):
            got = sum(spec[i].value(x) << i for i in range(3))
            assert got == popcount(x)

    def test_rd_overflow_rejected(self):
        with pytest.raises(ValueError):
            rd(8, 3)  # weight 8 does not fit 3 bits


class TestSymmetric:
    def test_sym6_interval(self):
        spec = sym6()[0]
        for x in range(64):
            assert spec.value(x) == int(2 <= popcount(x) <= 4)

    def test_symmetry_property(self, rng):
        """A symmetric function is invariant under input permutation."""
        spec = sym(5, 1, 3)[0]
        for _ in range(20):
            x = rng.randrange(32)
            # Rotate the bits — weight preserved, value must match.
            rotated = ((x << 1) | (x >> 4)) & 31
            assert spec.value(x) == spec.value(rotated)

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            sym(4, 3, 2)


class TestArithmetic:
    def test_adder_values(self):
        spec = ripple_adder(3)
        assert len(spec) == 4
        for x in range(64):
            a, b = x & 7, (x >> 3) & 7
            got = sum(spec[i].value(x) << i for i in range(4))
            assert got == a + b

    def test_multiplier_values(self):
        spec = multiplier(2)
        for x in range(16):
            a, b = x & 3, (x >> 2) & 3
            got = sum(spec[i].value(x) << i for i in range(4))
            assert got == a * b

    def test_parity(self):
        spec = parity(6)[0]
        for x in (0, 1, 0b111, 0b101010):
            assert spec.value(x) == popcount(x) % 2

    def test_one_hot(self):
        spec = one_hot_checker(4)[0]
        assert spec.value(0b0100) == 1
        assert spec.value(0b0110) == 0
        assert spec.value(0) == 0

    def test_bad_widths(self):
        with pytest.raises(ValueError):
            ripple_adder(0)
        with pytest.raises(ValueError):
            multiplier(0)


class TestRegistry:
    def test_all_extras_build(self):
        for name in EXTRA_BENCHMARKS:
            spec = extra_spec(name)
            assert spec and all(t.num_vars == spec[0].num_vars for t in spec)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            extra_spec("nope")

    def test_extras_synthesize(self):
        """A couple of extras run end-to-end through RCGP."""
        from repro.api import synthesize
        from repro.core import RcgpConfig
        for name in ("rd53", "adder2"):
            result = synthesize(extra_spec(name),
                                RcgpConfig(generations=80, seed=2,
                                           shrink="always"),
                                name=name)
            assert result.verify()
