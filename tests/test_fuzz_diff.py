"""Smoke coverage for the differential fuzz harness itself."""

import os
import sys

import pytest

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools")
sys.path.insert(0, _TOOLS)

import fuzz_diff  # noqa: E402


class TestFuzzDiff:
    def test_rounds_are_clean(self):
        for round_index in range(4):
            fuzz_diff.run_round(0, round_index)

    def test_round_rng_is_stable_and_independent(self):
        a = fuzz_diff.round_rng(0, 1).getrandbits(64)
        assert a == fuzz_diff.round_rng(0, 1).getrandbits(64)
        assert a != fuzz_diff.round_rng(0, 2).getrandbits(64)
        assert a != fuzz_diff.round_rng(1, 1).getrandbits(64)

    def test_detects_injected_divergence(self, monkeypatch, tmp_path):
        # Sabotage one differential leg; the harness must fail the
        # round, write a replay artifact and exit non-zero.
        monkeypatch.setattr(fuzz_diff.NetlistKernel, "levels",
                            lambda self: [-1])
        with pytest.raises(fuzz_diff.Mismatch):
            fuzz_diff.run_round(0, 0)
        rc = fuzz_diff.main(["--seed", "0", "--only", "0",
                             "--artifact-dir", str(tmp_path)])
        assert rc == 1
        assert (tmp_path / "fuzz_replay_0.json").exists()

    def test_cli_clean_run_exits_zero(self, capsys, tmp_path):
        assert fuzz_diff.main(["--seed", "0", "--rounds", "3",
                               "--artifact-dir", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out
