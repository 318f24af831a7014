"""The end-of-run result gate (``repro.core.verify``).

The gate is deliberately *independent* of the fitness fast paths: it
decides equivalence of the final netlist on the object path by
fitness's rule (exhaustive simulation up to ``EXHAUSTIVE_FORMAL_LIMIT``
inputs, a sampled re-simulation and the SAT miter above) and validates
RQFP legality against the buffer plan.  These tests check both directions —
clean results pass and produce an accurate report; corrupted results
raise the precise typed exception.
"""

import pytest

import repro.core.fitness as fitness_mod
import repro.core.verify as verify_mod
from repro.api import Session, synthesize
from repro.bench.extras import one_hot_checker
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun, read_telemetry
from repro.core.synthesis import initialize_netlist
from repro.core.verify import (
    VerificationReport,
    realizes,
    verify_evolution_result,
)
from repro.errors import (
    EquivalenceViolation,
    FanoutViolation,
    ReproError,
    VerificationError,
    VerificationUndecided,
)
from repro.jobs import FAILED
from repro.logic.truth_table import TruthTable, tabulate_word
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.netlist import RqfpNetlist
from repro.rqfp.splitters import insert_splitters


def _decoder_spec():
    return tabulate_word(lambda x: 1 << x, 2, 4)


def _synthesized(spec, **overrides):
    kwargs = dict(generations=30, mutation_rate=0.1, seed=7,
                  shrink="always")
    kwargs.update(overrides)
    return synthesize(spec, RcgpConfig(**kwargs)).netlist


class TestGatePasses:
    def test_exhaustive_pass_skips_sat(self):
        spec = _decoder_spec()
        netlist = _synthesized(spec)
        report = verify_evolution_result(netlist, spec)
        assert isinstance(report, VerificationReport)
        assert report.exhaustive
        assert report.simulated_patterns == 4  # 2^2 inputs
        assert not report.sat_checked and report.sat_conflicts == 0
        assert report.plan is not None

    def test_sampled_pass_runs_sat(self, monkeypatch):
        spec = _decoder_spec()
        netlist = _synthesized(spec)
        monkeypatch.setattr(fitness_mod, "EXHAUSTIVE_FORMAL_LIMIT", 0)
        config = RcgpConfig(seed=7, simulation_patterns=32)
        report = verify_evolution_result(netlist, spec, config)
        assert not report.exhaustive
        assert report.simulated_patterns == verify_mod._GATE_PATTERNS
        assert report.sat_checked

    def test_gate_is_seed_stable(self, monkeypatch):
        spec = _decoder_spec()
        netlist = _synthesized(spec)
        monkeypatch.setattr(fitness_mod, "EXHAUSTIVE_FORMAL_LIMIT", 0)
        config = RcgpConfig()  # unseeded sampled
        assert verify_evolution_result(netlist, spec, config).sat_checked


class TestGateRejects:
    def test_wrong_function_raises_equivalence_violation(self):
        spec = _decoder_spec()
        netlist = _synthesized(spec)
        wrong = list(spec)
        wrong[0], wrong[1] = wrong[1], wrong[0]
        with pytest.raises(EquivalenceViolation):
            verify_evolution_result(netlist, wrong)

    def test_sampled_wrong_function_carries_counterexample(
            self, monkeypatch):
        spec = _decoder_spec()
        netlist = _synthesized(spec)
        wrong = list(spec)
        wrong[0], wrong[1] = wrong[1], wrong[0]
        monkeypatch.setattr(fitness_mod, "EXHAUSTIVE_FORMAL_LIMIT", 0)
        config = RcgpConfig(seed=7)
        with pytest.raises(EquivalenceViolation) as excinfo:
            verify_evolution_result(netlist, wrong, config)
        assert excinfo.value.counterexample is not None

    def test_illegal_fanout_raises_fanout_violation(self):
        # A legal function realized by an *illegal* netlist: one AND
        # gate whose output feeds two primary outputs.
        netlist = RqfpNetlist(2, "fanout")
        netlist.add_gate(1, 2, 0, NORMAL_CONFIG)  # AND(a, b)
        out = netlist.first_gate_port(0)
        netlist.add_output(out)
        netlist.add_output(out)
        spec = netlist.to_truth_tables()
        with pytest.raises(FanoutViolation):
            verify_evolution_result(netlist, spec)

    def test_undecided_sat_raises_verification_undecided(self, monkeypatch):
        spec = _decoder_spec()
        netlist = insert_splitters(_synthesized(spec))

        class _Undecided:
            equivalent = None
            counterexample = None
            conflicts = 123

        monkeypatch.setattr(verify_mod, "check_against_tables",
                            lambda *a, **k: _Undecided())
        monkeypatch.setattr(fitness_mod, "EXHAUSTIVE_FORMAL_LIMIT", 0)
        config = RcgpConfig(seed=7)
        with pytest.raises(VerificationUndecided):
            verify_evolution_result(netlist, spec, config)

    def test_typed_errors_share_the_verification_root(self):
        assert issubclass(EquivalenceViolation, VerificationError)
        assert issubclass(VerificationUndecided, VerificationError)


def _initialized(bits):
    spec = one_hot_checker(bits)
    return initialize_netlist(spec, f"onehot{bits}"), spec


class TestOneRule:
    """Every netlist-vs-spec check decides by fitness's rule: exhaustive
    simulation up to ``EXHAUSTIVE_FORMAL_LIMIT`` inputs (chunked above
    16), the SAT miter above."""

    @pytest.mark.parametrize("bits", [15, 16])
    def test_gate_decides_by_simulation_up_to_the_limit(self, bits):
        # One conflict is far too few for the miter: only simulation
        # can pass these.
        netlist, spec = _initialized(bits)
        report = verify_evolution_result(
            netlist, spec, RcgpConfig(sat_conflict_budget=1))
        assert report.exhaustive and not report.sat_checked
        assert report.sat_conflicts == 0
        assert report.simulated_patterns == 1 << bits

    def test_wrong_16_input_netlist_fails_by_simulation(self, monkeypatch):
        netlist, spec = _initialized(16)
        pattern = 0xBEEF  # the one pattern the wrong spec differs on
        wrong = [TruthTable(16, spec[0].bits ^ (1 << pattern))]

        def no_sat(*args, **kwargs):
            raise AssertionError("the gate ran the miter at 16 inputs")

        monkeypatch.setattr(verify_mod, "check_against_tables", no_sat)
        with pytest.raises(EquivalenceViolation) as excinfo:
            verify_evolution_result(netlist, wrong,
                                    RcgpConfig(sat_conflict_budget=1))
        cex = excinfo.value.counterexample
        assert cex == pattern
        words = [(cex >> i) & 1 for i in range(16)]
        assert netlist.simulate(words, 1)[0] != wrong[0].value(cex)

    def test_realizes_reads_the_limit_per_call(self, monkeypatch):
        netlist, spec = _initialized(16)
        assert realizes(netlist, spec, conflict_budget=1).method == \
            "simulation"
        monkeypatch.setattr(fitness_mod, "EXHAUSTIVE_FORMAL_LIMIT", 15)
        result = realizes(netlist, spec)
        assert result.method == "sat" and result.equivalent is True

    def test_realizes_rejects_an_interface_mismatch(self):
        netlist, spec = _initialized(15)
        with pytest.raises(VerificationError, match="interface mismatch"):
            realizes(netlist, spec + spec)

    def test_synthesis_result_verify_decides_through_realizes(
            self, monkeypatch):
        spec = _decoder_spec()
        result = synthesize(spec, RcgpConfig(generations=30, seed=7))
        calls = []
        real = verify_mod.realizes
        monkeypatch.setattr(
            "repro.core.synthesis.realizes",
            lambda *args, **kwargs: calls.append(kwargs) or
            real(*args, **kwargs))
        assert result.verify() is True
        assert calls == [{}]  # no conflict budget: always decided

    def test_cli_verify_decides_16_inputs_under_one_conflict(
            self, tmp_path, capsys):
        from repro.cli import main
        from repro.io.pla import write_pla
        from repro.io.rqfp_json import write_rqfp_json
        netlist, spec = _initialized(16)
        net_path = tmp_path / "onehot16.json"
        net_path.write_text(write_rqfp_json(netlist))
        pla_path = tmp_path / "onehot16.pla"
        pla_path.write_text(write_pla(spec))
        rc = main(["verify", str(net_path), str(pla_path),
                   "--conflicts", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("EQUIVALENT") and "exhaustive simulation" in out


class TestEngineIntegration:
    """The gate is the job's: it runs once, after the last slice, and
    a bare :class:`EvolutionRun` never gates."""

    def test_verify_result_flag_gates_the_run(self, tmp_path):
        path = tmp_path / "verify.jsonl"
        spec = _decoder_spec()
        config = RcgpConfig(generations=30, mutation_rate=0.1, seed=7,
                            shrink="always", verify_result=True,
                            telemetry_path=str(path))
        result = synthesize(spec, config)
        assert result.evolution.verified
        events = read_telemetry(str(path))
        tags = [e["event"] for e in events]
        assert tags.count("verify") == 1
        assert tags.index("verify") < tags.index("job_end")
        verify_event = events[tags.index("verify")]
        assert verify_event["exhaustive"] is True
        assert events[-1]["event"] == "job_end"
        assert events[-1]["verified"] is True
        end = [e for e in events if e["event"] == "run_end"][-1]
        assert "verified" not in end

    def test_gate_off_by_default(self, tmp_path):
        path = tmp_path / "off.jsonl"
        spec = _decoder_spec()
        config = RcgpConfig(generations=10, seed=7,
                            telemetry_path=str(path))
        result = synthesize(spec, config)
        assert not result.evolution.verified
        events = read_telemetry(str(path))
        assert "verify" not in [e["event"] for e in events]
        assert events[-1]["verified"] is False
        assert not EvolutionRun(spec, RcgpConfig(generations=10,
                                                 seed=7)).run().verified

    def test_corrupted_finalize_is_caught(self, monkeypatch):
        # Simulate a bug downstream of fitness: the job's final netlist
        # computes the wrong function.  The engine's own functional
        # check uses the (kernel/incremental) evaluator; the job's gate
        # must catch it independently and fail the job.
        spec = _decoder_spec()
        wrong_spec = tabulate_word(lambda x: (1 << x) ^ 0xF, 2, 4)
        donor = _synthesized(wrong_spec)
        with pytest.raises(EquivalenceViolation) as expected:
            verify_evolution_result(donor, spec)

        # The job passes the plan of its own netlist; the donor's is
        # solved again.
        real_verify = verify_mod.verify_evolution_result
        monkeypatch.setattr(
            verify_mod, "verify_evolution_result",
            lambda netlist, spec_, config=None, plan=None:
                real_verify(donor, spec_, config, None))
        config = RcgpConfig(generations=5, seed=7, verify_result=True)
        with Session() as session:
            job = session.submit(spec, config)
            session.run()
            assert job.state == FAILED
            assert job.record["error"] == str(expected.value)
            with pytest.raises(ReproError, match="failed"):
                job.result()


class TestCliPlumbing:
    def test_cli_exposes_verify_and_fault_knobs(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(
            ["synth", "design.v", "--verify",
             "--batch-timeout", "2.5", "--batch-retries", "5"])
        assert args.verify is True
        assert args.batch_timeout == 2.5
        assert args.batch_retries == 5

    def test_cli_defaults_leave_gate_off(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["synth", "design.v"])
        assert args.verify is False
        assert args.batch_timeout is None
        assert args.batch_retries == 2
