"""Additional CLI coverage: sweep, table 2, stats on rule-violating
netlists."""

import json

from repro.cli import build_parser, main
from repro.io.rqfp_json import write_rqfp_json
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist


class TestSweepCommand:
    def test_sweep_prints_summary(self, capsys):
        rc = main(["sweep", "decoder_2_4", "--seeds", "2",
                   "--generations", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "decoder_2_4 over seeds [0, 1]" in out
        assert "n_r" in out and "JJs" in out

    def test_sweep_extra_benchmark(self, capsys):
        rc = main(["sweep", "adder2", "--seeds", "2",
                   "--generations", "40"])
        assert rc == 0
        assert "adder2" in capsys.readouterr().out


class TestTable2Command:
    def test_subset_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("RCGP_BENCH_GENERATIONS", "50")
        rc = main(["table", "2", "graycode6", "--no-exact"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "graycode6" in out


class TestStatsOnViolations:
    def test_fanout_violating_netlist_reports_dirty(self, capsys, tmp_path):
        netlist = RqfpNetlist(1, "dirty")
        gate = netlist.add_gate(1, 1, CONST_PORT, NORMAL_CONFIG)  # PI twice
        netlist.add_output(netlist.gate_output_port(gate, 0))
        path = tmp_path / "dirty.json"
        path.write_text(write_rqfp_json(netlist))
        rc = main(["stats", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "fan-out" in out


class TestParserHelp:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("synth", "bench", "exact", "table", "sweep",
                        "verify", "stats", "list"):
            assert command in text
