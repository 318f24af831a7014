"""Netlist / specification I/O: BLIF, AIGER, Verilog, PLA, .real, JSON."""

from .bench_format import parse_bench, read_bench, write_bench
from .aiger import (
    parse_aiger,
    parse_aiger_binary,
    read_aiger,
    write_aiger,
    write_aiger_binary,
)
from .blif import parse_blif, read_blif, write_blif
from .limits import MAX_INPUTS
from .pla import parse_pla, read_pla, write_pla
from .real import parse_real, read_real, write_real
from .rqfp_verilog import write_rqfp_verilog
from .rqfp_json import (
    netlist_from_dict,
    netlist_to_dict,
    read_rqfp_json,
    write_rqfp_json,
)
from .verilog import parse_verilog, read_verilog, write_verilog

__all__ = [
    "MAX_INPUTS",
    "parse_blif", "read_blif", "write_blif",
    "parse_bench", "read_bench", "write_bench",
    "parse_aiger", "read_aiger", "write_aiger",
    "parse_aiger_binary", "write_aiger_binary",
    "parse_verilog", "read_verilog", "write_verilog",
    "parse_pla", "read_pla", "write_pla",
    "parse_real", "read_real", "write_real",
    "netlist_to_dict", "netlist_from_dict",
    "read_rqfp_json", "write_rqfp_json",
    "write_rqfp_verilog",
]
