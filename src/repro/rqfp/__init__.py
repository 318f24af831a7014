"""RQFP technology substrate: gate semantics, netlists, legalization."""

from .buffer_opt import optimal_levels
from .buffers import BufferPlan, estimate_buffers
from .from_mig import mig_to_rqfp
from .gate import (
    INVERTER_CONFIG,
    JJS_PER_BUFFER,
    JJS_PER_GATE,
    NORMAL_CONFIG,
    NUM_CONFIGS,
    SPLITTER_CONFIG,
    config_from_string,
    config_to_string,
    gate_output_tables,
    gate_outputs,
    inverter_bit,
    is_reversible_config,
    normal_gate,
    splitter_outputs,
)
from .metrics import CircuitCost, circuit_cost, garbage_lower_bound
from .netlist import CONST_PORT, RqfpGate, RqfpNetlist
from .simplify import bypass_wire_gates, wire_targets
from .splitters import count_required_splitters, insert_splitters
from .validate import check_circuit, path_balance_violations, validate_circuit

__all__ = [
    "RqfpNetlist",
    "RqfpGate",
    "CONST_PORT",
    "NORMAL_CONFIG",
    "SPLITTER_CONFIG",
    "INVERTER_CONFIG",
    "NUM_CONFIGS",
    "JJS_PER_GATE",
    "JJS_PER_BUFFER",
    "gate_outputs",
    "gate_output_tables",
    "normal_gate",
    "splitter_outputs",
    "inverter_bit",
    "is_reversible_config",
    "config_to_string",
    "config_from_string",
    "insert_splitters",
    "bypass_wire_gates",
    "wire_targets",
    "count_required_splitters",
    "BufferPlan",
    "estimate_buffers",
    "optimal_levels",
    "CircuitCost",
    "circuit_cost",
    "garbage_lower_bound",
    "mig_to_rqfp",
    "validate_circuit",
    "check_circuit",
    "path_balance_violations",
]
