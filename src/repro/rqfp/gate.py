"""RQFP gate semantics.

An RQFP logic gate (Takeuchi et al.) is three AQFP splitters feeding
three 3-input AQFP majority gates: inputs ``(a, b, c)`` fan out to all
three majorities, and a programmable inverter may sit in front of every
majority input port — 9 inverter bits, hence the paper's ``n_f = 512``
gate functions.  Output ``m`` is::

    out[m] = MAJ(a ^ inv(m,0), b ^ inv(m,1), c ^ inv(m,2))

The 9-bit *inverter configuration* is laid out exactly like the paper's
``"101-100-000"`` strings: the most-significant 3 bits are majority 0's
port inverters (ports a, b, c left to right), then majority 1, then
majority 2.  The paper's mutation ``f' = f XOR (1 << beta)`` with
``beta in [0, 9)`` therefore flips one inverter.

Named configurations:

* ``NORMAL_CONFIG``  (``100-010-001``) — the logically reversible gate
  ``R(a,b,c) = {M(!a,b,c), M(a,!b,c), M(a,b,!c)}``;
* ``SPLITTER_CONFIG`` (``000-000-000``) — with inputs ``(1, x, 0)`` all
  three outputs equal ``x``: the RQFP splitter ``R(1,x,0) = {x,x,x}``;
* ``BUFFER_CONFIG`` — same as the splitter (an RQFP buffer is two
  cascaded AQFP buffers; at netlist level we model buffers separately in
  :mod:`repro.rqfp.buffers` since they are not logic gates).
"""

from __future__ import annotations

from typing import List, Tuple

from ..logic.bitops import majority3

NUM_CONFIG_BITS = 9
NUM_CONFIGS = 1 << NUM_CONFIG_BITS  # 512 — the paper's n_f

NORMAL_CONFIG = 0b100_010_001  # 273, printed "100-010-001"

# The paper presents the splitter as R(1, x, 0) with no inverters.  At
# netlist level only the constant **1** exists as a port (Fig. 3 indexes
# it 0), so the canonical netlist splitter is R(1, x, 1) with an inverter
# before the third port of every majority: M(1, x, !1) = M(1, x, 0) = x.
SPLITTER_CONFIG = 0b001_001_001  # 73, printed "001-001-001"

# An inverting splitter: M(!x, 0, 1) = !x on all three majorities, used
# to realize complemented primary outputs / the RQFP inverter.
INVERTER_CONFIG = 0b110_110_110  # with inputs (x, 1, 1): M(!x, !1, 1) = !x

# JJ cost model from the paper's experimental section: a buffer and a
# splitter have 2 JJs each and a 3-input majority 6 JJs, so an RQFP gate
# (3 splitters + 3 majorities) has 24 JJs and an RQFP buffer (2 cascaded
# AQFP buffers) has 4 JJs.
JJS_PER_GATE = 24
JJS_PER_BUFFER = 4


def check_config(config: int) -> int:
    """Validate an inverter configuration."""
    if not 0 <= config < NUM_CONFIGS:
        raise ValueError(f"inverter config {config} outside [0, {NUM_CONFIGS})")
    return config


def inverter_bit(config: int, majority: int, port: int) -> int:
    """Inverter presence before ``port`` of ``majority`` (both 0-based)."""
    check_config(config)
    if not 0 <= majority < 3 or not 0 <= port < 3:
        raise ValueError(f"majority/port out of range: {majority}/{port}")
    return (config >> (8 - (3 * majority + port))) & 1


def config_to_string(config: int) -> str:
    """Render like the paper: ``"101-100-000"``."""
    check_config(config)
    text = format(config, "09b")
    return f"{text[0:3]}-{text[3:6]}-{text[6:9]}"


def config_from_string(text: str) -> int:
    """Parse a ``"101-100-000"``-style configuration string."""
    clean = text.replace("-", "").replace("_", "").strip()
    if len(clean) != 9 or set(clean) - {"0", "1"}:
        raise ValueError(f"bad inverter configuration string {text!r}")
    return int(clean, 2)


def gate_outputs(a: int, b: int, c: int, config: int,
                 mask: int = 1) -> Tuple[int, int, int]:
    """Bit-parallel evaluation of one RQFP gate.

    ``a``, ``b``, ``c`` are simulation words (any width up to ``mask``);
    pass ``mask=1`` for scalar 0/1 evaluation.  Returns the three output
    words.
    """
    check_config(config)
    inputs = (a & mask, b & mask, c & mask)
    outs = []
    for m in range(3):
        ports = []
        for p in range(3):
            v = inputs[p]
            if (config >> (8 - (3 * m + p))) & 1:
                v ^= mask
            ports.append(v)
        outs.append(majority3(*ports) & mask)
    return outs[0], outs[1], outs[2]


def gate_output_tables(config: int) -> List[int]:
    """The three 3-input truth tables (8-bit ints) of a configuration.

    Bit ``t`` of table ``m`` is output ``m`` under pattern ``t``
    (LSB = input a).  Useful for function classification and tests.
    """
    tables = [0, 0, 0]
    for t in range(8):
        a, b, c = t & 1, (t >> 1) & 1, (t >> 2) & 1
        outs = gate_outputs(a, b, c, config)
        for m in range(3):
            if outs[m]:
                tables[m] |= 1 << t
    return tables


def is_reversible_config(config: int) -> bool:
    """True iff the configured gate is a bijection on (a, b, c).

    The normal RQFP configuration is reversible; many of the 512
    configurations are not (e.g. the splitter), which is exactly why
    garbage outputs appear in RQFP circuits built from specialized gates.
    """
    seen = set()
    for t in range(8):
        a, b, c = t & 1, (t >> 1) & 1, (t >> 2) & 1
        seen.add(gate_outputs(a, b, c, config))
    return len(seen) == 8


def normal_gate(a: int, b: int, c: int, mask: int = 1) -> Tuple[int, int, int]:
    """``R(a,b,c)`` with the normal (reversible) configuration."""
    return gate_outputs(a, b, c, NORMAL_CONFIG, mask)


def splitter_outputs(x: int, mask: int = 1) -> Tuple[int, int, int]:
    """``R(1, x, 1)`` with :data:`SPLITTER_CONFIG` — three copies of ``x``."""
    return gate_outputs(mask, x, mask, SPLITTER_CONFIG, mask)
