"""Independent output checker for RCGP synthesis results.

Every property is re-derived from the raw result data with code of this
file alone: the checker never calls ``RqfpNetlist.simulate``,
``validate_circuit`` or ``SynthesisResult.verify()``, so a defect in the
program's own simulator or legality checks cannot hide a wrong result.

Checked, for the final circuit and for the initialization baseline:

* exhaustive simulation against the specification, with a private
  ``MAJ(a^inv, b^inv, c^inv)`` evaluator over the inverter-bit layout of
  ``repro.rqfp.gate`` (most-significant three bits: majority 0, ports
  a, b, c);
* single fan-out of every port except the constant port 0;
* every gate's level above the levels of its gate fan-ins;
* ``n_b`` and ``n_d`` recomputed from ``plan.levels`` by the path-balancing
  formula of ``repro.rqfp.buffers``;
* ``n_r``, ``n_g`` and ``JJs = 24*n_r + 4*n_b``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

JJS_PER_GATE = 24
JJS_PER_BUFFER = 4

Gate = Tuple[int, int, int, int]  # (in0, in1, in2, config)


class Circuit(NamedTuple):
    """Plain data of one buffered circuit, as the program reported it."""

    num_inputs: int
    gates: List[Gate]
    outputs: List[int]
    levels: List[int]
    plan_depth: int
    plan_buffers: int
    n_r: int
    n_b: int
    n_d: int
    n_g: int
    jjs: int


def circuit_from(netlist, plan, cost) -> Circuit:
    """Copy the raw fields out of a netlist, its buffer plan and cost."""
    return Circuit(
        num_inputs=netlist.num_inputs,
        gates=[(g.in0, g.in1, g.in2, g.config) for g in netlist.gates],
        outputs=list(netlist.outputs),
        levels=list(plan.levels),
        plan_depth=plan.depth,
        plan_buffers=plan.num_buffers,
        n_r=cost.n_r, n_b=cost.n_b, n_d=cost.n_d, n_g=cost.n_g,
        jjs=cost.jjs)


def input_word(var: int, num_vars: int) -> int:
    """Bit ``t`` is bit ``var`` of the pattern index ``t``."""
    half = 1 << var
    word = ((1 << half) - 1) << half   # one period: 2^var zeros, 2^var ones
    length = 2 * half
    width = 1 << num_vars
    while length < width:
        word |= word << length
        length *= 2
    return word


def simulate(num_inputs: int, gates: Sequence[Gate],
             outputs: Sequence[int]) -> List[int]:
    """Exhaustive output words (``2**num_inputs`` bits each)."""
    mask = (1 << (1 << num_inputs)) - 1
    words = [mask] + [input_word(i, num_inputs) for i in range(num_inputs)]
    for in0, in1, in2, config in gates:
        a, b, c = words[in0], words[in1], words[in2]
        for m in range(3):
            inv = (config >> (6 - 3 * m)) & 7   # ports a, b, c of majority m
            x = a ^ mask if inv & 4 else a
            y = b ^ mask if inv & 2 else b
            z = c ^ mask if inv & 1 else c
            words.append((x & y) | (x & z) | (y & z))
    return [words[p] for p in outputs]


def check_circuit(circuit: Circuit, spec: Sequence[Tuple[int, int]],
                  label: str = "circuit") -> List[str]:
    """Every violation found in one circuit; empty means it passed.

    ``spec`` holds one ``(num_vars, bits)`` truth table per output.
    """
    issues: List[str] = []
    n = circuit.num_inputs
    base = n + 1
    gates = circuit.gates
    num_ports = base + 3 * len(gates)

    for g, gate in enumerate(gates):
        if not all(0 <= p < base + 3 * g for p in gate[:3]):
            issues.append(f"{label}: gate {g} reads a port that is not "
                          f"earlier in the netlist: {gate[:3]}")
        if not 0 <= gate[3] < 512:
            issues.append(f"{label}: gate {g} config {gate[3]} out of range")
    if not all(0 <= p < num_ports for p in circuit.outputs):
        issues.append(f"{label}: output port out of range")
    if issues:
        return issues

    if len(spec) != len(circuit.outputs) or \
            any(num_vars != n for num_vars, _ in spec):
        issues.append(f"{label}: shape {n} inputs/{len(circuit.outputs)} "
                      f"outputs does not match the specification")
    else:
        got = simulate(n, gates, circuit.outputs)
        wrong = [o for o, (word, (_, bits)) in enumerate(zip(got, spec))
                 if word != bits]
        if wrong:
            issues.append(f"{label}: outputs {wrong} differ from the "
                          f"specification")

    consumers = [0] * num_ports
    for gate in gates:
        for port in gate[:3]:
            consumers[port] += 1
    for port in circuit.outputs:
        consumers[port] += 1
    shared = [p for p in range(1, num_ports) if consumers[p] > 1]
    if shared:
        issues.append(f"{label}: fan-out above 1 on ports {shared[:8]}")

    levels = circuit.levels
    if len(levels) != len(gates):
        issues.append(f"{label}: {len(levels)} levels for "
                      f"{len(gates)} gates")
        return issues
    for g, gate in enumerate(gates):
        if levels[g] < 1:
            issues.append(f"{label}: gate {g} at level {levels[g]} < 1")
        for port in gate[:3]:
            if port >= base and levels[g] <= levels[(port - base) // 3]:
                issues.append(
                    f"{label}: gate {g} level {levels[g]} not above its "
                    f"fan-in gate {(port - base) // 3} level "
                    f"{levels[(port - base) // 3]}")

    depth = max(levels, default=0)
    buffers = 0
    for g, gate in enumerate(gates):
        for port in gate[:3]:
            if port >= base:
                buffers += levels[g] - levels[(port - base) // 3] - 1
            elif port:
                buffers += levels[g] - 1
    for port in circuit.outputs:
        if port >= base:
            buffers += depth - levels[(port - base) // 3]
        elif port:
            buffers += depth
    garbage = sum(1 for p in range(base, num_ports) if not consumers[p])

    expected = {"n_r": len(gates), "n_b": buffers, "n_d": depth,
                "n_g": garbage,
                "JJs": JJS_PER_GATE * len(gates) + JJS_PER_BUFFER * buffers,
                "plan.depth": depth, "plan.num_buffers": buffers}
    reported = {"n_r": circuit.n_r, "n_b": circuit.n_b, "n_d": circuit.n_d,
                "n_g": circuit.n_g, "JJs": circuit.jjs,
                "plan.depth": circuit.plan_depth,
                "plan.num_buffers": circuit.plan_buffers}
    for key, value in expected.items():
        if reported[key] != value:
            issues.append(f"{label}: {key} reported {reported[key]}, "
                          f"recomputed {value}")
    return issues


def check_result(result, spec: Sequence[Tuple[int, int]]) -> List[str]:
    """Check a ``SynthesisResult``: its final circuit and its baseline."""
    final = circuit_from(result.netlist, result.plan, result.cost)
    initial = circuit_from(result.initial.netlist, result.initial.plan,
                           result.initial.cost)
    return check_circuit(final, spec, "final") + \
        check_circuit(initial, spec, "initial")
