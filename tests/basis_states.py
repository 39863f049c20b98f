"""The tests' reference path over ``Gate`` tuples.

``execute`` takes and returns one basis state, a plain int whose bit ``i`` is
wire ``i``, and walks ``Netlist.gates`` one gate at a time.  ``state`` and
``register_value`` pack register values into such a state and unpack them
again, bit by bit, so that ``execute_lanes`` can be checked against a path
that shares none of its packing; ``assert_ancillas_clean`` checks ``run``'s
outputs.  ``dump_netlist`` is the text the netlist digests hash, and
``netlist_of_gates`` builds a netlist's columns from hand-made gates.
"""
from qimrot.core import CircuitStructureError, Netlist

_COMPILED = "_reference_masks"  # where compiled() keeps its masks on a netlist


def compiled(netlist: Netlist) -> list[tuple[int, int, int]]:
    """Per gate: (mask of on-1 controls, mask of on-0 controls, target flip mask).

    Made on first call and kept on the netlist, as ``Netlist.gates`` is.
    """
    cached = vars(netlist).get(_COMPILED)
    if cached is None:
        cached = []
        for _, target, controls, _ in netlist.gates:
            m1 = m0 = 0
            for wire, on in controls:
                if on:
                    m1 |= 1 << wire
                else:
                    m0 |= 1 << wire
            cached.append((m1, m0, 1 << target))
        vars(netlist)[_COMPILED] = cached
    return cached


def execute(netlist: Netlist, state: int) -> int:
    """Apply the gate sequence to a basis state and return the image state."""
    if not 0 <= state < 1 << netlist.num_wires:
        raise CircuitStructureError(
            f"basis state {state} outside a {netlist.num_wires}-wire netlist"
        )
    for m1, m0, flip in compiled(netlist):
        if state & m1 == m1 and not state & m0:
            state ^= flip
    return state


def state(netlist: Netlist, **register_values: int) -> int:
    """Build a basis state from register values; unnamed registers are zero."""
    bits = 0
    for name, value in register_values.items():
        ids = netlist.registers[name]
        if not 0 <= value < (1 << len(ids)):
            raise ValueError(f"value {value} does not fit register {name!r} of width {len(ids)}")
        for k, wire in enumerate(ids):
            bits |= ((value >> k) & 1) << wire
    return bits


def register_value(netlist: Netlist, bits: int, name: str) -> int:
    """Read one register's value out of a basis state."""
    value = 0
    for k, wire in enumerate(netlist.registers[name]):
        value |= ((bits >> wire) & 1) << k
    return value


def run(netlist: Netlist, **inputs: int) -> dict[str, int]:
    """Execute on register-valued inputs and return all register values."""
    out = execute(netlist, state(netlist, **inputs))
    return {name: register_value(netlist, out, name) for name in netlist.registers}


def assert_ancillas_clean(netlist: Netlist, outputs: dict[str, int]) -> None:
    """Every ancilla register of ``netlist`` left ``run`` at zero."""
    for name in netlist.ancillas:
        assert outputs[name] == 0, f"ancilla {name} left at {outputs[name]}"


def dump_netlist(netlist: Netlist) -> str:
    """Textual dump, one gate per line: KIND target controls.

    Controls carry a ``!`` prefix when they fire on \\|0>.
    """
    labels = netlist.labels
    lines = []
    for gate in netlist.gates:
        parts = [gate.kind, labels[gate.target]]
        for wire, on in gate.controls:
            parts.append(("" if on else "!") + labels[wire])
        lines.append(" ".join(parts))
    return "\n".join(lines)


def netlist_of_gates(labels, gates, registers, ancillas=frozenset()) -> Netlist:
    """A netlist from ``Gate`` tuples: each goes into the four columns, its
    controls stored as the wire on |1> and the complement ``~wire`` on |0>."""
    columns = ([], [], [], [])
    for _, target, controls, overhead in gates:
        signed = [None, None]
        for k, (wire, on) in enumerate(controls):
            if wire < 0:  # its complement would read as a control on |0>
                raise CircuitStructureError(f"gate control {wire} outside wire table")
            signed[k] = wire if on else ~wire
        for column, value in zip(columns, (target, *signed, overhead)):
            column.append(value)
    return Netlist(labels, columns, registers, ancillas)
