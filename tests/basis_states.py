"""Register marshalling for single basis states, the tests' reference path.

``core.execute`` takes and returns one basis state, a plain int whose bit
``i`` is wire ``i``.  These helpers pack register values into such a state
and unpack them again, bit by bit, so that ``execute_lanes`` can be checked
against a path that shares none of its packing.
"""
from qimrot.core import Netlist, execute


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
