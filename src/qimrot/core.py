"""Reversible NOT/CNOT/Toffoli netlists with classical basis-state execution.

Every gate supported here flips a single target bit when all of its controls
match their polarity, so a netlist is a permutation of computational basis
states.  That is the only semantics this package needs: the image circuits
are basis permutations, and superposed inputs follow by linearity without
ever materialising amplitudes.  A wire is its index, and a basis state is a
plain int whose bit ``i`` is wire ``i``.

A netlist keeps its gates as four flat columns, one entry per gate: the
target wire, the first control, the second control and the overhead flag.
A control that fires on \\|1> is its wire, one that fires on \\|0> is the
complement ``~wire``, and a missing control is ``None``, so the gate's kind
is its number of controls.  Building, walking and pricing a netlist make no
Python object per gate.  ``Netlist.gates`` makes plain named tuples
``Gate(kind, target, controls, overhead)`` from the columns on first read;
only the tests and the benchmark's tracer read them.  Gates are checked where
they are made: each ``NetlistBuilder`` method checks the gate it emits, and a
``Netlist`` checks every wire against its table.

One executor.  ``execute_lanes`` runs many basis states at once,
bit-sliced, straight from the columns: wire ``i`` is one int whose bit ``j``
is that wire in lane ``j``, so the netlist is walked once for every lane.
Registers go in and come out as int64 columns, one value per lane.  The
single-state reference it is checked against lives in the tests
(``tests/basis_states.py``): it walks the ``Gate`` tuples and shares no code
with it.

Cost accounting uses CNOT-equivalents: NOT and CNOT count 1, a Toffoli counts
6, and each control-on-0 polarity adds 2 (one basis flip before and one
after).  Gates may be tagged ``overhead`` at construction time; the audit
module reports core and overhead totals separately.  A builder can also name
stretches of its gates (``NetlistBuilder.span``), and
``core_and_overhead_cost`` prices any gate range, so one netlist can be priced
segment by segment.
"""
from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from functools import cached_property
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

NOT = "NOT"
CNOT = "CNOT"
TOFFOLI = "TOFFOLI"

#: CNOT-equivalents of a gate by its number of controls: NOT, CNOT, Toffoli
_BASE_COST = (1, 1, 6)
POLARITY_SURCHARGE = 2


class CircuitStructureError(ValueError):
    """A netlist, gate, or basis state is structurally malformed."""


#: One reversible primitive, as ``Netlist.gates`` reads it off the columns.
#: ``controls`` holds ``(wire, polarity)`` pairs, polarity 1 firing on |1> and 0
#: on |0>; ``overhead`` marks plumbing that core cost accounting leaves out.
Gate = namedtuple("Gate", "kind target controls overhead", defaults=((), False))


def _control(signed: int) -> tuple[int, int]:
    """A column control as a ``(wire, polarity)`` pair."""
    return (signed, 1) if signed >= 0 else (~signed, 0)


def _refuse(target: int, controls: tuple[tuple[int, int], ...]) -> None:
    """Raise for a gate that a builder method's quick check turned down."""
    for wire, polarity in controls:
        if polarity not in (0, 1):
            raise CircuitStructureError(f"bad control polarity {polarity!r}")
        if wire == target:
            raise CircuitStructureError(f"wire {wire} is both control and target")
    # a column would read a negative wire as a complemented control
    wire = min((target, *(wire for wire, _ in controls)))
    raise CircuitStructureError(f"wire {wire} is negative")


class Netlist:
    """An ordered gate list over labelled wires, with named registers.

    Immutable after construction.  ``columns`` holds the gates as four
    tuples (target, first control, second control, overhead flag; see the
    module docstring).  Register wire lists are least significant bit first.
    ``ancillas`` names registers that must enter and leave every execution at
    zero; builders uphold that contract and tests verify it.  ``spans`` maps a
    name to the ``(start, stop)`` gate ranges recorded under it, in the order
    they closed.  Spans are metadata: equality ignores them.
    """

    def __init__(
        self,
        labels: Iterable[str],
        columns: Iterable[Iterable],
        registers: Mapping[str, tuple[int, ...]],
        ancillas: Iterable[str] = frozenset(),
        spans: Mapping[str, Iterable[tuple[int, int]]] = MappingProxyType({}),
    ) -> None:
        self.labels = tuple(labels)
        self.columns = tuple(tuple(column) for column in columns)
        self.registers = dict(registers)
        self.ancillas = frozenset(ancillas)
        self.spans = MappingProxyType({name: tuple(ranges) for name, ranges in spans.items()})
        self._validate()

    def _validate(self) -> None:
        n = len(self.labels)
        targets, firsts, seconds, _ = self.columns
        if targets and not (0 <= min(targets) and max(targets) < n):
            wire = next(wire for wire in targets if not 0 <= wire < n)
            raise CircuitStructureError(f"gate target {wire} outside wire table")
        # wire w reads as w on |1> and ~w on |0>: in the table exactly when in [-n, n)
        for column in (firsts, seconds):
            signed = [c for c in column if c is not None]
            if signed and not (-n <= min(signed) and max(signed) < n):
                wire = next(_control(c)[0] for c in signed if not -n <= c < n)
                raise CircuitStructureError(f"gate control {wire} outside wire table")
        for name, ids in self.registers.items():
            for wire in ids:
                if not 0 <= wire < n:
                    raise CircuitStructureError(f"register {name!r} references wire {wire}")
        for name in self.ancillas:
            if name not in self.registers:
                raise CircuitStructureError(f"ancilla register {name!r} not in table")
        for name, ranges in self.spans.items():
            for start, stop in ranges:
                if not 0 <= start <= stop <= len(targets):
                    raise CircuitStructureError(f"span {name!r} ({start}, {stop}) outside the gates")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Netlist):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.columns == other.columns
            and self.registers == other.registers
            and self.ancillas == other.ancillas
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Netlist({len(self.labels)} wires, {len(self.columns[0])} gates, "
            f"registers={list(self.registers)})"
        )

    @property
    def num_wires(self) -> int:
        return len(self.labels)

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The gates as ``Gate`` tuples, made from the columns on first read."""
        gates = []
        for target, first, second, plumbing in zip(*self.columns):
            if first is None:
                kind, controls = NOT, ()
            elif second is None:
                kind, controls = CNOT, (_control(first),)
            else:
                kind, controls = TOFFOLI, (_control(first), _control(second))
            gates.append(Gate(kind, target, controls, plumbing))
        return tuple(gates)

    def _fitting_wires(self, name: str, *values: int) -> tuple[int, ...]:
        """The register's wires, once every value is known to fit it."""
        ids = self.registers.get(name)
        if ids is None:
            raise CircuitStructureError(f"no register named {name!r}")
        for value in values:
            if not 0 <= value < (1 << len(ids)):
                raise ValueError(
                    f"value {value} does not fit register {name!r} of width {len(ids)}"
                )
        return ids


def execute_lanes(
    netlist: Netlist,
    lanes: int,
    inputs: Mapping[str, int | np.ndarray],
    outputs: Iterable[str],
) -> dict[str, np.ndarray]:
    """Apply the gate sequence to ``lanes`` basis states at once.

    Bit-sliced execution (Biham, FSE 1997): each wire is one Python int
    whose bit ``i`` is that wire in lane ``i``, so every gate runs once for
    all lanes.  An input is an int64 column with one value per lane, or an
    int that every lane starts from; unnamed registers start at zero.
    Returns each register of ``outputs`` (at most 63 wires wide) as an int64
    column.  Lane ``i`` ends exactly where a gate-by-gate walk of lane
    ``i``'s state alone takes it.
    """
    everyone = (1 << lanes) - 1
    nbytes = (lanes + 7) // 8
    wires = [0] * netlist.num_wires
    for name, value in inputs.items():
        if isinstance(value, np.ndarray):
            if value.shape != (lanes,):
                raise ValueError(
                    f"register {name!r} takes a column of {lanes} lanes, got shape {value.shape}"
                )
            extremes = (int(value.min()), int(value.max())) if lanes else ()
            ids = netlist._fitting_wires(name, *extremes)
            for k, wire in enumerate(ids):
                bits = np.packbits((value >> k).astype(np.uint8) & 1, bitorder="little")
                wires[wire] = int.from_bytes(bits.tobytes(), "little")
        else:
            ids = netlist._fitting_wires(name, value)
            for k, wire in enumerate(ids):
                wires[wire] = everyone if (value >> k) & 1 else 0
    targets, firsts, seconds, _ = netlist.columns
    for target, first, second in zip(targets, firsts, seconds):
        if first is None:
            fire = everyone
        else:
            fire = wires[first] if first >= 0 else everyone ^ wires[~first]
            if second is not None:
                fire &= wires[second] if second >= 0 else ~wires[~second]
        if fire:
            wires[target] ^= fire
    columns = {}
    for name in outputs:
        ids = netlist.registers[name]
        # gather in the narrowest dtype that holds the register: fewer bytes per pass
        narrow = np.min_scalar_type((1 << len(ids)) - 1)
        column = np.zeros(lanes, dtype=narrow)
        for k, wire in enumerate(ids):
            bits = np.frombuffer(wires[wire].to_bytes(nbytes, "little"), dtype=np.uint8)
            column |= np.left_shift(np.unpackbits(bits, count=lanes, bitorder="little"), k, dtype=narrow)
        columns[name] = column.astype(np.int64)
    return columns


def invert(netlist: Netlist) -> Netlist:
    """Reverse the gate order.  Every primitive is self-inverse, so the
    result takes every output state of the original back to its input.  The
    result has no spans."""
    return Netlist(
        netlist.labels,
        [column[::-1] for column in netlist.columns],
        netlist.registers,
        netlist.ancillas,
    )


def cost(netlist: Netlist) -> int:
    """Total CNOT-equivalent count, polarity surcharges included."""
    return sum(core_and_overhead_cost(netlist))


def core_and_overhead_cost(
    netlist: Netlist, start: int = 0, stop: int | None = None
) -> tuple[int, int]:
    """Split the cost of gates[start:stop] into (core, overhead).

    Core counts non-overhead gates at their base kind cost.  Overhead counts
    overhead-tagged gates plus every polarity surcharge, i.e. all the control
    and uncomputation plumbing the closed-form core counts exclude.  The
    columns are read in place, never copied.
    """
    core = overhead = 0
    _, firsts, seconds, flags = netlist.columns
    for second, plumbing in zip(islice(seconds, start, stop), islice(flags, start, stop)):
        # NOT and CNOT cost the same, so the second control alone sets the price
        price = _BASE_COST[1 if second is None else 2]
        if plumbing:
            overhead += price
        else:
            core += price
    # a control on |0> is stored complemented, so negative
    on_zero = sum(1 for column in (firsts, seconds)
                  for c in islice(column, start, stop) if c is not None and c < 0)
    return core, overhead + POLARITY_SURCHARGE * on_zero


class NetlistBuilder:
    """Incremental netlist construction with named, contiguous registers.

    Gates go straight into the four columns a ``Netlist`` holds.
    """

    def __init__(self) -> None:
        self._labels: list[str] = []
        # target, first control, second control, overhead flag
        self._columns: tuple[list, list, list, list] = ([], [], [], [])
        self._registers: dict[str, tuple[int, ...]] = {}
        self._ancillas: set[str] = set()
        self._spans: dict[str, list[tuple[int, int]]] = {}
        self._overhead_depth = 0

    def register(self, name: str, width: int, ancilla: bool = False) -> list[int]:
        if name in self._registers:
            raise CircuitStructureError(f"register {name!r} already declared")
        if width < 1:
            raise ValueError(f"register width must be positive, got {width}")
        start = len(self._labels)
        ids = list(range(start, start + width))
        self._labels.extend(f"{name}[{k}]" for k in range(width))
        self._registers[name] = tuple(ids)
        if ancilla:
            self._ancillas.add(name)
        return ids

    @contextmanager
    def overhead(self) -> Iterator[None]:
        """Emit gates tagged as overhead while the context is active."""
        self._overhead_depth += 1
        try:
            yield
        finally:
            self._overhead_depth -= 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the gates emitted while the context is active as one
        ``(start, stop)`` range under ``name``; the netlist's ``spans`` keeps
        them.  Spans may nest, and a name may recur: its ranges are kept in
        the order they close."""
        start = self.mark()
        yield
        self._spans.setdefault(name, []).append((start, self.mark()))

    # Each method fixes its gate's kind and arity, so only the wires and
    # polarities need checking; a failure goes through _refuse for its message.

    def _emit(self, target: int, first: int | None, second: int | None) -> None:
        targets, firsts, seconds, flags = self._columns
        targets.append(target)
        firsts.append(first)
        seconds.append(second)
        flags.append(self._overhead_depth > 0)

    def x(self, target: int) -> None:
        if target < 0:
            _refuse(target, ())
        self._emit(target, None, None)

    def cx(self, control: int, target: int, on: int = 1) -> None:
        if control == target or on not in (0, 1) or control < 0 or target < 0:
            _refuse(target, ((control, on),))
        self._emit(target, control if on else ~control, None)

    def ccx(self, c1: int, c2: int, target: int, on1: int = 1, on2: int = 1) -> None:
        if (target == c1 or target == c2 or on1 not in (0, 1) or on2 not in (0, 1)
                or c1 < 0 or c2 < 0 or target < 0):
            _refuse(target, ((c1, on1), (c2, on2)))
        self._emit(target, c1 if on1 else ~c1, c2 if on2 else ~c2)

    def mark(self) -> int:
        """Checkpoint into the gate list, for reverse_tail/append_inverse_of."""
        return len(self._columns[0])

    def reverse_tail(self, mark: int) -> None:
        """Reverse the gates emitted since ``mark`` in place.

        Reversing a freshly emitted block turns it into its inverse, which is
        how subtractors are derived from adders.  Spans that closed since
        ``mark`` keep their ranges, so they no longer frame the same gates.
        """
        for column in self._columns:
            column[mark:] = reversed(column[mark:])

    def append_inverse_of(self, start: int, stop: int) -> None:
        """Append the inverse of gates[start:stop], tagged as overhead.

        Used for uncomputation passes: they restore working registers but are
        not part of any core gate count.
        """
        targets, firsts, seconds, flags = self._columns
        for column in (targets, firsts, seconds):
            column.extend(reversed(column[start:stop]))
        flags.extend([True] * (stop - start))

    def build(self) -> Netlist:
        return Netlist(self._labels, self._columns, self._registers, self._ancillas, self._spans)
