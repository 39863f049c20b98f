import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qimrot.core import (
    CircuitStructureError,
    Gate,
    Netlist,
    NetlistBuilder,
    core_and_overhead_cost,
    cost,
    execute_lanes,
    invert,
)
from qimrot.arithmetic import build_adder, build_ctrl_multi, build_interpolation, build_self_adder
from qimrot.shear_netlists import (
    build_shear_netlist,
    build_uniform_half_shear,
    build_uniform_horizontal_shear,
)

from basis_states import dump_netlist, execute, netlist_of_gates, register_value, run, state


def single_not_netlist():
    nb = NetlistBuilder()
    nb.register("w", 1)
    nb.x(0)
    return nb.build()


def test_empty_netlist_is_identity():
    nl = NetlistBuilder()
    nl.register("r", 3)
    nl = nl.build()
    for s in range(8):
        assert execute(nl, s) == s


def test_single_not_flips_wire():
    nl = single_not_netlist()
    assert execute(nl, 0) == 1
    assert execute(nl, 1) == 0


def test_adder_netlist_example():
    # gate path must match plain integer addition
    assert run(build_adder(3), a=5, b=2)["b"] == 7


def test_control_polarity_fires_on_zero():
    nb = NetlistBuilder()
    nb.register("c", 1)
    nb.register("t", 1)
    nb.cx(0, 1, on=0)
    nl = nb.build()
    assert execute(nl, state(nl, c=0, t=0)) == state(nl, c=0, t=1)
    assert execute(nl, state(nl, c=1, t=0)) == state(nl, c=1, t=0)


def test_toffoli_semantics():
    nb = NetlistBuilder()
    nb.register("r", 3)
    nb.ccx(0, 1, 2)
    nl = nb.build()
    for bits in range(8):
        out = execute(nl, bits)
        want = bits ^ (0b100 if bits & 0b11 == 0b11 else 0)
        assert out == want


class TestInvert:
    def test_involution(self):
        nl = build_adder(2)
        assert invert(invert(nl)) == nl

    def test_single_cnot_self_inverse(self):
        nb = NetlistBuilder()
        nb.register("r", 2)
        nb.cx(0, 1)
        nl = nb.build()
        assert invert(nl) == nl

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_adder_inverted_subtracts_exhaustively(self, n):
        add = build_adder(n)
        sub = invert(add)
        for a in range(1 << n):
            for b in range(1 << n):
                summed = execute(add, state(add, a=a, b=b))
                back = execute(sub, summed)
                assert back == state(add, a=a, b=b)
                assert register_value(add, summed, "b") == a + b

    def test_round_trip_over_library_netlists(self):
        for nl in (build_adder(3), build_self_adder(4), build_interpolation(2),
                   build_ctrl_multi(2, 2)):
            inv = invert(nl)
            for s in range(0, 1 << nl.num_wires, 97):
                assert execute(inv, execute(nl, s)) == s


class TestCost:
    def test_empty_netlist_costs_zero(self):
        nb = NetlistBuilder()
        nb.register("r", 1)
        assert cost(nb.build()) == 0

    def test_toffoli_costs_six(self):
        nb = NetlistBuilder()
        nb.register("r", 3)
        nb.ccx(0, 1, 2)
        assert cost(nb.build()) == 6

    def test_control_on_zero_cnot_costs_three(self):
        nb = NetlistBuilder()
        nb.register("r", 2)
        nb.cx(0, 1, on=0)
        assert cost(nb.build()) == 3


@pytest.mark.parametrize("nl", [build_adder(3), build_self_adder(4),
                                build_interpolation(2), build_ctrl_multi(1, 1)],
                         ids=["adder3", "selfadder4", "interp2", "multi11"])
def test_execution_is_a_permutation(nl):
    """Exhaustive injectivity over every basis state (netlists of <= 12 wires)."""
    assert nl.num_wires <= 12
    seen = set()
    for bits in range(1 << nl.num_wires):
        out = execute(nl, bits)
        assert out not in seen
        seen.add(out)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_round_trip_property(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    builder = data.draw(st.sampled_from([build_adder, build_self_adder, build_interpolation]))
    nl = builder(n)
    s = data.draw(st.integers(min_value=0, max_value=(1 << nl.num_wires) - 1))
    assert execute(invert(nl), execute(nl, s)) == s


class TestStructuralErrors:
    def test_gate_wire_outside_table(self):
        with pytest.raises(CircuitStructureError):
            netlist_of_gates(("w[0]",), (Gate("NOT", 5),), {"w": (0,)})

    @pytest.mark.parametrize("control", [(3, 1), (3, 0), (-1, 1), (-1, 0)])
    def test_gate_control_outside_table(self, control):
        with pytest.raises(CircuitStructureError, match="gate control -?[13] outside wire table"):
            netlist_of_gates(("w[0]", "w[1]", "w[2]"), (Gate("CNOT", 0, (control,)),),
                             {"w": (0, 1, 2)})

    def test_state_width_mismatch(self):
        nl = single_not_netlist()
        for state in (2, -1):  # a bit beyond the one wire; no two's-complement states
            with pytest.raises(CircuitStructureError):
                execute(nl, state)

    def test_register_value_overflow(self):
        nl = build_adder(2)
        with pytest.raises(ValueError):
            state(nl, a=4)


class TestBuilderChecks:
    """The builder is the one place a gate is checked: each method refuses a bad
    gate before it reaches the columns, with a message naming the fault."""

    @pytest.mark.parametrize("emit, message", [
        (lambda nb: nb.cx(1, 1), "wire 1 is both control and target"),
        (lambda nb: nb.ccx(0, 1, 1), "wire 1 is both control and target"),
        (lambda nb: nb.ccx(1, 0, 1), "wire 1 is both control and target"),
        (lambda nb: nb.cx(0, 1, on=2), "bad control polarity 2"),
        (lambda nb: nb.ccx(0, 1, 2, on1=-1), "bad control polarity -1"),
        (lambda nb: nb.ccx(0, 1, 2, on2=2), "bad control polarity 2"),
        # a negative wire would read as a control on |0> in the columns
        (lambda nb: nb.cx(-1, 0), "wire -1 is negative"),
        (lambda nb: nb.ccx(0, -2, 1), "wire -2 is negative"),
        (lambda nb: nb.ccx(-3, 0, 1, on1=0), "wire -3 is negative"),
        (lambda nb: nb.cx(0, -1), "wire -1 is negative"),
        (lambda nb: nb.x(-1), "wire -1 is negative"),
        # two faults: each control's polarity, then its wire, then negative wires
        (lambda nb: nb.cx(1, 1, on=2), "bad control polarity 2"),
        (lambda nb: nb.ccx(1, 0, 1, on2=2), "wire 1 is both control and target"),
        (lambda nb: nb.cx(-1, -1), "wire -1 is both control and target"),
    ], ids=["cx-onto-its-control", "ccx-onto-c2", "ccx-onto-c1", "cx-on-2", "ccx-on1-minus-1",
            "ccx-on2-2", "cx-control-minus-1", "ccx-c2-minus-2", "ccx-c1-minus-3-on-0",
            "cx-target-minus-1", "x-minus-1", "cx-on-2-onto-its-control",
            "ccx-onto-c1-then-on2-2", "cx-minus-1-onto-itself"])
    def test_bad_gate_is_refused(self, emit, message):
        nb = NetlistBuilder()
        nb.register("w", 3)
        with pytest.raises(CircuitStructureError, match=f"^{message}$"):
            emit(nb)
        assert nb.build().gates == ()

    def test_append_inverse_of_reverses_the_slice_as_overhead(self):
        nb = NetlistBuilder()
        nb.register("w", 3)
        nb.x(0)
        nb.cx(0, 1)
        nb.ccx(0, 1, 2, on2=0)
        with nb.overhead():
            nb.cx(2, 0)
        nb.append_inverse_of(1, nb.mark())
        gates = nb.build().gates
        assert len(gates) == 7
        assert all(isinstance(g, Gate) for g in gates)
        assert [g.overhead for g in gates] == [False, False, False, True, True, True, True]
        for made, inverse in zip(gates[1:4], reversed(gates[4:])):
            assert (inverse.kind, inverse.target, inverse.controls) == (
                made.kind, made.target, made.controls,
            )


def image_netlist_variants(n):
    """The eight digest-pinned image netlists of one width."""
    for axis in ("horizontal", "vertical"):
        for sign in (1, -1):
            for order in ("tb", "bt"):
                yield build_shear_netlist(n, axis, sign, order)


@pytest.mark.parametrize("n", range(1, 7))
def test_gate_tuples_round_trip_through_the_columns(n):
    for netlist in image_netlist_variants(n):
        rebuilt = netlist_of_gates(netlist.labels, netlist.gates, netlist.registers,
                                   netlist.ancillas)
        assert rebuilt == netlist
        assert rebuilt.gates == netlist.gates
        assert invert(netlist).gates == tuple(reversed(netlist.gates))


def reference_cost(netlist, start=0, stop=None):
    """(core, overhead) of gates[start:stop] summed over the ``Gate`` tuples, as
    the module docstring states it."""
    core = overhead = 0
    for gate in netlist.gates[start:stop]:
        base = 6 if gate.kind == "TOFFOLI" else 1
        if gate.overhead:
            overhead += base
        else:
            core += base
        overhead += 2 * sum(on == 0 for _, on in gate.controls)
    return core, overhead


AUDIT_BUILDERS = {
    "self_adder": lambda n, m: build_self_adder(n),
    "adder": lambda n, m: build_adder(n),
    "interpolation": lambda n, m: build_interpolation(n),
    "ctrl_multi": build_ctrl_multi,
    "top_half_shear": build_uniform_half_shear,
    "full_horizontal_shear": build_uniform_horizontal_shear,
}


@pytest.mark.parametrize("kind", AUDIT_BUILDERS)
def test_column_cost_is_the_sum_over_gate_tuples(kind):
    for n in range(1, 7):
        for m in range(4, 9):
            netlist = AUDIT_BUILDERS[kind](n, m)
            assert core_and_overhead_cost(netlist) == reference_cost(netlist), (n, m)


def test_column_cost_counts_every_control_on_zero():
    nb = NetlistBuilder()
    nb.register("w", 3)
    nb.ccx(0, 1, 2, on1=0, on2=0)
    nb.cx(0, 1, on=0)
    with nb.overhead():
        nb.x(2)
    netlist = nb.build()
    assert core_and_overhead_cost(netlist) == reference_cost(netlist) == (7, 1 + 3 * 2)


@pytest.mark.parametrize("kind", AUDIT_BUILDERS)
def test_range_cost_is_the_sum_over_gate_tuples_of_the_range(kind):
    for n in range(1, 5):
        for m in range(4, 7):
            netlist = AUDIT_BUILDERS[kind](n, m)
            end = len(netlist.gates)
            ranges = [(0, 0), (0, 1), (1, None), (end // 3, 2 * end // 3), (end, None)]
            ranges += [r for spans in netlist.spans.values() for r in spans]
            for start, stop in ranges:
                want = reference_cost(netlist, start, stop)
                assert core_and_overhead_cost(netlist, start, stop) == want, (n, m, start, stop)


class TestSpans:
    def test_builder_records_nested_and_recurring_spans(self):
        nb = NetlistBuilder()
        nb.register("w", 3)
        nb.x(0)
        with nb.span("outer"):
            nb.cx(0, 1)
            with nb.span("inner"):
                nb.ccx(0, 1, 2)
            with nb.span("inner"):
                pass
        with nb.span("outer"):
            nb.x(2)
        spans = nb.build().spans
        assert dict(spans) == {"inner": ((2, 3), (3, 3)), "outer": ((1, 3), (3, 4))}

    def test_spans_are_read_only_metadata(self):
        netlist = build_uniform_horizontal_shear(2, 4)
        assert set(netlist.spans) == {"half", "multiply"}
        with pytest.raises(TypeError):
            netlist.spans["half"] = ()
        bare = Netlist(netlist.labels, netlist.columns, netlist.registers, netlist.ancillas)
        assert dict(bare.spans) == {} and bare == netlist
        assert dict(invert(netlist).spans) == {}
        assert invert(invert(netlist)) == netlist

    @pytest.mark.parametrize("span", [(-1, 0), (1, 0), (0, 2)])
    def test_span_outside_the_gates_refused(self, span):
        netlist = single_not_netlist()
        with pytest.raises(CircuitStructureError, match="span 'all'"):
            Netlist(netlist.labels, netlist.columns, netlist.registers, spans={"all": [span]})

    def test_image_netlists_record_both_halves(self):
        netlist = build_shear_netlist(3, "horizontal", 1)
        first, second = netlist.spans["half"]
        assert first[0] == 0 and first[1] == second[0] and second[1] == len(netlist.gates)
        assert len(netlist.spans["multiply"]) == 2


def test_dump_format_golden():
    assert dump_netlist(build_adder(1)) == "\n".join([
        "TOFFOLI b[1] a[0] b[0]",
        "CNOT b[0] a[0]",
        "TOFFOLI b[1] carry[0] b[0]",
        "CNOT b[0] a[0]",
        "CNOT b[0] a[0]",
        "CNOT b[0] carry[0]",
    ])


def test_dump_marks_control_on_zero():
    nb = NetlistBuilder()
    nb.register("y", 2)
    nb.register("c", 1)
    nb.cx(1, 2, on=0)
    assert dump_netlist(nb.build()) == "CNOT c[0] !y[1]"


# ---------------------------------------------------------------------------
# bit-sliced execution against the single-state reference


@st.composite
def random_netlists(draw):
    """A few registers and up to 40 gates of every kind, with mixed polarities."""
    nb = NetlistBuilder()
    for name in ("a", "b", "c")[: draw(st.integers(1, 3))]:
        nb.register(name, draw(st.integers(1, 4)))
    wires = len(nb.build().labels)
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from([0, 1, 2][: wires]))
        picked = draw(st.permutations(range(wires)))[: kind + 1]
        polarity = [draw(st.integers(0, 1)) for _ in range(kind)]
        if kind == 0:
            nb.x(picked[0])
        elif kind == 1:
            nb.cx(picked[1], picked[0], on=polarity[0])
        else:
            nb.ccx(picked[1], picked[2], picked[0], on1=polarity[0], on2=polarity[1])
    return nb.build()


def image_netlists():
    return st.builds(
        build_shear_netlist,
        n=st.integers(1, 3),
        axis=st.sampled_from(["horizontal", "vertical"]),
        sign=st.sampled_from([1, -1]),
        order=st.sampled_from(["tb", "bt"]),
    )


def assert_lanes_match_execute(netlist, lanes, data):
    """Random per-lane columns, constants or nothing per register; every
    lane must end where ``execute`` takes its own state."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inputs = {}
    for name, ids in netlist.registers.items():
        how = data.draw(st.sampled_from(["column", "constant", "absent"]))
        if how == "column":
            inputs[name] = rng.integers(0, 1 << len(ids), lanes, dtype=np.int64)
        elif how == "constant":
            inputs[name] = data.draw(st.sampled_from([0, (1 << len(ids)) - 1]))
    out = execute_lanes(netlist, lanes, inputs, netlist.registers)
    for name in netlist.registers:
        assert out[name].dtype == np.int64 and out[name].shape == (lanes,)
    for i in range(lanes):
        start = {k: int(v[i]) if isinstance(v, np.ndarray) else v for k, v in inputs.items()}
        want = run(netlist, **start)
        assert {name: int(col[i]) for name, col in out.items()} == want, i


LANE_COUNTS = st.sampled_from([0, 1, 63, 64, 65])


@settings(max_examples=60, deadline=None)
@given(netlist=random_netlists(), lanes=LANE_COUNTS, data=st.data())
def test_lanes_match_execute_on_random_netlists(netlist, lanes, data):
    assert_lanes_match_execute(netlist, lanes, data)


@settings(max_examples=10, deadline=None)
@given(netlist=image_netlists(), lanes=LANE_COUNTS, data=st.data())
def test_lanes_match_execute_on_image_netlists(netlist, lanes, data):
    assert_lanes_match_execute(netlist, lanes, data)


class TestLaneInputErrors:
    def test_column_value_outside_register_width(self):
        nl = build_adder(2)
        for bad in (4, -1):
            column = np.array([1, bad, 2], dtype=np.int64)
            with pytest.raises(ValueError, match=f"value {bad} does not fit register 'a' of width 2"):
                execute_lanes(nl, 3, {"a": column}, ["b"])

    def test_constant_outside_register_width(self):
        nl = build_adder(2)
        with pytest.raises(ValueError, match="value 8 does not fit register 'a' of width 2"):
            execute_lanes(nl, 3, {"a": 8}, ["b"])

    def test_unknown_register(self):
        with pytest.raises(CircuitStructureError, match="no register named 'z'"):
            execute_lanes(build_adder(2), 1, {"z": 0}, ["b"])

    def test_column_length_must_match_lanes(self):
        with pytest.raises(ValueError, match="column of 4 lanes"):
            execute_lanes(build_adder(2), 4, {"a": np.zeros(3, dtype=np.int64)}, ["b"])


def test_gate_tuples_are_made_once_per_netlist():
    nl = build_adder(2)
    assert nl.gates is nl.gates
    assert build_adder(2).gates is not nl.gates  # no cache beyond the netlist
