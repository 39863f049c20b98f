import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qimrot.core import (
    CircuitStructureError,
    Gate,
    Netlist,
    NetlistBuilder,
    cost,
    dump_netlist,
    execute,
    invert,
    run,
)
from qimrot.arithmetic import build_adder, build_ctrl_multi, build_interpolation, build_self_adder


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
    assert execute(nl, nl.state(c=0, t=0)) == nl.state(c=0, t=1)
    assert execute(nl, nl.state(c=1, t=0)) == nl.state(c=1, t=0)


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
                summed = execute(add, add.state(a=a, b=b))
                back = execute(sub, summed)
                assert back == add.state(a=a, b=b)
                assert add.register_value(summed, "b") == a + b

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
            Netlist(("w[0]",), (Gate("NOT", 5),), {"w": (0,)})

    def test_state_width_mismatch(self):
        nl = single_not_netlist()
        for state in (2, -1):  # a bit beyond the one wire; no two's-complement states
            with pytest.raises(CircuitStructureError):
                execute(nl, state)

    def test_target_among_controls_rejected(self):
        with pytest.raises(CircuitStructureError):
            Gate("CNOT", 1, ((1, 1),))

    def test_wrong_control_count_rejected(self):
        with pytest.raises(CircuitStructureError):
            Gate("TOFFOLI", 0, ((1, 1),))

    def test_register_value_overflow(self):
        nl = build_adder(2)
        with pytest.raises(ValueError):
            nl.state(a=4)


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
