import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qimrot.arithmetic import (
    build_adder,
    build_ctrl_multi,
    build_interpolation,
    build_self_adder,
    build_subtractor,
)
from qimrot.core import cost
from qimrot.shear import FixedPointValue

from basis_states import assert_ancillas_clean, run


class TestAdder:
    def test_additive_identity(self):
        nl = build_adder(3)
        for b in range(8):
            assert run(nl, a=0, b=b)["b"] == b

    def test_simple_sum(self):
        assert run(build_adder(3), a=5, b=3)["b"] == 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_matches_integer_addition(self, n):
        nl = build_adder(n)
        for a in range(1 << n):
            for b in range(1 << (n + 1)):  # full wide-register domain
                out = run(nl, a=a, b=b)
                assert out["b"] == (a + b) % 2 ** (n + 1)
                assert out["a"] == a
                assert_ancillas_clean(nl, out)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            build_adder(0)


class TestSubtractor:
    def test_self_subtraction(self):
        nl = build_subtractor(3)
        for a in range(8):
            assert run(nl, a=a, b=a)["b"] == 0

    def test_simple_difference(self):
        assert run(build_subtractor(3), a=3, b=8)["b"] == 5

    def test_exhaustive_add_then_subtract_is_identity(self):
        n = 4
        add, sub = build_adder(n), build_subtractor(n)
        for a in range(1 << n):
            for b in range(1 << n):
                summed = run(add, a=a, b=b)["b"]
                assert run(sub, a=a, b=summed)["b"] == b

    def test_matches_modular_semantics(self):
        n = 3
        nl = build_subtractor(n)
        for a in range(1 << n):
            for d in range(1 << (n + 1)):
                assert run(nl, a=a, b=d)["b"] == (d - a) % 2 ** (n + 1)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            build_subtractor(0)


class TestSelfAdder:
    def test_worked_example_110(self):
        assert run(build_self_adder(3), x=0b110)["out"] == 0b1100

    def test_zero(self):
        assert run(build_self_adder(3), x=0)["out"] == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_doubles_every_input(self, n):
        nl = build_self_adder(n)
        assert cost(nl) == n
        for x in range(1 << n):
            out = run(nl, x=x)
            assert out["out"] == 2 * x
            assert out["out"] % 2 == 0  # lowest bit stays 0


class TestCtrlMulti:
    def test_worked_example_21_times_11(self):
        out = run(build_ctrl_multi(4, 5), a=0b10101, x=0b1011, ctrl=1)
        assert out["p"] == 0b11100111 == 231

    def test_control_off_blocks_everything(self):
        nl = build_ctrl_multi(3, 3)
        for a in range(8):
            for x in range(8):
                out = run(nl, a=a, x=x, ctrl=0)
                assert out["p"] == 0
                assert_ancillas_clean(nl, out)

    def test_exhaustive_4x4(self):
        nl = build_ctrl_multi(4, 4)
        for a in range(16):
            for x in range(16):
                out = run(nl, a=a, x=x, ctrl=1)
                assert out["p"] == a * x
                assert (out["a"], out["x"]) == (a, x)
                assert_ancillas_clean(nl, out)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            build_ctrl_multi(0, 3)
        with pytest.raises(ValueError):
            build_ctrl_multi(3, 0)


class TestInterpolation:
    def test_worked_example_rounds_up(self):
        # 1010.1010 (10.625) rounds to 1011 (11)
        out = run(build_interpolation(4), a=0b1010, frac=0b1010)
        assert out["a"] == 0b1011

    @pytest.mark.parametrize("frac", range(8))
    def test_low_fraction_truncates(self, frac):
        nl = build_interpolation(4)
        for a in (0, 3, 15):
            assert run(nl, a=a, frac=frac)["a"] == a

    def test_exhaustive_round_half_up(self):
        n = 4
        nl = build_interpolation(n)
        for a in range(1 << n):
            for frac in range(16):
                out = run(nl, a=a, frac=frac)
                # independent oracle: round-half-up of a + frac/16
                assert out["a"] == (16 * a + frac + 8) // 16
                assert out["frac"] == frac
                assert_ancillas_clean(nl, out)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_randomized_agreement_at_larger_widths(n):
    rng = random.Random(1000 + n)
    add, sub, dbl = build_adder(n), build_subtractor(n), build_self_adder(n)
    multi = build_ctrl_multi(n, n)
    interp = build_interpolation(n)
    for _ in range(60):
        a, b = rng.randrange(1 << n), rng.randrange(1 << n)
        assert run(add, a=a, b=b)["b"] == a + b
        assert run(sub, a=a, b=(a + b))["b"] == b
        assert run(dbl, x=a)["out"] == 2 * a
        c = rng.randrange(2)
        out = run(multi, a=a, x=b, ctrl=c)
        assert out["p"] == a * b * c
        assert_ancillas_clean(multi, out)
        frac = rng.randrange(16)
        assert run(interp, a=a, frac=frac)["a"] == a + (frac >> 3)


class TestFixedPointValue:
    def test_value_formula(self):
        v = FixedPointValue(21)
        assert v.sixteenths == 21
        assert FixedPointValue.quantize(21 / 16) == v

    @pytest.mark.parametrize("real,expected", [
        (0.0, 0), (1.0, 16), (0.5, 8), (0.03125, 1),  # exact tie rounds up
        (0.4142135623730951, 7), (0.7071067811865476, 11),
    ])
    def test_quantize_round_half_up(self, real, expected):
        assert FixedPointValue.quantize(real).sixteenths == expected

    @pytest.mark.parametrize("real", [1e308, 1.7976931348623157e308])
    def test_quantize_beyond_float_range_times_16(self, real):
        assert FixedPointValue.quantize(real).sixteenths == int(real) * 16

    @settings(max_examples=100)
    @given(st.floats(min_value=0, max_value=1.05, allow_nan=False))
    def test_quantization_error_within_half_step(self, real):
        q = FixedPointValue.quantize(real)
        assert abs(q.sixteenths / 16 - real) <= 1 / 32 + 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedPointValue.quantize(-0.5)
        with pytest.raises(ValueError):
            FixedPointValue(-1)
