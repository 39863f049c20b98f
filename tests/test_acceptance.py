"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
All comparisons are bit-exact; gate-count comparisons carry zero tolerance.
"""
import functools
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from qimrot import cli
from qimrot.arithmetic import (
    build_adder,
    build_ctrl_multi,
    build_interpolation,
    build_self_adder,
    build_subtractor,
)
from qimrot.audit import measure, predict
from qimrot.core import invert
from qimrot.neqr import Terms, decode, encode
from qimrot.oracle import agreement_fraction, ideal_rotate, oracle_rotate
from qimrot.patterns import checkerboard
from qimrot.pgm import read_pgm, write_pgm
from qimrot.shear import (
    RotationSpec,
    apply_shear,
    line_steps,
    rotate,
)
from qimrot.shear_netlists import NetlistBackend, run_shear_phase

from basis_states import assert_ancillas_clean, execute, run
from rasters import gradient, oracle_chain, random_raster, spec_for


def criterion(cid, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {cid} ({title}): FAIL")
                raise
            print(f"\nACCEPTANCE {cid} ({title}): PASS")
        return wrapper
    return decorate


@criterion(1, "arithmetic exhaustive equivalence")
def test_criterion_1_arithmetic_equivalence():
    for n in range(1, 5):
        add, sub = build_adder(n), build_subtractor(n)
        dbl, interp = build_self_adder(n), build_interpolation(n)
        for a in range(1 << n):
            for b in range(1 << n):
                out = run(add, a=a, b=b)
                assert out["b"] == a + b
                assert_ancillas_clean(add, out)
                out = run(sub, a=a, b=a + b)
                assert out["b"] == b
                assert_ancillas_clean(sub, out)
        for x in range(1 << n):
            out = run(dbl, x=x)
            assert out["out"] == 2 * x
            for frac in range(16):
                out = run(interp, a=x, frac=frac)
                assert out["a"] == x + (frac >> 3)
                assert_ancillas_clean(interp, out)
        multi = build_ctrl_multi(n, n)
        for a in range(1 << n):
            for x in range(1 << n):
                for ctrl in (0, 1):
                    out = run(multi, a=a, x=x, ctrl=ctrl)
                    assert out["p"] == a * x * ctrl
                    assert_ancillas_clean(multi, out)

    rng = random.Random(20240801)
    for n in (5, 6, 7, 8):
        add, sub = build_adder(n), build_subtractor(n)
        dbl, interp = build_self_adder(n), build_interpolation(n)
        multi = build_ctrl_multi(n, n)
        for _ in range(250):  # 1000 random cases per circuit kind over n in 5..8
            a, b = rng.randrange(1 << n), rng.randrange(1 << n)
            frac, ctrl = rng.randrange(16), rng.randrange(2)
            out = run(add, a=a, b=b)
            assert out["b"] == a + b
            assert_ancillas_clean(add, out)
            out = run(sub, a=a, b=a + b)
            assert out["b"] == b
            assert_ancillas_clean(sub, out)
            assert run(dbl, x=a)["out"] == 2 * a
            out = run(interp, a=a, frac=frac)
            assert out["a"] == a + (frac >> 3)
            assert_ancillas_clean(interp, out)
            out = run(multi, a=a, x=b, ctrl=ctrl)
            assert out["p"] == a * b * ctrl
            assert_ancillas_clean(multi, out)


@criterion(2, "worked examples reproduced bit-exactly")
def test_criterion_2_worked_examples():
    assert run(build_self_adder(3), x=0b110)["out"] == 0b1100
    assert run(build_ctrl_multi(4, 5), a=0b10101, x=0b1011, ctrl=1)["p"] == 0b11100111
    assert run(build_interpolation(4), a=0b1010, frac=0b1010)["a"] == 0b1011
    spec = spec_for("horizontal", 16, 1, 2)
    assert np.abs(line_steps(np.arange(4), spec)).tolist() == [2, 1, 0, 1]


@criterion(3, "gate-count closed forms, zero tolerance")
def test_criterion_3_gate_counts():
    for n in range(2, 9):
        assert measure("self_adder", n)[0] == n
        assert measure("adder", n)[0] == 28 * n - 12
        assert measure("interpolation", n)[0] == 28 * n - 11
    for n in range(2, 6):
        for m in range(4, 9):
            core, _ = measure("ctrl_multi", n, m)
            assert Fraction(core) == Fraction(29, 2) * n * (n + 2 * m - 1)
            core, _ = measure("top_half_shear", n, m)
            assert Fraction(core) == (
                Fraction(29, 2) * n + 29 * m + Fraction(139, 2)
            ) * n - 35
            assert core == predict("top_half_shear", n, m)
            core, _ = measure("full_horizontal_shear", n, m)
            assert core == 29 * n * n + 58 * m * n + 139 * n - 70


@criterion(4, "rotation equivalence at desk scale")
def test_criterion_4_rotation_equivalence():
    rasters = {
        "checkerboard": checkerboard,
        "gradient": gradient,
        "random": lambda side: random_raster(side, seed=side),
    }
    for side in (64, 128):
        for name, make in rasters.items():
            raster = make(side)
            image = encode(raster)
            for theta in (30, 45, 60, -30):
                engine = decode(rotate(image, RotationSpec(theta)).final)
                reference = oracle_rotate(raster, theta)
                assert np.array_equal(engine, reference), (side, name, theta)
    image = encode(random_raster(16, seed=7))
    for theta in (30, 45):
        semantic = rotate(image, RotationSpec(theta))
        gates = rotate(image, RotationSpec(theta), backend=NetlistBackend())
        assert gates.final == semantic.final
        assert gates.phase1 == semantic.phase1
        assert gates.phase2 == semantic.phase2


@criterion(5, "property suite, 100+ randomized instances each")
def test_criterion_5_properties():
    rng = random.Random(909)

    # reversibility round-trip on library netlists
    builders = [
        lambda: build_adder(rng.randrange(1, 5)),
        lambda: build_self_adder(rng.randrange(1, 7)),
        lambda: build_interpolation(rng.randrange(1, 5)),
        lambda: build_ctrl_multi(rng.randrange(1, 4), rng.randrange(1, 4)),
    ]
    for _ in range(100):
        netlist = rng.choice(builders)()
        state = rng.randrange(1 << netlist.num_wires)
        assert execute(invert(netlist), execute(netlist, state)) == state

    # rigid per-line shifts and injectivity before clipping
    for _ in range(100):
        n = rng.randrange(2, 5)
        side = 1 << n
        q16 = rng.randrange(17)
        sign = rng.choice([1, -1])
        axis = rng.choice(["horizontal", "vertical"])
        spec = spec_for(axis, q16, sign, n)
        terms = encode(np.zeros((side, side), dtype=np.uint8)).terms()
        horizontal = axis == "horizontal"
        driver, moved = (terms.y, terms.x) if horizontal else (terms.x, terms.y)
        landed = moved + line_steps(driver, spec)
        pairs = zip(driver.tolist(), landed.tolist())
        assert len(set(pairs)) == side * side            # injective before clipping
        shifts = (landed - moved).reshape(side, side)    # indexed [y, x]
        lines = shifts if horizontal else shifts.T
        assert (lines == lines[:, :1]).all()             # rigid lines

    # order independence of the half dispatch (gate path)
    for _ in range(100):
        n = rng.randrange(2, 4)
        q16 = rng.randrange(17)
        sign = rng.choice([1, -1])
        axis = rng.choice(["horizontal", "vertical"])
        spec = spec_for(axis, q16, sign, n)
        rows = [
            (rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(256)) for _ in range(8)
        ]
        y, x, color = np.array(rows, dtype=np.int64).T
        terms = Terms(y, x, color.astype(np.uint8))
        tb, bt = run_shear_phase(terms, n, spec, "tb"), run_shear_phase(terms, n, spec, "bt")
        assert np.array_equal(tb.y, bt.y) and np.array_equal(tb.x, bt.x)
        assert np.array_equal(tb.color, bt.color)

    # zero-angle identity
    for _ in range(100):
        side = rng.choice([4, 8, 16])
        image = encode(random_raster(side, seed=rng.randrange(10**6)))
        result = rotate(image, RotationSpec(0))
        assert result.final == image and result.phase1 == image

    # decode(encode(.)) identity
    for _ in range(100):
        side = rng.choice([1, 2, 4, 8, 16])
        raster = random_raster(side, seed=rng.randrange(10**6))
        assert np.array_equal(decode(encode(raster)), raster)


@criterion(6, "per-line gray multisets preserved up to clipping")
def test_criterion_6_no_blocking_or_blurring():
    rng = random.Random(606)
    for _ in range(100):
        n = rng.randrange(2, 5)
        side = 1 << n
        raster = random_raster(side, seed=rng.randrange(10**6))
        q16 = rng.randrange(17)
        sign = rng.choice([1, -1])
        axis = rng.choice(["horizontal", "vertical"])
        spec = spec_for(axis, q16, sign, n)
        out = decode(apply_shear(encode(raster), spec))
        for line, shift in enumerate(line_steps(np.arange(side), spec)):
            if axis == "horizontal":
                src, dst = raster[line], out[line]
            else:
                src, dst = raster[:, line], out[:, line]
            kept = [int(v) for i, v in enumerate(src) if 0 <= i + shift < side]
            assert Counter(int(v) for v in dst) == Counter(kept) + Counter(
                {0: side - len(kept)}
            )
    # visual quality against the real-arithmetic rotation is informational
    raster = checkerboard(64)
    sheared = decode(rotate(encode(raster), RotationSpec(45)).final)
    fraction = agreement_fraction(sheared, ideal_rotate(raster, 45))
    print(f"\n  info: ideal-rotation agreement at 45 deg, 64x64 checkerboard: "
          f"{fraction:.4f}")


@criterion(7, "the paper's 30/45/60 degree experiment, PGM to PGM, matches the oracle")
def test_criterion_7_rotation_demo(tmp_path):
    raster = checkerboard(512)
    source = str(tmp_path / "input.pgm")
    write_pgm(source, raster)
    for theta in (30, 45, 60):
        out = str(tmp_path / f"rot{theta}.pgm")
        argv = ["rotate", "--input", source, "--output", out, "--angle", str(theta),
                "--emit-intermediates"]
        assert cli.run(cli.config_from_args(cli.build_parser().parse_args(argv))) == cli.EXIT_OK
        phase1, phase2, final = oracle_chain(raster, theta)
        assert np.array_equal(read_pgm(str(tmp_path / f"rot{theta}.phase1.pgm")), phase1), theta
        assert np.array_equal(read_pgm(str(tmp_path / f"rot{theta}.phase2.pgm")), phase2), theta
        written = read_pgm(out)
        assert np.array_equal(written, final), theta
        assert np.array_equal(written, oracle_rotate(raster, theta)), theta


@criterion(8, "rotation equivalence at the paper's 512x512 scale")
def test_criterion_8_rotation_at_paper_scale():
    raster = random_raster(512, seed=512)
    image = encode(raster)
    for theta in (30, 45, 60):
        result = rotate(image, RotationSpec(theta))
        gates = rotate(image, RotationSpec(theta), backend=NetlistBackend())
        phase1, phase2, _ = oracle_chain(raster, theta)
        assert np.array_equal(decode(result.phase1), phase1), theta
        assert np.array_equal(decode(result.phase2), phase2), theta
        assert np.array_equal(decode(result.final), oracle_rotate(raster, theta)), theta
        assert (gates.phase1, gates.phase2, gates.final) == (
            result.phase1, result.phase2, result.final
        ), theta
