import gc
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qimrot import arithmetic, core, shear, shear_netlists
from qimrot.arithmetic import FixedPointValue
from qimrot.audit import audit_report
from qimrot.core import core_and_overhead_cost, cost, execute_lanes
from qimrot.neqr import Terms, decode, encode
from qimrot.oracle import oracle_rotate, oracle_shear
from qimrot.shear import (
    SEMANTIC,
    RotationSpec,
    ShearSpec,
    apply_shear,
    expanded_canvas_params,
    line_steps,
    rotate,
)
from qimrot.shear_netlists import (
    COORD_EXTRA_BITS,
    MAX_NETLIST_EXPONENT,
    NetlistBackend,
    NetlistModeError,
    build_shear_netlist,
    build_uniform_half_shear,
    build_uniform_horizontal_shear,
    run_shear_phase,
)

from basis_states import dump_netlist, run
from rasters import random_raster

NETLIST = NetlistBackend()


def spec_for(axis, q16, sign, n):
    return ShearSpec(axis, FixedPointValue(q16), sign, n)


def columns(terms):
    return terms.y.tolist(), terms.x.tolist(), terms.color.tolist()


def frame_terms(n):
    """Every term of the 2^n frame, each with its own color."""
    side = 1 << n
    return encode(np.arange(side * side, dtype=np.uint8).reshape(side, side)).terms()


# n=3 takes every factor the netlist backend accepts, 0..31 sixteenths
@pytest.mark.parametrize("axis", ["horizontal", "vertical"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "n, q16", [(2, q16) for q16 in (0, 4, 7, 8, 11, 16)] + [(3, q16) for q16 in range(32)]
)
def test_gate_path_matches_semantic_shears_exhaustively(n, q16, sign, axis):
    spec = spec_for(axis, q16, sign, n)
    terms = frame_terms(n)
    out = run_shear_phase(terms, n, spec)
    horizontal = axis == "horizontal"
    driver, moved = (terms.y, terms.x) if horizontal else (terms.x, terms.y)
    out_driver, out_moved = (out.y, out.x) if horizontal else (out.x, out.y)
    assert out_moved.dtype == np.int64
    assert out_moved.tolist() == (moved + line_steps(driver, spec)).tolist()  # unclipped
    assert np.array_equal(out_driver, driver)
    assert np.array_equal(out.color, terms.color)


#: q16 values sampled where every q16 of every netlist would be too slow
SAMPLED_Q16 = (0, 1, 15, 16, 17, 31)
#: lanes per execution; wider ints fall out of cache and run slower per lane
MAX_LANES = 1 << 18


@pytest.mark.parametrize("order", ["tb", "bt"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("axis", ["horizontal", "vertical"])
@pytest.mark.parametrize("n", range(1, MAX_NETLIST_EXPONENT + 1))
def test_gate_certificate_over_every_in_frame_term(n, axis, sign, order):
    """One lane per in-frame (y, x) and q16, with ``med`` preloaded: every
    ancilla ends at zero and the moved register holds the displacement rule.
    n 1-6 (the 48 digest-pinned netlists) take every q16 the factor register
    holds; n 7-9 take ``SAMPLED_Q16``."""
    netlist = build_shear_netlist(n, axis, sign, order)
    side, width = 1 << n, n + COORD_EXTRA_BITS
    q16s = range(32) if n <= 6 else SAMPLED_Q16
    y, x = np.divmod(np.arange(side * side, dtype=np.int64), side)
    horizontal = axis == "horizontal"
    driver, moved = (y, x) if horizontal else (x, y)
    per_call = max(MAX_LANES >> 2 * n, 1)
    for start in range(0, len(q16s), per_call):
        chunk = q16s[start : start + per_call]
        q = np.repeat(np.array(chunk, dtype=np.int64), side * side)
        inputs = {"y": np.tile(y, len(chunk)), "x": np.tile(x, len(chunk)), "q": q, "med": side // 2}
        out = execute_lanes(netlist, len(q), inputs, netlist.registers)
        for name in netlist.ancillas:
            assert not out[name].any(), name
        want = np.concatenate(
            [moved + line_steps(driver, spec_for(axis, q16, sign, n)) for q16 in chunk]
        )
        assert -(1 << width - 1) <= want.min() and want.max() < 1 << width - 1
        out_driver, out_moved = (out["y"], out["x"]) if horizontal else (out["x"], out["y"])
        assert np.array_equal(out_moved, want % (1 << width))  # two's complement
        assert np.array_equal(out_driver, np.tile(driver, len(chunk)))
        assert np.array_equal(out["q"], q)
        assert (out["med"] == side // 2).all()


@pytest.mark.parametrize("m", [4, 5, 6])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_uniform_netlists_execute_their_contract(n, m):
    """The audit's netlists run, not only priced: one lane per y in frame,
    x over its whole register and fac over its whole register, with ``med``
    preloaded.  x moves by the rounded offset * fac / 16 modulo 2^n: left on
    the top half, right on the bottom half of the full shear only."""
    grid = np.meshgrid(np.arange(1 << n), np.arange(2 << n), np.arange(1 << m), indexing="ij")
    y, x, fac = (axis.ravel().astype(np.int64) for axis in grid)
    med = 1 << (n - 1)
    d = ((np.abs(y - med) * fac + 8) // 16) % (1 << n)
    top = y < med
    inputs = {"y": y, "x": x, "fac": fac, "med": med}
    for build, bottom in ((build_uniform_half_shear, 0), (build_uniform_horizontal_shear, 1)):
        netlist = build(n, m)
        out = execute_lanes(netlist, len(y), inputs, netlist.registers)
        for name in netlist.ancillas:
            assert not out[name].any(), name
        assert np.array_equal(out["y"], y) and np.array_equal(out["fac"], fac)
        assert (out["med"] == med).all()
        assert np.array_equal(out["x"], np.where(top, x - d, x + bottom * d) % (2 << n))


def test_working_registers_restored_on_every_input():
    n = 2
    netlist = build_shear_netlist(n, "horizontal", 1)
    for y in range(4):
        for x in range(4):
            for q16 in (0, 7, 16):
                out = run(netlist, y=y, x=x, q=q16, med=2)
                for name in netlist.ancillas:
                    assert out[name] == 0, (name, out[name])
                assert out["med"] == 2 and out["q"] == q16
                assert out["y"] == y  # horizontal shear moves x only


def test_wrong_half_segment_is_exact_passthrough():
    # each half's segment must leave the other half's terms untouched,
    # which is what makes the two-segment netlist order independent
    n = 3
    spec = spec_for("horizontal", 16, 1, n)
    terms = frame_terms(n)
    assert columns(run_shear_phase(terms, n, spec, order="tb")) == columns(
        run_shear_phase(terms, n, spec, order="bt")
    )


@pytest.mark.parametrize("theta", [30, 45, -30])
def test_netlist_rotate_equals_semantic_rotate(theta):
    img = encode(random_raster(16, seed=11))
    a = rotate(img, RotationSpec(theta))
    b = rotate(img, RotationSpec(theta), backend=NETLIST)
    assert (a.final, a.phase1, a.phase2) == (b.final, b.phase1, b.phase2)


def test_netlist_apply_shear_equals_semantic():
    img = encode(random_raster(8, seed=12))
    for axis in ("horizontal", "vertical"):
        spec = ShearSpec.from_factor(axis, 0.7, 3)
        assert apply_shear(img, spec, backend=NETLIST) == apply_shear(img, spec)


@pytest.mark.parametrize("order", ["tb", "bt"])
def test_half_order_does_not_change_results(order):
    img = encode(random_raster(16, seed=13))
    base = rotate(img, RotationSpec(45), backend=NetlistBackend("tb"))
    other = rotate(img, RotationSpec(45), backend=NetlistBackend(order))
    assert base.final == other.final


def test_size_limit_enforced():
    # the paper's 512x512 is the largest frame; one step more is refused
    assert MAX_NETLIST_EXPONENT == 9
    NETLIST.check(ShearSpec.from_factor("horizontal", 0.5, MAX_NETLIST_EXPONENT))
    big = encode(np.zeros((1 << (MAX_NETLIST_EXPONENT + 1),) * 2, dtype=np.uint8))
    with pytest.raises(NetlistModeError, match="frames up to 512 px"):
        rotate(big, RotationSpec(30), backend=NETLIST)


def _no_term_may_be_sheared(*args):
    raise AssertionError("a term was sheared before the refusal")


@pytest.mark.parametrize(
    "side, factor, canvas",
    [
        (256, 0.5, "expand"),  # a 2^10 frame
        (512, 0.5, "expand"),
        (1 << (MAX_NETLIST_EXPONENT + 1), 0.5, "clip"),
        (16, 2.0, "clip"),
        (16, -1.97, "clip"),  # quantizes to 32 sixteenths
    ],
)
def test_backend_refuses_before_any_term_is_sheared(monkeypatch, side, factor, canvas):
    monkeypatch.setattr(shear_netlists, "run_shear_phase", _no_term_may_be_sheared)
    img = encode(np.zeros((side, side), dtype=np.uint8))
    with pytest.raises(NetlistModeError):
        apply_shear(img, ShearSpec.from_factor("vertical", factor, img.n), canvas, NETLIST)
    if abs(factor) < 1:  # rotation factors never exceed 1
        with pytest.raises(NetlistModeError):
            rotate(img, RotationSpec(30), canvas, NETLIST)


def test_expand_frame_too_wide_is_refused_with_the_4x_reason():
    img = encode(np.zeros((256, 256), dtype=np.uint8))
    with pytest.raises(NetlistModeError, match="4x the image's side"):
        rotate(img, RotationSpec(30), "expand", NETLIST)


@pytest.mark.parametrize("backend", [SEMANTIC, NETLIST], ids=["semantic", "netlist"])
def test_unknown_canvas_is_refused_before_any_term_is_sheared(monkeypatch, backend):
    monkeypatch.setattr(shear, "line_steps", _no_term_may_be_sheared)
    monkeypatch.setattr(shear_netlists, "run_shear_phase", _no_term_may_be_sheared)
    img = encode(random_raster(8, seed=14))
    with pytest.raises(ValueError, match="canvas must be clip or expand"):
        rotate(img, RotationSpec(30), "wrap", backend)
    with pytest.raises(ValueError, match="canvas must be clip or expand"):
        apply_shear(img, ShearSpec.from_factor("vertical", 0.5, img.n), "wrap", backend)


def _oracle_expand_frames(raster, theta):
    """phase1, phase2, final: the oracle's shear chain on the raster
    zero-padded to the expanded canvas at its offset."""
    side = raster.shape[0]
    exponent, offset = expanded_canvas_params(side.bit_length() - 1)
    padded = np.zeros((1 << exponent, 1 << exponent), dtype=np.uint8)
    padded[offset : offset + side, offset : offset + side] = raster
    rad = math.radians(theta)
    phase1 = oracle_shear(padded, "horizontal", math.tan(rad / 2))
    phase2 = oracle_shear(phase1, "vertical", math.sin(rad))
    return phase1, phase2, oracle_shear(phase2, "horizontal", math.tan(rad / 2))


def _assert_expand_frames(raster, theta, backend):
    res = rotate(encode(raster), RotationSpec(theta), "expand", backend)
    for got, want in zip((res.phase1, res.phase2, res.final), _oracle_expand_frames(raster, theta)):
        assert np.array_equal(decode(got), want)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    theta=st.floats(min_value=-90, max_value=90, exclude_min=True, exclude_max=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=3, theta=89.99, seed=0)
@example(n=3, theta=-89.99, seed=1)
@example(n=5, theta=89.99, seed=2)
def test_expand_frames_are_the_oracle_chain_on_the_padded_raster(n, theta, seed):
    raster = np.random.default_rng(seed).integers(1, 256, (1 << n, 1 << n), dtype=np.uint8)
    _assert_expand_frames(raster, theta, SEMANTIC)
    if n <= 3:
        _assert_expand_frames(raster, theta, NETLIST)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=MAX_NETLIST_EXPONENT),
    magnitude=st.floats(min_value=89.9, max_value=90, exclude_max=True),
    sign=st.sampled_from([1, -1]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(n=4, magnitude=89.9, sign=1, seed=0)
@example(n=4, magnitude=89.9, sign=-1, seed=1)
@example(n=3, magnitude=89.95, sign=1, seed=2)
@example(n=4, magnitude=89.99, sign=-1, seed=3)
@example(n=2, magnitude=89.9999, sign=1, seed=4)
@example(n=9, magnitude=89.95, sign=-1, seed=5)
def test_near_right_angle_rotation_is_three_way_equal(n, magnitude, sign, seed):
    theta = sign * magnitude
    assert {spec.factor.sixteenths for spec in RotationSpec(theta).phase_specs(n)} == {16}
    raster = random_raster(1 << n, seed=seed)
    img = encode(raster)
    semantic = decode(rotate(img, RotationSpec(theta)).final)
    gates = decode(rotate(img, RotationSpec(theta), backend=NETLIST).final)
    assert np.array_equal(gates, semantic)
    assert np.array_equal(semantic, oracle_rotate(raster, theta))


def test_netlist_expand_at_the_widest_frame_matches_the_oracle_chain():
    # a 128x128 image on the 2^9 frame, the largest the netlist backend runs
    _assert_expand_frames(random_raster(128, seed=15) | 1, -61.3, NETLIST)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    vertical=st.booleans(),
    factor=st.one_of(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-1e6, max_value=1e6),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(n=4, vertical=False, factor=1.9375, seed=0)
@example(n=4, vertical=True, factor=1.96, seed=0)
@example(n=4, vertical=False, factor=2.0, seed=0)
@example(n=4, vertical=True, factor=-2.5, seed=0)
@example(n=4, vertical=False, factor=0.0, seed=0)
def test_netlist_shear_matches_semantic_and_oracle_or_refuses(n, vertical, factor, seed):
    axis = "vertical" if vertical else "horizontal"
    raster = random_raster(1 << n, seed=seed)
    img = encode(raster)
    spec = ShearSpec.from_factor(axis, factor, n)
    semantic = apply_shear(img, spec)
    assert np.array_equal(decode(semantic), oracle_shear(raster, axis, factor))
    if int(abs(factor) * 16 + 0.5) > 31:  # beyond the 5-bit factor register
        with pytest.raises(NetlistModeError):
            apply_shear(img, spec, backend=NETLIST)
    else:
        assert apply_shear(img, spec, backend=NETLIST) == semantic


def test_out_of_frame_terms_rejected():
    spec = spec_for("horizontal", 8, 1, 2)
    y, x = np.array([1, 0, 5], dtype=np.int64), np.array([1, -1, 0], dtype=np.int64)
    terms = Terms(y, x, np.zeros(3, dtype=np.uint8))
    with pytest.raises(NetlistModeError, match=r"got \(0, -1\)"):
        run_shear_phase(terms, 2, spec)


def test_netlists_are_cached_per_parameters():
    assert build_shear_netlist(3, "horizontal", 1) is build_shear_netlist(
        3, "horizontal", 1
    )


def test_image_netlists_follow_their_closed_forms():
    # the digests pin n 1-6; these counts reach every n netlist mode runs
    for n in range(1, MAX_NETLIST_EXPONENT + 1):
        for axis in ("horizontal", "vertical"):
            for sign in (1, -1):
                for order in ("tb", "bt"):
                    netlist = build_shear_netlist(n, axis, sign, order)
                    toffolis = sum(gate.kind == "TOFFOLI" for gate in netlist.gates)
                    assert len(netlist.gates) == 320 * n + 812
                    assert toffolis == 160 * n + 392
                    assert netlist.num_wires == 12 * n + 53
                    assert core_and_overhead_cost(netlist) == (458 * n + 1052, 662 * n + 1724)


def test_a_build_makes_no_tracked_object_per_gate():
    # 2092 gates: one tracked object per gate would add thousands
    build = build_shear_netlist.__wrapped__
    build(4, "horizontal", 1)  # warm up anything made once per process
    gc.disable()
    try:
        before = len(gc.get_objects())
        netlist = build(4, "horizontal", 1)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(netlist.columns[0]) == 320 * 4 + 812
    assert added < 100


def test_rotate_and_audit_never_make_gate_tuples(monkeypatch):
    def refuse(netlist):
        raise AssertionError("Netlist.gates read")

    monkeypatch.setattr(core.Netlist, "gates", property(refuse))
    build_shear_netlist.cache_clear()  # build afresh under the patch
    img = encode(random_raster(16, seed=21))
    result = rotate(img, RotationSpec(30), backend=NETLIST)
    assert result.final == rotate(img, RotationSpec(30)).final
    assert audit_report(range(2, 5), range(4, 9)).ok


def test_netlist_dumps_registers_and_audit_csv_are_pinned():
    # digest of the outputs that must stay bit-identical across refactors
    digest = hashlib.sha256()
    for n in range(1, 7):
        for axis in ("horizontal", "vertical"):
            for sign in (1, -1):
                for order in ("tb", "bt"):
                    netlist = build_shear_netlist(n, axis, sign, order)
                    digest.update(dump_netlist(netlist).encode())
                    digest.update(repr(sorted(netlist.registers.items())).encode())
    digest.update(audit_report().to_csv().encode())
    assert digest.hexdigest() == (
        "3629a5484f22a8ff01034925a438b2b15dde3e5751bd2e3257501e0bc1f756ca"
    )


def test_image_netlist_overhead_tags_and_ancillas_are_pinned():
    # the dump digest above does not show which gates are overhead, and the
    # closed forms pin only the cost totals
    digest = hashlib.sha256()
    for n, axis, sign, order in itertools.product(
        range(1, 7), ("horizontal", "vertical"), (1, -1), ("tb", "bt")
    ):
        netlist = build_shear_netlist(n, axis, sign, order)
        digest.update(repr([g.overhead for g in netlist.gates]).encode())
        digest.update(repr(sorted(netlist.ancillas)).encode())
    assert digest.hexdigest() == (
        "5925986caf983dcd77e00efe8aa402a84e8cfef3d2b91b9f738aaee37290255d"
    )


def test_standalone_builders_and_their_costs_are_pinned():
    # dumps, register layouts and both cost tallies of every standalone builder
    digest = hashlib.sha256()
    netlists = []
    for n in range(1, 7):
        netlists += [arithmetic.build_adder(n), arithmetic.build_subtractor(n),
                     arithmetic.build_self_adder(n), arithmetic.build_interpolation(n)]
        netlists += [arithmetic.build_ctrl_multi(n, m) for m in range(1, 7)]
        for m in range(4, 7):
            netlists += [build_uniform_half_shear(n, m), build_uniform_horizontal_shear(n, m)]
    for netlist in netlists:
        digest.update(dump_netlist(netlist).encode())
        digest.update(repr(sorted(netlist.registers.items())).encode())
        digest.update(repr(sorted(netlist.ancillas)).encode())
        digest.update(repr([g.overhead for g in netlist.gates]).encode())
        digest.update(repr((cost(netlist), core_and_overhead_cost(netlist))).encode())
    assert digest.hexdigest() == (
        "fd59a8bafbd88871f7a2b2d0ad58c9f5744bb888eb3a0194723d36bf83ab6727"
    )
