import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qimrot import shear, shear_netlists
from qimrot.neqr import Terms, decode, encode, paint
from qimrot.oracle import oracle_shear, rotation_coordinate_map
from qimrot.shear import (
    HORIZONTAL,
    SEMANTIC,
    VERTICAL,
    RotationSpec,
    ShearSpec,
    UnsupportedAngleError,
    apply_shear,
    exact_turn,
    expanded_canvas_params,
    line_steps,
    rotate,
)
from qimrot.shear_netlists import NetlistBackend

from rasters import framed_raster, oracle_chain, random_raster, row_bands, spec_for


def test_semantic_layer_loads_no_gate_layer():
    # in a fresh interpreter, since this one has loaded every module: the
    # package, the semantic engine and the oracle run without the gate layer
    src = str(Path(shear.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, qimrot, qimrot.shear, qimrot.oracle; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True, timeout=300).stdout.split()
    assert "qimrot.shear" in loaded
    assert not {"qimrot.core", "qimrot.arithmetic", "qimrot.shear_netlists"} & set(loaded)


def assert_rotation_round_trip(raster, theta, backend):
    """rotate(theta) on the expand canvas, then rotate(-theta) on that frame's
    own clip canvas, is the input at the expand offset on a zero background."""
    there = rotate(encode(raster), RotationSpec(theta), "expand", backend).final
    back = rotate(there, RotationSpec(-theta), "clip", backend).final
    assert np.array_equal(decode(back), framed_raster(raster, "expand"))


def reference_shear(terms, spec):
    """The module docstring's four half equations, term by term in Python
    ints, unsaturated: the reference the array rule is checked against.

    Takes ``Terms``; returns the y, x and color columns as lists, since an
    unsaturated coordinate can leave int64.
    """
    mid, q16, sign = 1 << (spec.n - 1), spec.factor.sixteenths, spec.sign

    def d(offset):
        return (offset * q16 + 8) // 16

    ys, xs = terms.y.tolist(), terms.x.tolist()
    if spec.axis == HORIZONTAL:
        xs = [x - sign * d(mid - y) if y < mid else x + sign * d(y - mid) for y, x in zip(ys, xs)]
    else:
        ys = [y + sign * d(mid - x) if x < mid else y - sign * d(x - mid) for y, x in zip(ys, xs)]
    return ys, xs, terms.color.tolist()


class TestHalfShears:
    def test_4x4_factor_one_row_displacements(self):
        assert line_steps(np.arange(4), spec_for(HORIZONTAL, 16, 1, 2)).tolist() == [-2, -1, 0, 1]

    def test_zero_factor_leaves_x(self):
        assert line_steps(np.arange(8), spec_for(HORIZONTAL, 0, 1, 3)).tolist() == [0] * 8

    def test_8x8_30_degree_top_row(self):
        # q = round(tan 15deg * 16)/16 = 4/16; offset 4 gives round(4 * 4/16) = 1
        spec = ShearSpec.for_angle("horizontal", 30, 3)
        assert spec.factor.sixteenths == 4
        assert line_steps(np.array([0]), spec).tolist() == [-1]

    def test_bottom_reference_row_fixed(self):
        assert line_steps(np.array([4]), spec_for(HORIZONTAL, 16, 1, 3)).tolist() == [0]

    def test_8x8_factor_one_bottom_rows_shift_rigidly(self):
        # at q = 1 every bottom row y moves right by exactly y - 4
        assert line_steps(np.arange(4, 8), spec_for(HORIZONTAL, 16, 1, 3)).tolist() == [0, 1, 2, 3]

    def test_8x8_vertical_30_degree_left_column(self):
        # q = round(sin 30deg * 16)/16 = 8/16; offset 4 gives round(4 * 0.5) = 2
        spec = ShearSpec.for_angle("vertical", 30, 3)
        assert spec.factor.sixteenths == 8
        assert line_steps(np.array([0]), spec).tolist() == [2]

    def test_4x4_vertical_factor_one_column_displacements(self):
        assert line_steps(np.arange(4), spec_for(VERTICAL, 16, 1, 2)).tolist() == [2, 1, 0, -1]

    def test_reference_column_fixed(self):
        assert line_steps(np.array([2]), spec_for(VERTICAL, 16, 1, 2)).tolist() == [0]

    def test_negative_sign_flips_directions(self):
        assert line_steps(np.array([0]), spec_for(HORIZONTAL, 16, 1, 2)).tolist() == [-2]
        assert line_steps(np.array([0]), spec_for(HORIZONTAL, 16, -1, 2)).tolist() == [2]

    def test_displacement_rounds_half_up(self):
        # one-line arrays on the 8x8 frame: line 5 is offset 1, line 7 offset 3
        assert line_steps(np.array([5]), spec_for(HORIZONTAL, 8, 1, 3)).tolist() == [1]  # 0.5 -> 1
        assert line_steps(np.array([5]), spec_for(HORIZONTAL, 7, 1, 3)).tolist() == [0]  # 0.4375 -> 0
        assert line_steps(np.array([7]), spec_for(HORIZONTAL, 4, 1, 3)).tolist() == [1]  # 0.75 -> 1


class TestApplyShear:
    def test_zero_factor_is_identity(self):
        img = encode(random_raster(8, seed=0))
        assert apply_shear(img, spec_for(HORIZONTAL, 0, 1, 3)) == img

    def test_4x4_row_banded_paper_layout(self):
        img = encode(row_bands(4))
        out = decode(apply_shear(img, spec_for(HORIZONTAL, 16, 1, 2)))
        src = row_bands(4)
        expected = np.zeros_like(src)
        expected[0, 0:2] = src[0, 2:4]   # row 0 moves left 2
        expected[1, 0:3] = src[1, 1:4]   # row 1 moves left 1
        expected[2] = src[2]             # reference row fixed
        expected[3, 1:4] = src[3, 0:3]   # row 3 moves right 1
        assert np.array_equal(out, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        raster=arrays(dtype=np.uint8, shape=(16, 16)),
        q16=st.integers(min_value=0, max_value=16),
        sign=st.sampled_from([1, -1]),
    )
    def test_rigid_row_shifts(self, raster, q16, sign):
        """Every row moves as one block: the per-row map is x -> x + d(y)."""
        exponent, offset = expanded_canvas_params(4)  # a frame no term leaves
        spec = spec_for(HORIZONTAL, q16, sign, 4)
        out = decode(apply_shear(encode(raster), spec, "expand"))
        expected = np.zeros_like(out)
        steps = line_steps(np.arange(offset, offset + 16), replace(spec, n=exponent))
        for y, d in enumerate(steps.tolist()):
            expected[offset + y, offset + d : offset + d + 16] = raster[y]
        assert np.array_equal(out, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        q16=st.integers(min_value=0, max_value=16),
        sign=st.sampled_from([1, -1]),
        axis_vertical=st.booleans(),
    )
    def test_injective_before_clipping(self, q16, sign, axis_vertical):
        n = 3
        spec = spec_for(VERTICAL if axis_vertical else HORIZONTAL, q16, sign, n)
        terms = encode(np.zeros((8, 8), dtype=np.uint8)).terms()
        driver, moved = (terms.x, terms.y) if axis_vertical else (terms.y, terms.x)
        landed = moved + line_steps(driver, spec)  # unclipped
        assert len(set(zip(driver.tolist(), landed.tolist()))) == 8 * 8

    def test_half_antisymmetry_of_displacements(self):
        n, side = 4, 16
        spec = spec_for(HORIZONTAL, 11, 1, n)
        mid = 1 << (n - 1)
        steps = line_steps(np.arange(side), spec)
        for y in range(mid):
            mirror = side - 1 - y
            if (mid - y) != (mirror - mid):
                continue
            d_top, d_bot = steps[y], steps[mirror]
            assert abs(d_top) == abs(d_bot)
            if d_top:
                assert d_top == -d_bot

    @settings(max_examples=50, deadline=None)
    @given(
        raster=arrays(dtype=np.uint8, shape=(16, 16)),
        q16=st.integers(min_value=0, max_value=16),
        sign=st.sampled_from([1, -1]),
    )
    def test_row_multisets_preserved_up_to_clipping(self, raster, q16, sign):
        """Gray values never mix across rows; each row keeps its multiset."""
        side = 16
        img = encode(raster)
        spec = spec_for(HORIZONTAL, q16, sign, 4)
        out = decode(apply_shear(img, spec))
        for y, d in enumerate(line_steps(np.arange(side), spec)):
            kept = [raster[y, x] for x in range(side) if 0 <= x + d < side]
            vacated = side - len(kept)
            assert Counter(out[y]) == Counter(kept) + Counter({0: vacated})


class TestSemanticBackend:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=7),
        axis=st.sampled_from([HORIZONTAL, VERTICAL]),
        canvas=st.sampled_from(["clip", "expand"]),
        factor=st.floats(min_value=-50, max_value=50, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(n=6, axis=HORIZONTAL, canvas="clip", factor=2.0**57, seed=1)
    @example(n=6, axis=VERTICAL, canvas="expand", factor=2.0**57, seed=1)
    @example(n=5, axis=HORIZONTAL, canvas="expand", factor=1e20, seed=2)
    @example(n=5, axis=VERTICAL, canvas="clip", factor=1e20, seed=2)
    @example(n=4, axis=HORIZONTAL, canvas="clip", factor=-3e18, seed=3)
    @example(n=4, axis=VERTICAL, canvas="expand", factor=-3e18, seed=3)
    @example(n=7, axis=HORIZONTAL, canvas="expand", factor=1e308, seed=4)
    @example(n=7, axis=VERTICAL, canvas="clip", factor=-1e308, seed=4)
    def test_line_table_shear_is_the_reference_on_every_term(self, n, axis, canvas, factor, seed):
        """The array rule gives every term the reference loop's step, saturated
        at +-side, and the semantic backend's frame is the reference's
        in-frame terms painted on zeros."""
        exponent, offset = expanded_canvas_params(n) if canvas == "expand" else (n, 0)
        side = 1 << exponent
        spec = ShearSpec.from_factor(axis, factor, exponent)
        image = encode(random_raster(1 << n, seed=seed))
        terms = image.terms(offset)
        ref_y, ref_x, ref_color = reference_shear(terms, spec)
        horizontal = axis == HORIZONTAL
        moved, ref_moved = (terms.x, ref_x) if horizontal else (terms.y, ref_y)
        steps = line_steps(terms.y if horizontal else terms.x, spec)
        assert steps.tolist() == [
            max(-side, min(side, r - m)) for m, r in zip(moved.tolist(), ref_moved)
        ]
        kept = [i for i, (y, x) in enumerate(zip(ref_y, ref_x)) if 0 <= y < side and 0 <= x < side]
        expected = np.zeros((side, side), dtype=np.uint8)
        expected[[ref_y[i] for i in kept], [ref_x[i] for i in kept]] = [ref_color[i] for i in kept]
        (frame,) = SEMANTIC.run(image, offset, [spec])
        assert frame.dtype == np.uint8
        assert np.array_equal(frame, expected)

    @pytest.mark.parametrize("factor", [0.3, -0.9, 5.0])
    @pytest.mark.parametrize("canvas", ["clip", "expand"])
    def test_shear_and_rotate_leave_their_inputs_unchanged(self, canvas, factor):
        """The input raster is only read, and every frame returned is
        read-only and shares no memory with the input or another frame."""
        img = encode(random_raster(16, seed=21))
        raster = decode(img)
        frames = [apply_shear(img, ShearSpec.from_factor(axis, factor, 4), canvas)
                  for axis in (HORIZONTAL, VERTICAL)]
        res = rotate(img, RotationSpec(np.degrees(np.arctan(factor))), canvas)
        frames += [res.phase1, res.phase2, res.final]
        assert np.array_equal(img.pixels, raster)
        for i, frame in enumerate(frames):
            assert not frame.pixels.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                frame.pixels[0, 0] = 1
            for other in [img] + frames[i + 1 :]:
                assert not np.shares_memory(frame.pixels, other.pixels)

    def test_dtypes_survive_clip(self):
        y, x = np.array([0, 7], dtype=np.int64), np.array([-3, 1], dtype=np.int64)
        terms = Terms(y, x, np.array([9, 255], dtype=np.uint8))
        kept = paint(np.zeros(64, dtype=np.uint8), 3, terms)
        assert kept.y.dtype == kept.x.dtype == np.int64
        assert kept.color.dtype == np.uint8
        assert kept.x.tolist() == [1]


class TestRotate:
    def test_zero_angle_identity_including_intermediates(self):
        img = encode(random_raster(16, seed=2))
        res = rotate(img, RotationSpec(0))
        assert res.final == img and res.phase1 == img and res.phase2 == img

    def test_45_degrees_4x4_manual_composition(self):
        raster = row_bands(4)
        img = encode(raster)
        res = rotate(img, RotationSpec(45))

        def hshift(y):  # q = 7/16 at 4x4
            off = 2 - y if y < 2 else y - 2
            d = (off * 7 + 8) // 16
            return -d if y < 2 else d

        def vshift(x):  # q = 11/16
            off = 2 - x if x < 2 else x - 2
            d = (off * 11 + 8) // 16
            return d if x < 2 else -d

        stage1 = np.zeros_like(raster)
        for y in range(4):
            for x in range(4):
                nx = x + hshift(y)
                if 0 <= nx < 4:
                    stage1[y, nx] = raster[y, x]
        stage2 = np.zeros_like(raster)
        for y in range(4):
            for x in range(4):
                ny = y + vshift(x)
                if 0 <= ny < 4:
                    stage2[ny, x] = stage1[y, x]
        stage3 = np.zeros_like(raster)
        for y in range(4):
            for x in range(4):
                nx = x + hshift(y)
                if 0 <= nx < 4:
                    stage3[y, nx] = stage2[y, x]
        assert np.array_equal(decode(res.phase1), stage1)
        assert np.array_equal(decode(res.phase2), stage2)
        assert np.array_equal(decode(res.final), stage3)

    def test_rejects_right_angle_and_beyond(self):
        with pytest.raises(UnsupportedAngleError):
            RotationSpec(90)
        with pytest.raises(UnsupportedAngleError):
            RotationSpec(-123)

    def test_positive_angle_rotates_counter_clockwise(self):
        # a dot right of center must move toward the top of the frame
        side = 16
        raster = np.zeros((side, side), dtype=np.uint8)
        raster[8, 13] = 255
        res = rotate(encode(raster), RotationSpec(45))
        ys, xs = np.nonzero(decode(res.final))
        assert len(ys) == 1 and ys[0] < 8

    def test_expanded_canvas_loses_nothing(self):
        img = encode(random_raster(16, seed=9) | 1)  # no zero pixels
        res = rotate(img, RotationSpec(60), canvas="expand")
        exponent, _ = expanded_canvas_params(4)
        assert res.final.n == exponent
        assert np.count_nonzero(decode(res.final)) == 16 * 16
        clipped = rotate(img, RotationSpec(60), canvas="clip")
        assert np.count_nonzero(decode(clipped.final)) < 16 * 16

    @pytest.mark.parametrize("theta", [30, 45, 60])
    def test_expand_canvas_at_the_papers_scale_is_the_oracle_chain(self, theta):
        """The paper's 512x512 rotation on the expand canvas, with both
        intermediate frames, against the oracle on the padded 2048 frame."""
        raster = random_raster(512, seed=512)
        res = rotate(encode(raster), RotationSpec(theta), "expand")
        oracle = oracle_chain(framed_raster(raster, "expand"), theta)
        for got, want in zip((res.phase1, res.phase2, res.final), oracle):
            assert np.array_equal(decode(got), want)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5),
        theta=st.floats(min_value=-90, max_value=90, exclude_min=True, exclude_max=True),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=4, theta=89.99, seed=0)
    @example(n=4, theta=-89.99, seed=1)
    @example(n=3, theta=0.0, seed=2)
    @example(n=5, theta=45.0, seed=3)
    def test_expanded_canvas_places_every_pixel_on_the_coordinate_map(self, n, theta, seed):
        side = 1 << n
        raster = np.random.default_rng(seed).integers(1, 256, (side, side), dtype=np.uint8)
        exponent, offset = expanded_canvas_params(n)
        coords = rotation_coordinate_map(side, theta) + offset
        assert coords.min() >= 0 and coords.max() < 1 << exponent  # nothing leaves the canvas
        expected = np.zeros((1 << exponent, 1 << exponent), dtype=np.uint8)
        expected[coords[..., 0], coords[..., 1]] = raster
        final = rotate(encode(raster), RotationSpec(theta), canvas="expand").final
        assert np.array_equal(decode(final), expected)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        theta=st.floats(min_value=-90, max_value=90, exclude_min=True, exclude_max=True),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=6, theta=89.99, seed=0)
    @example(n=5, theta=-89.99, seed=1)
    def test_expand_then_inverse_rotation_restores_the_image(self, n, theta, seed):
        """Each shear leaves its driver coordinate alone and -theta gives the
        exactly negated shears in the palindromic H, V, H order, so rotating
        back on the expand frame returns every term to where it started."""
        assert_rotation_round_trip(random_raster(1 << n, seed=seed), theta, SEMANTIC)

    @pytest.mark.parametrize(
        "n, theta",
        [(1, 89.99), (2, -61.3), (3, 37.0), (4, -23.5), (5, 71.2), (6, -8.4), (7, 52.9)],
    )
    def test_netlist_expand_then_inverse_rotation_restores_the_image(self, n, theta):
        # both rotations run on the 2^(n+2) frame, at most the netlist limit 2^9
        assert_rotation_round_trip(random_raster(1 << n, seed=n), theta, NetlistBackend())


class TestRowBlocks:
    """How each backend takes the image: the netlist backend all its terms
    in one block, the semantic one as a window of whole lines."""

    @pytest.mark.parametrize("side, canvas", [(512, "clip"), (128, "expand")])
    def test_netlist_backend_walks_each_phase_once(self, monkeypatch, side, canvas):
        """Every image the netlist backend accepts is one block, so a phase
        is one netlist walk over all its terms."""
        sizes = []
        walk = shear_netlists.run_shear_phase

        def counted(terms, n, spec, order="tb"):
            sizes.append(len(terms))
            return walk(terms, n, spec, order)

        monkeypatch.setattr(shear_netlists, "run_shear_phase", counted)
        rotate(encode(random_raster(side, seed=side)), RotationSpec(30), canvas, NetlistBackend())
        assert len(sizes) == 3 and sizes[0] == side * side

    @pytest.mark.parametrize("side, canvas", [(512, "clip"), (512, "expand"), (16, "clip")])
    def test_semantic_window_holds_every_term_still_in_the_frame(self, monkeypatch, side, canvas):
        """Each phase's frame is its window pasted on zeros.  No pixel is 0, so
        a term shows wherever it lands: the first window, whole rows shifted,
        is exactly the terms' bounding box, and on the expand canvas every
        window stays within 5 image areas of the 16 the frame has."""
        windows = []
        shift = shear._shift_lines

        def recorded(*args):
            windows.append(shift(*args))
            return windows[-1]

        monkeypatch.setattr(shear, "_shift_lines", recorded)
        res = rotate(encode(random_raster(side, seed=side) | 1), RotationSpec(45), canvas)
        assert len(windows) == 3
        for (window, top, left), frame in zip(windows, (res.phase1, res.phase2, res.final)):
            bottom, right = top + window.shape[0], left + window.shape[1]
            assert 0 <= top < bottom <= frame.side and 0 <= left < right <= frame.side
            outside = decode(frame)
            assert np.array_equal(outside[top:bottom, left:right], window)
            outside[top:bottom, left:right] = 0
            assert not outside.any()
            if canvas == "expand":
                assert window.size <= 5 * side * side
        rows, cols = np.nonzero(res.phase1.pixels)
        window, top, left = windows[0]
        assert (rows.min(), rows.max() + 1, cols.min(), cols.max() + 1) == (
            top, top + window.shape[0], left, left + window.shape[1])

    @pytest.mark.parametrize("canvas", ["clip", "expand"])
    @pytest.mark.parametrize("side", [2, 16, 64])
    def test_window_frames_are_the_oracle_chain(self, canvas, side):
        """From a 2x2 image up, rotate's frames and apply_shear's frame on
        either axis are the oracle's on the framed raster."""
        theta, factor = -37.5, 0.7
        raster = random_raster(side, seed=23)
        img = encode(raster)
        res = rotate(img, RotationSpec(theta), canvas)
        framed = framed_raster(raster, canvas)
        for got, want in zip((res.phase1, res.phase2, res.final), oracle_chain(framed, theta)):
            assert np.array_equal(decode(got), want)
        for axis in (HORIZONTAL, VERTICAL):
            sheared = apply_shear(img, ShearSpec.from_factor(axis, factor, img.n), canvas)
            assert np.array_equal(decode(sheared), oracle_shear(framed, axis, factor))

    def test_a_phase_that_clips_every_term_leaves_a_zero_frame_for_the_next(self):
        """A 2x2 image in the corner of an 8x8 frame, above its median row:
        factor 40 moves both rows past the left edge, and the vertical phase
        after it runs on the empty window."""
        image = encode(np.full((2, 2), 9, dtype=np.uint8))
        phases = [ShearSpec.from_factor(HORIZONTAL, 40.0, 3), ShearSpec.from_factor(VERTICAL, 0.5, 3),
                  ShearSpec.from_factor(HORIZONTAL, -1e6, 3)]
        frames = list(SEMANTIC.run(image, 0, phases))
        assert len(frames) == 3
        for frame in frames:
            assert frame.shape == (8, 8) and not frame.any()

    @pytest.mark.parametrize("axis", [HORIZONTAL, VERTICAL])
    @pytest.mark.parametrize("factor", [40.0, -1e6])
    def test_expand_factors_past_the_frame_edge_are_the_oracle(self, factor, axis):
        """At 64x64 on the 256 frame, factor 40 sends the lines next to the
        median against the frame's edges, partly clipped, and -1e6 sends all
        but the median line off the frame."""
        raster = random_raster(64, seed=40) | 1
        framed = framed_raster(raster, "expand")
        out = decode(apply_shear(encode(raster), ShearSpec.from_factor(axis, factor, 6), "expand"))
        assert np.array_equal(out, oracle_shear(framed, axis, factor))
        lines = out if axis == HORIZONTAL else out.T
        reaches_both_edges = bool(lines[:, 0].any() and lines[:, -1].any())
        assert reaches_both_edges == (factor == 40.0)


class TestCOrder:
    """Every semantic window and every frame is C-ordered, so a frame is
    written from its own buffer: a vertical phase transposes tile by tile."""

    @pytest.mark.parametrize("shape", [(0, 5), (1, 200), (200, 1), (63, 65), (64, 64), (130, 70),
                                       (1017, 1180)], ids=lambda shape: "x".join(map(str, shape)))
    def test_transposed_is_a_c_ordered_copy(self, shape):
        a = np.random.default_rng(sum(shape)).integers(0, 256, shape, dtype=np.uint8)
        t = shear._transposed(a)
        assert np.array_equal(t, a.T) and t.shape == a.T.shape
        assert t.flags.c_contiguous and not np.shares_memory(t, a)

    @pytest.mark.parametrize("side, canvas", [(512, "clip"), (512, "expand"), (16, "clip")])
    def test_every_semantic_window_is_c_ordered(self, monkeypatch, side, canvas):
        """On the clip canvas a whole-frame window is the snapshot itself."""
        windows = []
        shift = shear._shift_lines

        def recorded(*args):
            windows.append(shift(*args))
            return windows[-1]

        monkeypatch.setattr(shear, "_shift_lines", recorded)
        image = encode(random_raster(side, seed=side))
        res = rotate(image, RotationSpec(45), canvas)
        frames = [res.phase1, res.phase2, res.final]
        for axis in (HORIZONTAL, VERTICAL):
            frames.append(apply_shear(image, ShearSpec.from_factor(axis, 0.6, image.n), canvas))
        assert len(windows) == 5
        for (window, _, _), frame in zip(windows, frames):
            assert window.flags.c_contiguous
            whole = window.shape == frame.pixels.shape
            assert np.shares_memory(window, frame.pixels) == whole
            assert whole == (canvas == "clip")

    @pytest.mark.parametrize("backend", [SEMANTIC, NetlistBackend()], ids=["semantic", "netlist"])
    @pytest.mark.parametrize("canvas", ["clip", "expand"])
    @pytest.mark.parametrize("side", [2, 16, 64])
    def test_frames_are_c_ordered_and_read_only(self, backend, canvas, side):
        image = encode(random_raster(side, seed=side + 1))
        res = rotate(image, RotationSpec(-37.5), canvas, backend)
        frames = [res.phase1, res.phase2, res.final]
        for axis in (HORIZONTAL, VERTICAL):
            frames.append(apply_shear(image, ShearSpec.from_factor(axis, 0.7, image.n), canvas, backend))
        for frame in frames:
            assert frame.pixels.flags.c_contiguous and not frame.pixels.flags.writeable

    def test_clip_rotate_past_the_papers_scale_is_the_oracle_chain(self):
        """At 2048 every window spans many tiles of ``_transposed``."""
        raster = random_raster(2048, seed=2048)
        image = encode(raster)
        for theta in (30, 45, 60):
            res = rotate(image, RotationSpec(theta))
            for got, want in zip((res.phase1, res.phase2, res.final), oracle_chain(raster, theta)):
                assert np.array_equal(got.pixels, want), theta


class TestExactTurns:
    def test_quarter_turn_permutation(self):
        raster = random_raster(8, seed=4)
        img = encode(raster)
        out = decode(exact_turn(img, 90))
        side = 8
        expected = np.zeros_like(raster)
        for y in range(side):
            for x in range(side):
                expected[side - 1 - x, y] = raster[y, x]
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("degrees", [0, 90, 180, 270, 360, -90, 450])
    def test_every_multiple_of_90_matches_rot90(self, degrees):
        img = encode(random_raster(8, seed=6))
        out = decode(exact_turn(img, degrees))
        assert np.array_equal(out, np.rot90(img.pixels, k=degrees // 90))

    def test_half_turn_twice_is_identity(self):
        img = encode(random_raster(8, seed=5))
        assert exact_turn(exact_turn(img, 180), 180) == img

    def test_rejects_odd_turn(self):
        with pytest.raises(UnsupportedAngleError):
            exact_turn(encode(np.zeros((4, 4), dtype=np.uint8)), 45)
