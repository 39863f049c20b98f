import math
import statistics

import numpy as np
import pytest

from qimrot.neqr import decode, encode
from qimrot.oracle import (
    agreement_fraction,
    ideal_rotate,
    oracle_rotate,
    oracle_shear,
    rotation_coordinate_map,
)
from qimrot.patterns import centered_dot, checkerboard, gradient, random_raster, row_bands
from qimrot.shear import RotationSpec, ShearSpec, UnsupportedAngleError, apply_shear, rotate


class TestOracleShear:
    def test_zero_factor_identity(self):
        r = random_raster(16, seed=21)
        assert np.array_equal(oracle_shear(r, "horizontal", 0.0), r)

    def test_4x4_factor_one_shifts(self):
        out = oracle_shear(row_bands(4), "horizontal", 1.0)
        src = row_bands(4)
        expected = np.zeros_like(src)
        expected[0, 0:2] = src[0, 2:4]
        expected[1, 0:3] = src[1, 1:4]
        expected[2] = src[2]
        expected[3, 1:4] = src[3, 0:3]
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("axis", ["horizontal", "vertical"])
    @pytest.mark.parametrize("factor", [0.2, -0.41, 0.5, 1.0, -1.0])
    def test_bit_equal_with_engine_on_random_32x32(self, axis, factor):
        r = random_raster(32, seed=22)
        engine = decode(apply_shear(encode(r), ShearSpec.from_factor(axis, factor, 5)))
        assert np.array_equal(oracle_shear(r, axis, factor), engine)

    @pytest.mark.parametrize("factor", [1e308, -1.7976931348623157e308])
    def test_huge_factor_keeps_only_the_median_line(self, factor):
        r = random_raster(16, seed=23)
        rows, columns = np.zeros_like(r), np.zeros_like(r)
        rows[8], columns[:, 8] = r[8], r[:, 8]
        assert np.array_equal(oracle_shear(r, "horizontal", factor), rows)
        assert np.array_equal(oracle_shear(r, "vertical", factor), columns)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            oracle_shear(np.zeros((4, 4), dtype=np.uint8), "diagonal", 0.5)


class TestOracleRotate:
    def test_zero_angle_identity(self):
        r = gradient(32)
        assert np.array_equal(oracle_rotate(r, 0), r)

    @pytest.mark.parametrize("theta", [45, 30, -30, 60])
    def test_bit_equal_with_engine_on_64x64(self, theta):
        r = random_raster(64, seed=23)
        engine = decode(rotate(encode(r), RotationSpec(theta)).final)
        assert np.array_equal(oracle_rotate(r, theta), engine)

    def test_rejects_out_of_domain_angle(self):
        with pytest.raises(UnsupportedAngleError):
            oracle_rotate(np.zeros((8, 8), dtype=np.uint8), 90)

    def test_back_rotation_restores_center_region(self):
        """After +30 then -30 degrees the inner quarter square's coordinates
        land within a small error of where they started."""
        side = 64
        fwd = rotation_coordinate_map(side, 30)
        back = rotation_coordinate_map(side, -30)
        errors = []
        lo, hi = side // 2 - side // 4, side // 2 + side // 4
        for y in range(lo, hi):
            for x in range(lo, hi):
                fy, fx = fwd[y, x]
                if 0 <= fy < side and 0 <= fx < side:
                    by, bx = back[fy, fx]
                else:  # fell outside the mapped grid; skip (does not happen here)
                    continue
                errors.append(math.hypot(by - y, bx - x))
        assert errors and statistics.mean(errors) <= 2.0


class TestIdealRotate:
    def test_zero_angle_identity(self):
        r = gradient(16)
        assert np.array_equal(ideal_rotate(r, 0), r)

    @pytest.mark.parametrize("theta", [30, 45, -60])
    def test_centered_dot_is_fixed(self, theta):
        out = ideal_rotate(centered_dot(32), theta)
        assert out[16, 16] == 255

    def test_agreement_fraction_is_reported_metric(self):
        r = checkerboard(64)
        sheared = decode(rotate(encode(r), RotationSpec(45)).final)
        ideal = ideal_rotate(r, 45)
        frac = agreement_fraction(sheared, ideal)
        assert 0.0 <= frac <= 1.0
        # informational only; sanity floor well below observed ~0.9
        assert frac > 0.5

    def test_agreement_fraction_shape_check(self):
        with pytest.raises(ValueError):
            agreement_fraction(np.zeros((2, 2)), np.zeros((3, 3)))
