"""Deterministic synthetic rasters for the tests, the oracle frames they are
checked against, and the small shear helpers the test modules share."""
import math

import numpy as np

from qimrot.oracle import oracle_shear
from qimrot.shear import HORIZONTAL, VERTICAL, FixedPointValue, ShearSpec, expanded_canvas_params


def gradient(side: int) -> np.ndarray:
    """Diagonal ramp covering the full 0..255 range."""
    y, x = np.indices((side, side))
    return ((y + x) * 255 // max(2 * side - 2, 1)).astype(np.uint8)


def random_raster(side: int, seed: int = 20240) -> np.ndarray:
    """Fixed-seed uniform noise; deterministic across runs."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(side, side), dtype=np.int64).astype(np.uint8)


def row_bands(side: int) -> np.ndarray:
    """Each row one constant gray, spread over 1..255 (no zero rows).

    Keeping every band nonzero makes shear displacements visible against the
    zero background.
    """
    levels = np.linspace(1, 255, side).astype(np.uint8)
    return np.repeat(levels[:, None], side, axis=1)


def centered_dot(side: int) -> np.ndarray:
    """Single bright pixel at the rotation center (side/2, side/2)."""
    canvas = np.zeros((side, side), dtype=np.uint8)
    canvas[side // 2, side // 2] = 255
    return canvas


def framed_raster(raster, canvas):
    """The raster on the frame the canvas runs on, zero-padded at its offset."""
    side = raster.shape[0]
    if canvas == "clip":
        return raster
    exponent, offset = expanded_canvas_params(side.bit_length() - 1)
    padded = np.zeros((1 << exponent, 1 << exponent), dtype=np.uint8)
    padded[offset : offset + side, offset : offset + side] = raster
    return padded


def oracle_chain(raster, theta):
    """phase1, phase2, final: the oracle's three shears of a rotation, on a
    raster already on the canvas's frame (see ``framed_raster``)."""
    tan_half, sin_full = math.tan(math.radians(theta) / 2), math.sin(math.radians(theta))
    phase1 = oracle_shear(raster, HORIZONTAL, tan_half)
    phase2 = oracle_shear(phase1, VERTICAL, sin_full)
    return phase1, phase2, oracle_shear(phase2, HORIZONTAL, tan_half)


def spec_for(axis, q16, sign, n):
    """The half shear of factor q16/16, in ``ShearSpec``'s own argument order."""
    return ShearSpec(axis, FixedPointValue(q16), sign, n)


def columns(terms):
    """The y, x and color columns of ``Terms`` as lists."""
    return terms.y.tolist(), terms.x.tolist(), terms.color.tolist()
