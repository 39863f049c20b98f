"""Deterministic synthetic rasters used by the CLI and tests."""
from __future__ import annotations

import numpy as np


def checkerboard(side: int, tile: int = 8) -> np.ndarray:
    """Alternating 0/255 tiles."""
    y, x = np.indices((side, side))
    return np.where(((y // tile) + (x // tile)) % 2 == 0, 0, 255).astype(np.uint8)


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
