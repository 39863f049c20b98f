"""Classical reference implementations for equivalence testing.

Everything here works on plain numpy rasters with per-row (or per-column)
constant shifts, written directly against the shear equations: no gates, no
registers, no shared machinery with the engine.  Agreement between this
module and the semantic engine is therefore meaningful evidence rather
than a shared-code tautology.

Fixed-point conventions are the engine's defaults: factor magnitudes rounded
to four fraction bits (ties up), displacements rounded half-up, clipping to
the original frame with background 0.
"""
from __future__ import annotations

import math

import numpy as np

from .shear import UnsupportedAngleError


def _sixteenths(factor: float) -> int:
    """abs(factor) rounded to the nearest sixteenth, ties upward."""
    scaled = abs(factor) * 16
    if math.isinf(scaled):  # a float this large is a whole number
        return int(abs(factor)) * 16
    return int(scaled + 0.5)


def _place_shifted(dst: np.ndarray, src: np.ndarray, shift: int) -> None:
    """Write ``src`` into ``dst`` displaced by ``shift``, dropping overflow."""
    side = src.shape[0]
    if abs(shift) >= side:
        return
    if shift >= 0:
        dst[shift:] = src[: side - shift]
    else:
        dst[: side + shift] = src[-shift:]


def _shifts(coord: np.ndarray, mid: int, axis: str, factor: float) -> np.ndarray:
    """Displacement of the moved coordinate for each driver coordinate.

    Horizontal: a row above the median (coord < mid) shifts by
    -round((mid - y) * q) columns, a row below by +round((y - mid) * q).
    Vertical mirrors this, with columns shifting rows the other way.  A
    negative ``factor`` flips every direction.
    """
    if axis not in ("horizontal", "vertical"):
        raise ValueError(f"axis must be horizontal or vertical, got {axis!r}")
    sgn = 1 if factor >= 0 else -1
    if axis == "vertical":
        sgn = -sgn
    d = (np.abs(coord - mid) * _sixteenths(factor) + 8) // 16
    return np.where(coord < mid, -sgn * d, sgn * d)


def oracle_shear(raster: np.ndarray, axis: str, factor: float) -> np.ndarray:
    """One axis shear as rigid per-line shifts on the raster: rows for the
    horizontal axis, columns (rows of the transposed views) for vertical."""
    arr = np.asarray(raster)
    side = arr.shape[0]
    # Python-int lines: a huge factor's displacement must not overflow int64
    shifts = _shifts(np.arange(side, dtype=object), side // 2, axis, factor)
    out = np.zeros_like(arr)
    src, dst = (arr, out) if axis == "horizontal" else (arr.T, out.T)
    for line, shift in enumerate(shifts):
        _place_shifted(dst[line], src[line], int(shift))
    return out


def _radians(theta_degrees: float) -> float:
    """The angle in radians, once |angle| < 90 degrees is checked."""
    if not abs(theta_degrees) < 90:
        raise UnsupportedAngleError(
            f"|angle| must be below 90 degrees, got {theta_degrees}"
        )
    return math.radians(theta_degrees)


def _phase_factors(theta_degrees: float) -> tuple[float, float]:
    theta = _radians(theta_degrees)
    return math.tan(theta / 2), math.sin(theta)


def oracle_rotate(raster: np.ndarray, theta_degrees: float) -> np.ndarray:
    """Three-shear rotation: horizontal, vertical, horizontal, clipped."""
    tan_half, sin_full = _phase_factors(theta_degrees)
    out = oracle_shear(raster, "horizontal", tan_half)
    out = oracle_shear(out, "vertical", sin_full)
    return oracle_shear(out, "horizontal", tan_half)


def rotation_coordinate_map(side: int, theta_degrees: float) -> np.ndarray:
    """Where each (y, x) lands after the three shears, without clipping.

    Returns an int array of shape (side, side, 2) holding (y, x) per source
    position.  Used to measure geometric round-trip error independently of
    gray values.
    """
    tan_half, sin_full = _phase_factors(theta_degrees)
    mid = side // 2
    y, x = np.indices((side, side))
    x = x + _shifts(y, mid, "horizontal", tan_half)
    y = y + _shifts(x, mid, "vertical", sin_full)
    x = x + _shifts(y, mid, "horizontal", tan_half)
    return np.stack([y, x], axis=-1)


def ideal_rotate(raster: np.ndarray, theta_degrees: float) -> np.ndarray:
    """Real-arithmetic inverse-mapping rotation with nearest-neighbor sampling.

    Rotates counter-clockwise about the median point (side/2, side/2), the
    same fixed point as the shear pipeline.  Used only for quality metrics,
    never asserted bit-exactly against the shear path.
    """
    theta = _radians(theta_degrees)
    arr = np.asarray(raster)
    side = arr.shape[0]
    c = side // 2
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    y, x = np.indices((side, side))
    u, w = y - c, x - c
    src_y = np.floor(c + cos_t * u + sin_t * w + 0.5).astype(np.int64)
    src_x = np.floor(c - sin_t * u + cos_t * w + 0.5).astype(np.int64)
    valid = (src_y >= 0) & (src_y < side) & (src_x >= 0) & (src_x < side)
    out = np.zeros_like(arr)
    out[valid] = arr[src_y[valid], src_x[valid]]
    return out


def agreement_fraction(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of positions where two rasters agree exactly."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("rasters must share a shape")
    return float(np.mean(a == b))
