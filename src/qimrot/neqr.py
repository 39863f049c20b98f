"""NEQR codec: rasters <-> position/color basis terms.

An NEQR image stores a 2^n x 2^n grayscale raster as a uniform superposition
of |color>|y x> basis terms with an 8-bit color register.  Because every
operation in this package permutes basis states, the uniform 1/2^n amplitude
is a constant global factor and is never materialised; the codec is an exact
bijection between rasters and term sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


class ImageFormatError(ValueError):
    """Raster or image file violates the format contract."""


@dataclass(frozen=True)
class PixelTerm:
    """One basis term: row value, column value, 8-bit color value.

    Coordinates may leave the 2^n frame while a term is mid-shear; range is
    enforced when terms are materialised into an image, not here.
    """

    y: int
    x: int
    color: int


class NEQRImage:
    """A 2^n x 2^n grayscale raster with its basis-term view."""

    def __init__(self, raster: np.ndarray) -> None:
        arr = np.asarray(raster)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ImageFormatError(f"raster must be square 2D, got shape {arr.shape}")
        side = arr.shape[0]
        if side < 1 or side & (side - 1):
            raise ImageFormatError(f"side must be a power of two, got {side}")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == arr.astype(np.int64)):
                raise ImageFormatError("pixel values must be integers")
            arr = arr.astype(np.int64)
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise ImageFormatError("pixel values must lie in [0, 255]")
        self.n = side.bit_length() - 1
        self._raster = arr.astype(np.uint8)
        self._raster.setflags(write=False)

    @property
    def side(self) -> int:
        return 1 << self.n

    def terms(self, offset: int = 0) -> Iterator[PixelTerm]:
        """Iterate the 4^n basis terms in row-major order, placed ``offset``
        rows and columns into a larger frame."""
        coords = range(offset, offset + self.side)
        for y, row in zip(coords, self._raster):
            for x, value in zip(coords, row):
                yield PixelTerm(y, x, int(value))

    def raster(self) -> np.ndarray:
        return self._raster.copy()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NEQRImage):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._raster, other._raster))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"NEQRImage({self.side}x{self.side})"

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[PixelTerm]) -> "NEQRImage":
        """Materialise in-frame terms onto a zero background.

        Terms outside [0, 2^n) in either coordinate are dropped (clipping).
        """
        side = 1 << n
        canvas = np.zeros((side, side), dtype=np.uint8)
        for term in terms:
            if 0 <= term.y < side and 0 <= term.x < side:
                canvas[term.y, term.x] = term.color
        return cls(canvas)


def encode(raster: np.ndarray) -> NEQRImage:
    """Encode a square power-of-two raster; rejects bad shapes and ranges."""
    return NEQRImage(raster)


def decode(image: NEQRImage) -> np.ndarray:
    """Exact inverse of encode: decode(encode(r)) == r bit for bit."""
    return image.raster()
