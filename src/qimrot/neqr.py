"""NEQR codec: rasters <-> position/color basis terms.

An NEQR image stores a 2^n x 2^n grayscale raster as a uniform superposition
of |color>|y x> basis terms with an 8-bit color register.  Because every
operation in this package permutes basis states, the uniform 1/2^n amplitude
is a constant global factor and is never materialised; the codec is an exact
bijection between rasters and term sets.  ``Terms`` holds a term set as
three checked columns, so a transform moves all terms at once; it is the
only term representation.  ``paint`` is the one place terms meet a raster,
and ``check_pixel_values`` the one check of a raster's values, which
``Terms``' colors and ``pgm.write_pgm`` share.
"""
from __future__ import annotations

import numpy as np


class ImageFormatError(ValueError):
    """Raster or image file violates the format contract."""


def check_pixel_values(arr: np.ndarray) -> None:
    """Raise ImageFormatError unless every value of ``arr`` is a whole number
    in [0, 255], so that its uint8 cast is exact.

    A uint8 array is in range by its dtype and is not scanned.  Floats are
    checked before any int cast (NaN, inf and |v| >= 2^63 warn in one), and
    an object array as the floats its elements convert to.  Any other dtype,
    complex above all, is refused before any cast: the cast would drop the
    imaginary part of ``4+1j`` with only a warning.
    """
    if arr.dtype == np.uint8:
        return
    if arr.dtype.kind == "O":
        # a numpy complex element would cast with only a warning
        if any(isinstance(v, (complex, np.complexfloating)) for v in arr.flat):
            raise ImageFormatError("pixel values must be integers")
        try:
            arr = arr.astype(np.float64)
        except (TypeError, ValueError):  # a text or nested element
            raise ImageFormatError("pixel values must be integers") from None
        except OverflowError:  # an int beyond float64
            raise ImageFormatError("pixel values must lie in [0, 255]") from None
    if arr.dtype.kind not in "biuf":
        raise ImageFormatError("pixel values must be integers")
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr) & (np.trunc(arr) == arr)):
        raise ImageFormatError("pixel values must be integers")
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ImageFormatError("pixel values must lie in [0, 255]")


class Terms:
    """Basis terms as columns: int64 rows ``y`` and columns ``x``, and the
    8-bit color register ``color`` as uint8.

    Coordinates may leave the 2^n frame while a term is mid-shear; ``paint``
    drops the terms outside when it materialises them.  ``len`` is the term
    count.  Narrower integer coordinates are widened to int64; uint64 and
    float ones are refused with TypeError.  Colors must pass
    ``check_pixel_values``, as a raster's pixels do.
    """

    __slots__ = ("y", "x", "color")

    def __init__(self, y: np.ndarray, x: np.ndarray, color: np.ndarray) -> None:
        self.y = y.astype(np.int64, casting="safe", copy=False)
        self.x = x.astype(np.int64, casting="safe", copy=False)
        check_pixel_values(color)
        self.color = color.astype(np.uint8, copy=False)

    def __len__(self) -> int:
        return len(self.y)


class NEQRImage:
    """A 2^n x 2^n grayscale raster with its basis-term view."""

    def __init__(self, raster: np.ndarray) -> None:
        arr = np.asarray(raster)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ImageFormatError(f"raster must be square 2D, got shape {arr.shape}")
        side = arr.shape[0]
        if side < 1 or side & (side - 1):
            raise ImageFormatError(f"side must be a power of two, got {side}")
        check_pixel_values(arr)
        self._hold(arr.astype(np.uint8, order="C"))

    def _hold(self, raster: np.ndarray) -> None:
        """Keep ``raster``, a valid uint8 raster no one else holds, read-only."""
        self.n = raster.shape[0].bit_length() - 1
        raster.setflags(write=False)
        self._raster = raster

    @property
    def side(self) -> int:
        return 1 << self.n

    @property
    def pixels(self) -> np.ndarray:
        """The held raster itself, read-only: a view for reading, not a copy."""
        return self._raster

    def terms(self, offset: int = 0) -> Terms:
        """All 4^n basis terms in row-major order, placed ``offset`` rows and
        columns into a larger frame."""
        coords = np.arange(offset, offset + self.side, dtype=np.int64)
        y, x = np.repeat(coords, self.side), np.tile(coords, self.side)
        return Terms(y, x, self._raster.ravel())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NEQRImage):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._raster, other._raster))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"NEQRImage({self.side}x{self.side})"

    @classmethod
    def adopt(cls, n: int, canvas: np.ndarray) -> "NEQRImage":
        """The image of ``canvas``, a flat or square row-major 4^n uint8 raster
        the caller gives up: valid by construction, so held read-only, not copied."""
        image = cls.__new__(cls)
        image._hold(canvas.reshape(1 << n, 1 << n))
        return image

    @classmethod
    def from_terms(cls, n: int, terms: Terms) -> "NEQRImage":
        """Materialise in-frame terms onto a zero background.

        Terms outside [0, 2^n) in either coordinate are dropped (clipping).
        """
        canvas = np.zeros(1 << 2 * n, dtype=np.uint8)
        paint(canvas, n, terms)
        return cls.adopt(n, canvas)


def paint(canvas: np.ndarray, n: int, terms: Terms) -> Terms:
    """Write the colors of the terms inside the 2^n frame onto ``canvas``, a
    flat row-major 4^n uint8 raster, and return those terms in their order;
    the terms outside are dropped.

    In-frame terms must hit distinct positions, as the terms of one image
    do under any shear.
    """
    side = 1 << n
    # a negative coordinate reads as a huge unsigned one
    inside = (terms.y.view(np.uint64) < side) & (terms.x.view(np.uint64) < side)
    kept = Terms(terms.y[inside], terms.x[inside], terms.color[inside])
    flat = kept.y << n
    flat |= kept.x
    canvas[flat] = kept.color
    return kept


def encode(raster: np.ndarray) -> NEQRImage:
    """Encode a square power-of-two raster; rejects bad shapes and ranges."""
    return NEQRImage(raster)


def decode(image: NEQRImage) -> np.ndarray:
    """Exact inverse of encode, as a writable copy: decode(encode(r)) == r."""
    return image.pixels.copy()
