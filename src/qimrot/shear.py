"""Shear transforms on NEQR images and their three-phase rotation.

A rotation by theta in (-90, 90) degrees factors into three axis shears,
horizontal then vertical then horizontal, with factors tan(theta/2), sin
(theta), tan(theta/2).  Each shear splits the image at its median line and
displaces the two halves in opposite directions, so rotation happens around
the image centroid:

    top    (y < Y_mid):  x -> x - round((Y_mid - y) * q)
    bottom (y >= Y_mid): x -> x + round((y - Y_mid) * q)
    left   (x < X_mid):  y -> y + round((X_mid - x) * q)
    right  (x >= X_mid): y -> y - round((x - X_mid) * q)

q is the shear factor's magnitude quantized to ``FRACTION_BITS`` fraction
bits (round-to-nearest, ties up), a ``FixedPointValue``; the factor's sign
flips every direction above.  Displacements round half-up, matching the
interpolation circuit exactly.  ``FRACTION_BITS`` is the one statement of
the factor's fixed-point format: the netlists' factor register and rounding
bit, the audit's smallest factor width and ``line_steps``' rounding all
derive from it.
Applying the three shears forward with these factor signs realizes the
factored inverse-rotation matrix, which rotates the displayed raster
counter-clockwise for positive angles; forward per-half application keeps
every pass collision free, since each row (or column) shifts rigidly.

Sheared coordinates may leave the frame, and are clipped after every shear
(background 0).  The canvas only picks the frame: ``clip`` runs on the
image's own 2^n frame; ``expand`` runs the same pipeline on a 2^(n+2)-sided
frame with the image centred, its origin 3 * 2^(n-1) inside.  Both frames
share the median, so the shears are the same; on the wide frame no rotation
term comes closer than 2^(n-1) to the edge, so nothing is clipped.

``rotate`` and ``apply_shear`` call one phase runner, the one pipeline: it
picks the frame, has the backend vet every phase before any runs, and keeps
each frame the backend yields as that phase's snapshot.  The backends are
pluggable: ``SEMANTIC`` (the default) or the gate-level
``shear_netlists.NetlistBackend``, which moves every term as one lane of its
netlist and paints the kept terms (``neqr.paint``).  ``line_steps`` states
the four equations once, on an array of frame lines; it is the one
displacement rule, with no per-term twin.  ``SEMANTIC`` uses what the
equations say about a whole line: it moves rigidly, so each phase shifts the
lines of a raster window, which holds every term still in the frame, with
one strided gather (the raster method of Paeth, "A Fast Algorithm for General
Raster Rotation", 1986).  A vertical phase transposes its window in and out
tile by tile, so every window and frame stays C-ordered.  A backend refuses
the requests it cannot run before any term is sheared.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from .neqr import NEQRImage

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

#: Fraction bits of the shear factor q: its whole number of steps of
#: 2^-FRACTION_BITS is what the netlists' factor register holds.
FRACTION_BITS = 4

#: Side multiplier and origin shift of the expanded canvas, in units of
#: 2^(n-1): side 8 * 2^(n-1) = 2^(n+2), origin offset 3 * 2^(n-1).
_EXPAND_OFFSET_HALVES = 3


class DomainError(ValueError):
    """Request outside the supported parameter domain."""


class UnsupportedAngleError(DomainError):
    """Rotation angle outside the supported open interval (-90, 90)."""


@dataclass(frozen=True)
class FixedPointValue:
    """An unsigned fixed-point number with FRACTION_BITS fraction bits.

    Held as a whole number of steps of 2^-FRACTION_BITS, sixteenths at four
    bits: value = sixteenths / 2^FRACTION_BITS.  Any sign is carried by the
    consumer (shear specs choose adder vs subtractor), never here.
    """

    sixteenths: int

    def __post_init__(self) -> None:
        if self.sixteenths < 0:
            raise ValueError("fixed-point value must be non-negative")

    @classmethod
    def quantize(cls, real: float) -> "FixedPointValue":
        """Round a non-negative real to the nearest step, ties upward."""
        if real < 0:
            raise ValueError("quantize takes a magnitude; track sign separately")
        scaled = real * (1 << FRACTION_BITS)
        if math.isinf(scaled):
            # only floats far above 2^53 get here, and those are whole numbers
            return cls(int(real) << FRACTION_BITS)
        return cls(int(scaled + 0.5))


@dataclass(frozen=True)
class ShearSpec:
    """One axis shear: quantized factor magnitude, direction sign, frame size."""

    axis: str
    factor: FixedPointValue
    sign: int
    n: int

    def __post_init__(self) -> None:
        if self.axis not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"axis must be horizontal or vertical, got {self.axis!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.n < 1:
            raise DomainError("cannot shear a single-pixel image")

    @property
    def median(self) -> int:
        """The reference line splitting the image into halves."""
        return 1 << (self.n - 1)

    @classmethod
    def from_factor(cls, axis: str, factor: float, n: int) -> "ShearSpec":
        sign = 1 if _finite(factor, "shear factor") >= 0 else -1
        return cls(axis, FixedPointValue.quantize(abs(factor)), sign, n)

    @classmethod
    def for_angle(cls, axis: str, theta_degrees: float, n: int) -> "ShearSpec":
        """A rotation's phase shear: tan(theta/2) horizontal, sin(theta) vertical."""
        theta = math.radians(_finite(theta_degrees, "angle"))
        factor = math.tan(theta / 2) if axis == HORIZONTAL else math.sin(theta)
        return cls.from_factor(axis, factor, n)


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class RotationSpec:
    """A rotation angle with its three-phase shear decomposition."""

    theta_degrees: float

    def __post_init__(self) -> None:
        if not abs(self.theta_degrees) < 90:
            raise UnsupportedAngleError(
                f"|angle| must be below 90 degrees, got {self.theta_degrees}"
            )

    def phase_specs(self, n: int) -> tuple[ShearSpec, ShearSpec, ShearSpec]:
        """Horizontal, vertical, horizontal shear specs for a 2^n frame."""
        horizontal = ShearSpec.for_angle(HORIZONTAL, self.theta_degrees, n)
        vertical = ShearSpec.for_angle(VERTICAL, self.theta_degrees, n)
        return horizontal, vertical, horizontal


@dataclass(frozen=True)
class RotationResult:
    """Final image plus the two intermediate shear frames."""

    final: NEQRImage
    phase1: NEQRImage
    phase2: NEQRImage


def line_steps(lines: np.ndarray, spec: ShearSpec) -> np.ndarray:
    """The module docstring's four half equations as one rule, on an array of
    driver lines (y for a horizontal shear, x for a vertical one).

    A line picks its half by the sign of its offset from the median; the
    moved coordinate (x, respectively y) shifts by |offset| * q rounded half
    up, in the direction set by the half and the factor's sign.  Steps
    saturate at +-side: a shift of a whole side or more takes every in-frame
    term of the line off the frame either way, so saturating keeps clipping
    exact.  Clamping q to side + 1 first is exact for the same reason (for
    an offset of 1 or more both displacements exceed the side; for offset 0
    both are 0), and keeps the product of an in-frame offset inside int64
    for frames up to 2^28.
    """
    side = 1 << spec.n
    offset = lines - spec.median
    steps = min(spec.factor.sixteenths, (side + 1) << FRACTION_BITS)
    # round half up, exact in steps of 2^-FRACTION_BITS
    d = (np.abs(offset) * steps + (1 << (FRACTION_BITS - 1))) >> FRACTION_BITS
    sign = spec.sign if spec.axis == HORIZONTAL else -spec.sign
    return sign * np.sign(offset) * np.minimum(d, side)


class PhaseBackend(Protocol):
    """How the shear phases of one request are computed."""

    def check(self, spec: ShearSpec) -> None:
        """Raise a DomainError if this backend cannot run the phase."""

    def run(self, image: NEQRImage, offset: int, phases: list[ShearSpec]) -> Iterator[np.ndarray]:
        """Shear the image, its origin ``offset`` rows and columns into the
        phases' 2^n frame, through each phase in turn; yield each phase's
        frame, a uint8 raster no one else holds, without the terms that left it."""


class SemanticBackend:
    """Plain integer arithmetic on a raster window: a uint8 array and the
    frame row and column of its origin, holding every term still in the
    frame.  Each phase shifts the window's lines by their ``line_steps``
    steps in one gather; runs every phase.  Every window, and so every
    frame it yields, is C-ordered: a vertical phase transposes its window
    in and out tile by tile (``_transposed``)."""

    def check(self, spec: ShearSpec) -> None:
        pass

    def run(self, image: NEQRImage, offset: int, phases: list[ShearSpec]) -> Iterator[np.ndarray]:
        window, top, left = image.pixels, offset, offset
        for phase in phases:
            window, top, left = _shift_lines(window, top, left, phase)
            side = 1 << phase.n
            if window.shape == (side, side):  # the window is the whole frame
                yield window
                continue
            frame = np.zeros((side, side), dtype=np.uint8)
            frame[top : top + window.shape[0], left : left + window.shape[1]] = window
            yield frame


#: Rows per tile of ``_transposed``'s copy; a tile spans the whole width.
#: Interleaved in-process rotates at 30, 45 and 60 degrees on a 2-vCPU host
#: (Python 3.11.7) read, at 512 clip: 64-row tiles 0.46-0.52 ms, 32-row
#: 0.50-0.57 ms, 64x64 squares 0.57-0.64 ms; at 2048 clip: 18.0-19.8,
#: 18.7-19.2 and 19.7-22.3 ms.
TRANSPOSE_TILE = 64


def _transposed(a: np.ndarray) -> np.ndarray:
    """``a.T`` as a new C-ordered array, copied TRANSPOSE_TILE rows of ``a``
    at a time, so that a tile's reads and writes stay in cache (a blocked
    copy: Frigo et al., "Cache-oblivious algorithms", 1999).  One whole
    transposing copy walks one side across its cache lines: about 30 ms for
    a 2048x2048 uint8 array, against 6 ms in tiles.
    """
    rows, cols = a.shape
    out = np.empty((cols, rows), dtype=a.dtype)
    for start in range(0, rows, TRANSPOSE_TILE):
        out[:, start : start + TRANSPOSE_TILE] = a[start : start + TRANSPOSE_TILE].T
    return out


def _shift_lines(window: np.ndarray, top: int, left: int, spec: ShearSpec) -> tuple:
    """The next (window, top, left) for the window at (``top``, ``left``) in
    the spec's frame, both windows C-ordered.  A vertical shear is the
    horizontal one on the window's tiled transpose, whose result is
    transposed back the same way.  Rows that leave the frame whole are cut;
    the rest go into a flat zero buffer, one gap of zeros between rows, and
    one fancy index into a read-only view of row-long spans of that buffer
    reads each row's new extent.
    """
    if not window.size:  # every term has left the frame
        return window, top, left
    horizontal = spec.axis == HORIZONTAL
    if not horizontal:
        window, top, left = _transposed(window), left, top
    side = 1 << spec.n
    lines, length = window.shape
    lo = line_steps(np.arange(top, top + lines), spec) + left  # each row's start after the shift
    low, high = int(lo.min()), int(lo.max())
    cut = slice(0, lines)
    if low <= -length or high >= side:  # some rows leave the frame whole
        live = np.flatnonzero((lo > -length) & (lo < side))
        if not live.size:
            return np.zeros((0, 0), dtype=np.uint8), 0, 0
        cut = slice(int(live[0]), int(live[-1]) + 1)
        lo = lo[cut]
        low, high, lines = int(lo.min()), int(lo.max()), len(lo)
    new_lo = max(low, 0)
    width = min(high + length, side) - new_lo
    # a row's new extent starts new_lo - lo into its old one: pad for the extremes
    gap = max(high - new_lo, new_lo - low + width - length, 0)
    stride = length + gap
    buffer = np.zeros(gap + lines * stride, dtype=np.uint8)
    buffer[gap:].reshape(lines, stride)[:, :length] = window[cut]
    # numpy refuses a view reaching past the buffer
    spans = np.ndarray((buffer.size - width + 1, width), np.uint8, buffer, 0, (1, 1))
    spans.flags.writeable = False
    starts = np.arange(gap + new_lo, buffer.size + new_lo, stride) - lo
    out, top = spans[starts], top + cut.start
    return (out, top, new_lo) if horizontal else (_transposed(out), new_lo, top)


SEMANTIC = SemanticBackend()


def expanded_canvas_params(n: int) -> tuple[int, int]:
    """(exponent, origin offset) of the expanded canvas for a 2^n image."""
    if n < 1:
        raise DomainError("cannot shear a single-pixel image")
    return n + 2, _EXPAND_OFFSET_HALVES << (n - 1)


def _frame(n: int, canvas: str) -> tuple[int, int]:
    """(exponent, offset of the image's origin) of the frame a canvas runs on."""
    if canvas == "clip":
        return n, 0
    if canvas == "expand":
        return expanded_canvas_params(n)
    raise ValueError(f"canvas must be clip or expand, got {canvas!r}")


def _run_phases(
    image: NEQRImage, phases: tuple[ShearSpec, ...], canvas: str, backend: PhaseBackend
) -> list[NEQRImage]:
    """Run ``phases``, specs for the image's own frame, on the frame the canvas
    picks, each vetted by the backend before any runs; one snapshot per phase."""
    exponent, offset = _frame(image.n, canvas)
    framed = [replace(phase, n=exponent) for phase in phases]
    for phase in framed:
        backend.check(phase)
    return [NEQRImage.adopt(exponent, frame) for frame in backend.run(image, offset, framed)]


def apply_shear(
    image: NEQRImage, spec: ShearSpec, canvas: str = "clip", backend: PhaseBackend = SEMANTIC
) -> NEQRImage:
    """Shear every term of an image; vacated positions take background 0."""
    if spec.n != image.n:
        raise ValueError(f"spec built for 2^{spec.n} frame, image is 2^{image.n}")
    (sheared,) = _run_phases(image, (spec,), canvas, backend)
    return sheared


def rotate(
    image: NEQRImage, spec: RotationSpec, canvas: str = "clip", backend: PhaseBackend = SEMANTIC
) -> RotationResult:
    """Run the three-phase shear pipeline, keeping both intermediate frames.

    Terms leaving the canvas's frame are dropped after every phase, exactly
    as each intermediate image shows.  The backend vets all three phases
    before the first one runs.
    """
    phase1, phase2, final = _run_phases(image, spec.phase_specs(image.n), canvas, backend)
    return RotationResult(final, phase1, phase2)


def exact_turn(image: NEQRImage, degrees: int) -> NEQRImage:
    """Exact rotation by any multiple of 90 degrees, counter-clockwise.

    These are coordinate permutations, not shears, and lose no pixels.
    """
    if degrees % 90 != 0:
        raise UnsupportedAngleError("exact turns support multiples of 90 degrees only")
    return NEQRImage(np.rot90(image.pixels, k=(degrees // 90) % 4))
