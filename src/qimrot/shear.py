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

q is the shear factor's magnitude quantized to four fraction bits
(round-to-nearest, ties up); the factor's sign flips every direction above.
Displacements round half-up, matching the interpolation circuit exactly.
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

``rotate`` and ``apply_shear`` call one phase runner, the one pipeline; it
carries the terms as numpy columns (``neqr.Terms``).  Each shear phase runs
on a pluggable backend, which drops the terms leaving the frame:
``SEMANTIC`` (the default) or the gate-level ``shear_netlists.NetlistBackend``.
``line_steps`` states the four equations once, on an array of frame lines;
it is the one displacement rule, with no per-term twin.  ``SEMANTIC`` shifts
every term by its line's step in one gather and masks only the moved column,
since the driver column does not change.  A backend refuses the requests it
cannot run before any term is sheared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from .arithmetic import FixedPointValue
from .neqr import NEQRImage, Terms

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

#: Side multiplier and origin shift of the expanded canvas, in units of
#: 2^(n-1): side 8 * 2^(n-1) = 2^(n+2), origin offset 3 * 2^(n-1).
_EXPAND_OFFSET_HALVES = 3


class DomainError(ValueError):
    """Request outside the supported parameter domain."""


class UnsupportedAngleError(DomainError):
    """Rotation angle outside the supported open interval (-90, 90)."""


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
    exact.  Clamping q to 16 * (side + 1) first is exact for the same reason
    (for an offset of 1 or more both displacements exceed the side; for
    offset 0 both are 0), and keeps the product of an in-frame offset inside
    int64 for frames up to 2^28.
    """
    side = 1 << spec.n
    offset = lines - spec.median
    q16 = min(spec.factor.sixteenths, 16 * (side + 1))
    d = (np.abs(offset) * q16 + 8) // 16  # round half up, exact in sixteenths
    sign = spec.sign if spec.axis == HORIZONTAL else -spec.sign
    return sign * np.sign(offset) * np.minimum(d, side)


class PhaseBackend(Protocol):
    """How one shear phase is computed.

    Input terms must be in the spec's 2^n frame; terms that leave it are
    dropped.  The driver coordinate of every kept term is unchanged.
    """

    def check(self, spec: ShearSpec) -> None:
        """Raise a DomainError if this backend cannot run the phase."""

    def shear(self, terms: Terms, spec: ShearSpec) -> Terms:
        """Shear every term; returns the terms still in the frame."""


class SemanticBackend:
    """Plain integer arithmetic: a step per frame line, one gather and one
    mask on the moved column per phase; runs every phase."""

    def check(self, spec: ShearSpec) -> None:
        pass

    def shear(self, terms: Terms, spec: ShearSpec) -> Terms:
        side = 1 << spec.n
        horizontal = spec.axis == HORIZONTAL
        driver, moved = (terms.y, terms.x) if horizontal else (terms.x, terms.y)
        shifted = line_steps(np.arange(side), spec)[driver]
        shifted += moved  # in place on the fresh gather, never on an input column
        # the driver column is unchanged and in frame: mask the moved one only
        inside = shifted.view(np.uint64) < side  # a negative coordinate reads as huge
        color = terms.color
        if not inside.all():
            shifted = shifted[inside]  # drop the full column before the next copy
            driver, color = driver[inside], color[inside]
        out = Terms(driver, shifted, color) if horizontal else Terms(shifted, driver, color)
        out.frame = spec.n
        return out


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
    picks; one snapshot per phase."""
    exponent, offset = _frame(image.n, canvas)
    framed = [replace(phase, n=exponent) for phase in phases]
    for phase in framed:
        backend.check(phase)
    terms = image.terms(offset)
    snapshots = []
    for phase in framed:
        terms = backend.shear(terms, phase)
        snapshots.append(NEQRImage.from_terms(exponent, terms))
    return snapshots


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
    return NEQRImage(np.rot90(image.raster(), k=(degrees // 90) % 4))
