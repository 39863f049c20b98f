"""Gate-level realizations of the half-image shears.

Two families share the same pipeline shape (offset subtractor, controlled
multiplier, rounding interpolation, coordinate update, uncomputation):

* image netlists, built per frame exponent with the widths the semantics
  require: two's-complement coordinate registers with two guard bits plus a
  sign bit, a 5-bit factor register (1 integer + 4 fraction bits) driving
  the multiplier stages, and a carry-free modular adder for the final
  coordinate update.  ``run_shear_phase`` takes and returns ``neqr.Terms``
  columns and runs the netlist once per phase, with one bit-sliced lane per
  term (``core.execute_lanes``); ``NetlistBackend`` runs it inside
  ``shear.rotate``/``shear.apply_shear`` on frames up to 2^9, and it agrees
  bit for bit with the semantic engine.

* uniform-width netlists for the cost audit, where the two coordinate
  adders, the multiplier stage count, and the interpolation all share one
  width n and the factor register has width m.  Their core gate content is
  exactly two adders + one controlled multiplier + one interpolation, so the
  measured core equals the closed forms (14.5n + 29m + 69.5)n - 35 per half
  and 29n^2 + 58mn + 139n - 70 for both halves.

In both families the half-dispatch control (one CNOT per half, firing on
the driving coordinate's top bit, polarity 0 for the low half) and the full
uncomputation pass are tagged overhead; the core counts cover arithmetic
content only.  Every working register returns to zero, so the two half
segments compose in either order and whole phases chain cleanly.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .arithmetic import (
    emit_adder,
    emit_ctrl_multi,
    emit_interpolation,
    emit_modular_adder,
)
from .core import Netlist, NetlistBuilder, execute_lanes
from .neqr import Terms
from .shear import HORIZONTAL, VERTICAL, DomainError, ShearSpec

#: The largest frame exponent netlist mode runs: 2^9, the paper's 512x512 on
#: the clip canvas (128x128 images on the expand canvas's 4x frame).  A phase
#: walks the netlist once with one bit-sliced lane per term, so its time and
#: the memory its wires hold (one 4^n-bit int each) grow about 4x per step.
MAX_NETLIST_EXPONENT = 9

#: Guard bits + sign added to coordinate registers.  The factor register
#: bounds the displacement, |d| <= round(2^(n-1) * 31/16) <= 2^n, so an
#: in-frame coordinate lands in [-2^n, 2^(n+1)), inside the
#: [-2^(n+2), 2^(n+2)) window this provides.
COORD_EXTRA_BITS = 3

#: 1 integer bit + 4 fraction bits: factors up to 31/16 (1.9375).
_FACTOR_BITS = 5


class NetlistModeError(DomainError):
    """Request outside what gate-level execution supports."""


def _emit_offset(
    nb: NetlistBuilder, coord: list[int], med: list[int], carry: list[int], n: int, low_half: bool
) -> list[int]:
    """Subtract to get offset = |coordinate - median|; return the register holding it."""
    s = nb.mark()
    if low_half:
        # offset = median - coordinate, left in the median register
        emit_adder(nb, coord[:n], med, carry[:n])
        offset_reg = med
    else:
        # offset = coordinate - median, left in the coordinate register
        emit_adder(nb, med[:n], coord[: n + 1], carry[:n])
        offset_reg = coord[: n + 1]
    nb.reverse_tail(s)
    return offset_reg


def _emit_image_half(
    nb: NetlistBuilder, regs: dict, n: int, horizontal: bool, low_half: bool, sign: int
) -> None:
    driver = regs["y"] if horizontal else regs["x"]
    moved = regs["x"] if horizontal else regs["y"]
    polarity = 0 if low_half else 1
    ctrl = regs["ctrl"][0]
    carry = regs["carry"]

    with nb.overhead():
        nb.cx(driver[n - 1], ctrl, on=polarity)
    start = nb.mark()
    offset_reg = _emit_offset(nb, driver, regs["med"], carry, n, low_half)
    emit_ctrl_multi(
        nb,
        regs["q"],
        offset_reg,
        ctrl,
        regs["p"],
        regs["t"][0],
        regs["mask"],
        carry,
        regs["dbls"],
    )
    integer = regs["p"][4:] + [regs["ipc"][0]]
    emit_interpolation(nb, integer, regs["p"][3], regs["rnd"], carry[: n + 2])
    stop = nb.mark()

    # coordinate update: subtract for (top, +) / (right, +), add otherwise
    subtract = (sign > 0) == (low_half == horizontal)
    s = nb.mark()
    emit_modular_adder(nb, integer, moved, carry[: n + COORD_EXTRA_BITS])
    if subtract:
        nb.reverse_tail(s)

    nb.append_inverse_of(start, stop)
    with nb.overhead():
        nb.cx(driver[n - 1], ctrl, on=polarity)


@lru_cache(maxsize=None)
def build_shear_netlist(n: int, axis: str, sign: int, order: str = "tb") -> Netlist:
    """Both half shears of one axis over a 2^n frame, ready for execution.

    Registers ``y`` and ``x`` are (n+3)-bit two's-complement coordinates,
    ``q`` the 5-bit factor in sixteenths, ``med`` the preloaded median
    2^(n-1).  Everything else is working space restored to zero.
    """
    if n < 1:
        raise ValueError("frame exponent must be at least 1")
    if axis not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"axis must be horizontal or vertical, got {axis!r}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if order not in ("tb", "bt"):
        raise ValueError(f"order must be 'tb' or 'bt', got {order!r}")
    width = n + COORD_EXTRA_BITS
    multiplicand = n + 1  # offset register width
    nb = NetlistBuilder()
    regs = {
        "y": nb.register("y", width),
        "x": nb.register("x", width),
        "q": nb.register("q", _FACTOR_BITS),
        "med": nb.register("med", n + 1),
        "ctrl": nb.register("ctrl", 1, ancilla=True),
        "p": nb.register("p", multiplicand + _FACTOR_BITS, ancilla=True),
        "t": nb.register("t", 1, ancilla=True),
        "mask": nb.register("mask", multiplicand + _FACTOR_BITS - 1, ancilla=True),
        "carry": nb.register("carry", multiplicand + _FACTOR_BITS - 1, ancilla=True),
        "rnd": nb.register("rnd", n + 2, ancilla=True),
        "ipc": nb.register("ipc", 1, ancilla=True),
    }
    regs["dbls"] = [
        nb.register(f"dbl{i + 1}", multiplicand + i + 1, ancilla=True)
        for i in range(_FACTOR_BITS)
    ]
    for low_half in (order == "tb", order == "bt"):
        _emit_image_half(nb, regs, n, axis == HORIZONTAL, low_half, sign)
    return nb.build()


# ---------------------------------------------------------------------------
# term-level execution driver


def run_shear_phase(terms: Terms, n: int, spec: ShearSpec, order: str = "tb") -> Terms:
    """Push every term through the gate-level shear; coordinates unclipped.

    One netlist walk for the whole phase: each term is one lane, loaded from
    the ``y``/``x`` columns, with ``q`` and ``med`` the same in every lane.
    Input terms must be in frame: the half dispatch reads a single register
    bit, which identifies the half only for coordinates in [0, 2^n).  The
    driver and color columns pass through; the moved one is rebuilt.
    """
    side = 1 << n
    # a negative coordinate reads as a huge unsigned one
    outside = (terms.y.view(np.uint64) >= side) | (terms.x.view(np.uint64) >= side)
    if outside.any():
        i = int(outside.argmax())
        raise NetlistModeError(
            f"netlist execution needs in-frame terms, got ({terms.y[i]}, {terms.x[i]})"
        )
    netlist = build_shear_netlist(n, spec.axis, spec.sign, order)
    horizontal = spec.axis == HORIZONTAL
    register = "x" if horizontal else "y"
    width = n + COORD_EXTRA_BITS
    inputs = {"y": terms.y, "x": terms.x, "q": spec.factor.sixteenths, "med": spec.median}
    value = execute_lanes(netlist, len(terms), inputs, (register,))[register]
    moved = value - ((value >> (width - 1)) << width)  # two's complement
    return Terms(terms.y, moved, terms.color) if horizontal else Terms(moved, terms.x, terms.color)


class NetlistBackend:
    """Phase backend executing the gate-level shear netlist on every term.

    The one place that refuses what gate-level execution cannot run.
    """

    def __init__(self, order: str = "tb") -> None:
        self.order = order

    def check(self, spec: ShearSpec) -> None:
        if spec.n > MAX_NETLIST_EXPONENT:
            raise NetlistModeError(
                f"netlist mode is limited to frames up to {1 << MAX_NETLIST_EXPONENT} px "
                f"a side (got {1 << spec.n}; on the expand canvas the frame is 4x the "
                "image's side); use semantic mode for larger images"
            )
        if spec.factor.sixteenths >= 1 << _FACTOR_BITS:
            raise NetlistModeError(
                f"netlist mode holds factors up to {(1 << _FACTOR_BITS) - 1}/16 "
                f"(got {spec.factor.sixteenths}/16); use semantic mode"
            )

    def shear(self, terms: Terms, spec: ShearSpec) -> Terms:
        return run_shear_phase(terms, spec.n, spec, self.order).clip(spec.n)


# ---------------------------------------------------------------------------
# uniform-width netlists for the cost audit


def _emit_uniform_half(nb: NetlistBuilder, regs: dict, n: int, low_half: bool) -> None:
    polarity = 0 if low_half else 1
    ctrl = regs["ctrl"][0]
    carry = regs["carry"]
    y = regs["y"]

    with nb.overhead():
        nb.cx(y[n - 1], ctrl, on=polarity)
    start = nb.mark()
    offset_reg = _emit_offset(nb, y, regs["med"], carry, n, low_half)
    emit_ctrl_multi(
        nb,
        offset_reg[:n],
        regs["fac"],
        ctrl,
        regs["p"],
        regs["t"][0],
        regs["mask"],
        carry,
        regs["dbls"],
    )
    emit_interpolation(
        nb,
        regs["p"][4 : 4 + n] + [regs["ipc"][0]],
        regs["p"][3],
        regs["rnd"],
        carry[:n],
    )
    stop = nb.mark()

    s = nb.mark()
    emit_adder(nb, regs["p"][4 : 4 + n], regs["x"], carry[:n])
    if low_half:
        nb.reverse_tail(s)

    nb.append_inverse_of(start, stop)
    with nb.overhead():
        nb.cx(y[n - 1], ctrl, on=polarity)


def _uniform_builder(n: int, m: int) -> tuple[NetlistBuilder, dict]:
    if m < 4:
        raise ValueError("factor width must cover the 4 fraction bits (m >= 4)")
    nb = NetlistBuilder()
    regs = {
        "y": nb.register("y", n + 1),
        "med": nb.register("med", n + 1),
        "fac": nb.register("fac", m),
        "x": nb.register("x", n + 1),
        "ctrl": nb.register("ctrl", 1, ancilla=True),
        "p": nb.register("p", n + m, ancilla=True),
        "t": nb.register("t", 1, ancilla=True),
        "mask": nb.register("mask", n + m - 1, ancilla=True),
        "carry": nb.register("carry", n + m - 1, ancilla=True),
        "rnd": nb.register("rnd", n, ancilla=True),
        "ipc": nb.register("ipc", 1, ancilla=True),
    }
    regs["dbls"] = [
        nb.register(f"dbl{i + 1}", m + i + 1, ancilla=True) for i in range(n)
    ]
    return nb, regs


def build_uniform_half_shear(n: int, m: int) -> Netlist:
    """The top half shear at the audit's uniform widths.

    Core content: two width-n adders, one n-stage multiplier with an m-bit
    multiplicand, one width-n interpolation.
    """
    nb, regs = _uniform_builder(n, m)
    _emit_uniform_half(nb, regs, n, True)
    return nb.build()


def build_uniform_horizontal_shear(n: int, m: int) -> Netlist:
    """Both half shears at uniform widths over shared registers."""
    nb, regs = _uniform_builder(n, m)
    _emit_uniform_half(nb, regs, n, True)
    _emit_uniform_half(nb, regs, n, False)
    return nb.build()
