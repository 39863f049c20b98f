"""Gate-level realizations of the half-image shears.

One emitter, ``_emit_half``, builds every half shear of both families:
half dispatch, offset subtractor, controlled multiplier, rounding
interpolation, coordinate update, uncomputation.  One layout,
``_working_registers``, sizes every working register from the multiplier's
operand widths and the interpolation width, and slices the product's
integer part, the wires the interpolation rounds into, once for both.  The
families differ only in the emitter's arguments: the multiplier's operand
roles, and the update's adder, addend and target.

* Image netlists (``build_shear_netlist``), executed by ``--mode netlist``:
  (n+3)-bit two's-complement coordinates, the factor ``q`` (1 integer bit
  + ``shear.FRACTION_BITS`` fraction bits) multiplying the offset, and a
  carry-free modular adder adding the rounded integer to the moved
  coordinate.  ``run_shear_phase``
  takes and returns ``neqr.Terms`` columns and runs the netlist once per
  phase, one bit-sliced lane per term (``core.execute_lanes``);
  ``NetlistBackend`` runs it inside ``shear.rotate``/``shear.apply_shear`` on
  frames up to 2^9, bit for bit equal to the semantic engine.

* Uniform-width netlists for the cost audit: the offset's low n bits
  multiply the m-bit ``fac``, and a width-n adder updates ``x``.  Their core
  is exactly two adders + one controlled multiplier + one interpolation, so
  it equals the closed forms (14.5n + 29m + 69.5)n - 35 per half and
  29n^2 + 58mn + 139n - 70 for both halves.  The audit builds only the full
  shear and prices its rows from the ``half`` and ``multiply`` spans every
  half records: the first ``multiply`` span is the standalone
  ``arithmetic.build_ctrl_multi(n, m)`` gate for gate, and the first
  ``half`` span is ``build_uniform_half_shear(n, m)``, a prefix of the full
  shear.

The half-dispatch control (one CNOT per half, firing on the driving
coordinate's top bit, polarity 0 for the low half) and the uncomputation
pass are tagged overhead; core counts cover arithmetic only.  Every working
register returns to zero, so the two half segments compose in either order
and whole phases chain cleanly.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from typing import Callable

import numpy as np

from .arithmetic import (
    emit_adder,
    emit_ctrl_multi,
    emit_interpolation,
    emit_modular_adder,
)
from .core import Netlist, NetlistBuilder, execute_lanes
from .neqr import NEQRImage, Terms, paint
from .shear import FRACTION_BITS, HORIZONTAL, VERTICAL, DomainError, ShearSpec

#: The largest frame exponent netlist mode runs: 2^9, the paper's 512x512 on
#: the clip canvas (128x128 images on the expand canvas's 4x frame).  A phase
#: walks the netlist once with one bit-sliced lane per term, so its time and
#: the memory its wires hold (one 4^n-bit int each) grow about 4x per step.
MAX_NETLIST_EXPONENT = 9

#: Guard bits + sign added to coordinate registers.  The factor register
#: holds q < 2 and bounds the displacement, |d| <= round(2^(n-1) * q) <=
#: 2^n, so an in-frame coordinate lands in [-2^n, 2^(n+1)), inside the
#: [-2^(n+2), 2^(n+2)) window this provides.
COORD_EXTRA_BITS = 3

#: 1 integer bit + the fraction bits: factors below 2 (31/16 at four bits).
_FACTOR_BITS = 1 + FRACTION_BITS


class NetlistModeError(DomainError):
    """Request outside what gate-level execution supports."""


def _working_registers(
    nb: NetlistBuilder, regs: dict, multiplier_bits: int, multiplicand_bits: int, rnd_bits: int
) -> None:
    """Declare a half shear's working registers into ``regs``, every width
    derived from the multiplier's operand widths and the interpolation's.
    ``regs["integer"]`` is what the interpolation rounds into: the
    product's ``rnd_bits`` wires above its fraction bits, plus a carry-out
    wire."""
    product = multiplier_bits + multiplicand_bits
    widths = {"ctrl": 1, "p": product, "t": 1, "mask": product - 1, "carry": product - 1,
              "rnd": rnd_bits, "ipc": 1}
    for name, width in widths.items():
        regs[name] = nb.register(name, width, ancilla=True)
    regs["dbls"] = [nb.register(f"dbl{i}", multiplicand_bits + i, ancilla=True)
                    for i in range(1, multiplier_bits + 1)]
    regs["integer"] = regs["p"][FRACTION_BITS : FRACTION_BITS + rnd_bits] + regs["ipc"]


def _emit_half(
    nb: NetlistBuilder,
    regs: dict,
    driver: list[int],
    low_half: bool,
    operands: Callable[[list[int]], tuple[list[int], list[int]]],
    update: tuple[Callable, list[int], list[int]],
    subtract: bool,
) -> None:
    """One half shear over a 2^n frame, n + 1 being the width of ``med``.

    ``operands`` maps the offset register to the multiplier's (multiplier,
    multiplicand); ``update`` is (adder, addend, target), the adder applied
    backwards when ``subtract`` is set.  The product is rounded into
    ``regs["integer"]`` by its top fraction bit.  The half is recorded as a
    ``half`` span and its multiplier as a ``multiply`` span.
    """
    med, ctrl, carry = regs["med"], regs["ctrl"][0], regs["carry"]
    n = len(med) - 1
    polarity = 0 if low_half else 1

    with nb.span("half"):
        with nb.overhead():
            nb.cx(driver[n - 1], ctrl, on=polarity)
        start = nb.mark()
        # offset = |driver - median|: median - driver on the low half, left in
        # med; driver - median on the high half, left in the driver's low wires
        subtrahend, offset = (driver[:n], med) if low_half else (med[:n], driver[: n + 1])
        emit_adder(nb, subtrahend, offset, carry)
        nb.reverse_tail(start)
        multiplier, multiplicand = operands(offset)
        p, t = regs["p"], regs["t"][0]
        with nb.span("multiply"):
            emit_ctrl_multi(nb, multiplier, multiplicand, ctrl, p, t, regs["mask"], carry, regs["dbls"])
        emit_interpolation(nb, regs["integer"], p[FRACTION_BITS - 1], regs["rnd"], carry)
        stop = nb.mark()

        adder, addend, target = update
        adder(nb, addend, target, carry)
        if subtract:
            nb.reverse_tail(stop)

        nb.append_inverse_of(start, stop)
        with nb.overhead():
            nb.cx(driver[n - 1], ctrl, on=polarity)


@lru_cache(maxsize=None)
def build_shear_netlist(n: int, axis: str, sign: int, order: str = "tb") -> Netlist:
    """Both half shears of one axis over a 2^n frame, ready for execution.

    Registers ``y`` and ``x`` are (n+3)-bit two's-complement coordinates,
    ``q`` the factor in steps of 2^-FRACTION_BITS, ``med`` the preloaded
    median 2^(n-1).  Everything else is working space restored to zero.
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
    nb = NetlistBuilder()
    regs = {
        "y": nb.register("y", width),
        "x": nb.register("x", width),
        "q": nb.register("q", _FACTOR_BITS),
        "med": nb.register("med", n + 1),
    }
    # q times the (n+1)-bit offset, rounded to an (n+2)-bit integer
    _working_registers(nb, regs, _FACTOR_BITS, n + 1, n + 2)
    horizontal = axis == HORIZONTAL
    driver, moved = (regs["y"], regs["x"]) if horizontal else (regs["x"], regs["y"])
    update = (emit_modular_adder, regs["integer"], moved)
    for low_half in (order == "tb", order == "bt"):
        # coordinate update: subtract for (top, +) / (right, +), add otherwise
        subtract = (sign > 0) == (low_half == horizontal)
        _emit_half(nb, regs, driver, low_half, lambda off: (regs["q"], off), update, subtract)
    return nb.build()


# ---------------------------------------------------------------------------
# term-level execution driver


def run_shear_phase(terms: Terms, n: int, spec: ShearSpec, order: str = "tb") -> Terms:
    """Push every term through the gate-level shear; coordinates unclipped.

    One netlist walk for the whole phase: each term is one lane, loaded from
    the ``y``/``x`` columns, with ``q`` and ``med`` the same in every lane.
    Input terms must be in frame (refused, not dropped): the half dispatch
    reads a single register bit, which identifies the half only for
    coordinates in [0, 2^n).  So must ``spec`` be built for that frame.  The
    driver and color columns pass through; the moved one is rebuilt.
    """
    if spec.n != n:
        raise ValueError(f"spec built for 2^{spec.n} frame, phase runs on 2^{n}")
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
            one = 1 << FRACTION_BITS
            raise NetlistModeError(
                f"netlist mode holds factors up to {(1 << _FACTOR_BITS) - 1}/{one} "
                f"(got {spec.factor.sixteenths}/{one}); use semantic mode"
            )

    def run(self, image: NEQRImage, offset: int, phases: list[ShearSpec]) -> Iterator[np.ndarray]:
        """One netlist walk per phase over every term still in the frame:
        ``paint`` keeps the terms the phase left in it for the next."""
        terms = image.terms(offset)
        for phase in phases:
            frame = np.zeros(1 << 2 * phase.n, dtype=np.uint8)
            terms = paint(frame, phase.n, run_shear_phase(terms, phase.n, phase, self.order))
            yield frame


# ---------------------------------------------------------------------------
# uniform-width netlists for the cost audit


def _uniform_shear(n: int, m: int, halves: tuple[bool, ...]) -> Netlist:
    if m < FRACTION_BITS:
        raise ValueError(
            f"factor width must cover the {FRACTION_BITS} fraction bits (m >= {FRACTION_BITS})"
        )
    nb = NetlistBuilder()
    regs = {
        "y": nb.register("y", n + 1),
        "med": nb.register("med", n + 1),
        "fac": nb.register("fac", m),
        "x": nb.register("x", n + 1),
    }
    # the offset's low n bits times fac, rounded to an n-bit integer
    _working_registers(nb, regs, n, m, n)
    update = (emit_adder, regs["integer"][:n], regs["x"])  # subtracted on the low half
    for low_half in halves:
        _emit_half(nb, regs, regs["y"], low_half, lambda off: (off[:n], regs["fac"]), update, low_half)
    return nb.build()


def build_uniform_half_shear(n: int, m: int) -> Netlist:
    """The top half shear at the audit's uniform widths.

    Core content: two width-n adders, one n-stage multiplier with an m-bit
    multiplicand, one width-n interpolation.
    """
    return _uniform_shear(n, m, (True,))


def build_uniform_horizontal_shear(n: int, m: int) -> Netlist:
    """Both half shears at uniform widths over shared registers."""
    return _uniform_shear(n, m, (True, False))
