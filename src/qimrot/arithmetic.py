"""Reversible arithmetic netlists and the fixed-point factor they multiply by.

Four constructions, each with an exact closed-form core cost in
CNOT-equivalents (NOT = CNOT = 1, Toffoli = 6):

==========================  =========================
ripple-carry adder(n)       28n - 12
self-adder (doubling, n)    n
interpolation(n)            28n - 11
ctrl-multi(n, m)            14.5 n (n + 2m - 1)
==========================  =========================

The adder is the carry/sum ripple construction: n forward carry blocks, one
mid CNOT, n - 1 reversed carry blocks and n sum blocks, where a carry block
is 2 Toffolis + 1 CNOT (13 CNOT-equivalents) and a sum block is 2 CNOTs.
That tally makes 28n - 12 exact: 13(2n - 1) + 2n + 1.

The controlled multiplier runs one stage per multiplier bit.  Stage i holds
the running multiplicand 2^i * a (width m + i), doubles it for the next stage
with a self-adder (width m + i), computes t = c AND x_i with one Toffoli,
adds a t-masked copy of 2^i * a into the product with a plain adder
(width m + i), then unmasks and uncomputes t with the second Toffoli.  The
core content of stage i is therefore 2 Toffolis + self-adder(m+i) +
adder(m+i) = 29(m+i); summing over stages gives 14.5 n (n + 2m - 1) exactly.
The per-bit masking Toffolis and the final uncomputation of the doubling
chain are tagged overhead: they are required for the circuit to be a clean
reversible permutation, but they sit outside the core closed forms.  The
final stage's doubling output is never consumed; it is kept so every stage
prices identically.

Interpolation rounds a fixed-point value with a 4-bit fraction to the nearest
integer, ties upward: one CNOT copies the fraction's top bit into a zeroed
register, and one adder adds it to the integer part.  The copy register ends
holding that bit; it is a deterministic auxiliary output (cleared by the
enclosing circuit's uncompute pass), not an ancilla, because clearing it
locally would take one more CNOT than the closed form allows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Netlist, NetlistBuilder, invert


@dataclass(frozen=True)
class FixedPointValue:
    """An unsigned fixed-point number with exactly four fraction bits.

    Held as a whole number of sixteenths: value = sixteenths / 16.  Any sign
    is carried by the consumer (shear specs choose adder vs subtractor),
    never here.
    """

    sixteenths: int

    def __post_init__(self) -> None:
        if self.sixteenths < 0:
            raise ValueError("fixed-point value must be non-negative")

    @classmethod
    def quantize(cls, real: float) -> "FixedPointValue":
        """Round a non-negative real to the nearest sixteenth, ties upward."""
        if real < 0:
            raise ValueError("quantize takes a magnitude; track sign separately")
        scaled = real * 16
        if math.isinf(scaled):
            # only floats far above 2^53 get here, and those are whole numbers
            return cls(int(real) * 16)
        return cls(int(scaled + 0.5))


# ---------------------------------------------------------------------------
# gate-level assemblies


def _carry(nb: NetlistBuilder, c: int, a: int, b: int, cout: int) -> None:
    nb.ccx(a, b, cout)
    nb.cx(a, b)
    nb.ccx(c, b, cout)


def _carry_inv(nb: NetlistBuilder, c: int, a: int, b: int, cout: int) -> None:
    nb.ccx(c, b, cout)
    nb.cx(a, b)
    nb.ccx(a, b, cout)


def _sum(nb: NetlistBuilder, c: int, a: int, b: int) -> None:
    nb.cx(a, b)
    nb.cx(c, b)


def _ripple(
    nb: NetlistBuilder, a: list[int], b: list[int], carry: list[int], top: int | None,
) -> None:
    """b[:k] <- a + b[:k] over k = len(a) bits; the carry out of the top bit
    goes into wire ``top``, or is dropped when ``top`` is None."""
    k = len(a)
    if len(carry) < k:
        raise ValueError("need one carry wire per a bit")
    for i in range(k - 1):
        _carry(nb, carry[i], a[i], b[i], carry[i + 1])
    if top is not None:
        _carry(nb, carry[k - 1], a[k - 1], b[k - 1], top)
        nb.cx(a[k - 1], b[k - 1])
    _sum(nb, carry[k - 1], a[k - 1], b[k - 1])
    for i in range(k - 2, -1, -1):
        _carry_inv(nb, carry[i], a[i], b[i], carry[i + 1])
        _sum(nb, carry[i], a[i], b[i])


def emit_adder(nb: NetlistBuilder, a: list[int], b: list[int], carry: list[int]) -> None:
    """b <- (a + b) mod 2^(n+1) over an n-bit a and an (n+1)-bit b.

    ``carry`` supplies n ancilla wires that enter and leave at zero.
    """
    if len(b) != len(a) + 1:
        raise ValueError("b register must be one bit wider than a")
    _ripple(nb, a, b, carry, b[-1])


def emit_modular_adder(nb: NetlistBuilder, a: list[int], b: list[int], carry: list[int]) -> None:
    """b <- (a + b) mod 2^k over equal-width registers; no carry-out wire.

    The dropped carry makes this the natural update for two's-complement
    coordinate registers.  Cost 28k - 26: the adder less its top carry block
    and mid CNOT.
    """
    if len(b) != len(a):
        raise ValueError("modular adder needs equal-width registers")
    _ripple(nb, a, b, carry, None)


def emit_self_adder(nb: NetlistBuilder, x: list[int], out: list[int]) -> None:
    """out <- 2x into a zeroed register one bit wider than x: n copy CNOTs.

    Bit 0 of ``out`` is never touched, so the doubled value always ends in 0.
    """
    if len(out) != len(x) + 1:
        raise ValueError("doubling output must be one bit wider than input")
    for i, wire in enumerate(x):
        nb.cx(wire, out[i + 1])


def emit_ctrl_multi(
    nb: NetlistBuilder,
    x: list[int],
    a: list[int],
    ctrl: int,
    p: list[int],
    t: int,
    mask: list[int],
    carry: list[int],
    doubles: list[list[int]],
) -> None:
    """p <- a * x when ctrl = 1, p unchanged when ctrl = 0.

    ``doubles`` holds one register per stage, widths m+1 .. m+n; stage i
    doubles its operand into doubles[i] before the conditional add consumes
    the operand.  All working registers are restored to zero.
    """
    n, m = len(x), len(a)
    if len(p) < n + m:
        raise ValueError("product register too narrow")
    if len(mask) < m + n - 1 or len(carry) < m + n - 1:
        raise ValueError("mask/carry registers too narrow")
    operand = a
    for i in range(n):
        w = m + i
        emit_self_adder(nb, operand, doubles[i])
        nb.ccx(ctrl, x[i], t)
        with nb.overhead():
            for j in range(w):
                nb.ccx(t, operand[j], mask[j])
        emit_adder(nb, mask[:w], p[: w + 1], carry[:w])
        with nb.overhead():
            for j in range(w):
                nb.ccx(t, operand[j], mask[j])
        nb.ccx(ctrl, x[i], t)
        operand = doubles[i]
    with nb.overhead():
        for i in reversed(range(n)):
            source = a if i == 0 else doubles[i - 1]
            emit_self_adder(nb, source, doubles[i])


def emit_interpolation(
    nb: NetlistBuilder,
    integer: list[int],
    frac_top: int,
    rnd: list[int],
    carry: list[int],
) -> None:
    """integer <- integer + frac_top, i.e. round-half-up of a 4-bit fraction.

    ``integer`` spans n value bits plus one carry-out wire; ``rnd`` is the
    zeroed n-bit register that receives the copied rounding bit.
    """
    nb.cx(frac_top, rnd[0])
    emit_adder(nb, rnd, integer, carry)


# ---------------------------------------------------------------------------
# standalone circuit builders


def build_adder(n: int) -> Netlist:
    """|a, b> -> |a, a + b> with the (n+1)-bit b register receiving the sum."""
    nb = NetlistBuilder()
    a = nb.register("a", n)
    b = nb.register("b", n + 1)
    carry = nb.register("carry", n, ancilla=True)
    emit_adder(nb, a, b, carry)
    return nb.build()


def build_subtractor(n: int) -> Netlist:
    """|a, d> -> |a, d - a>: the adder run backwards."""
    return invert(build_adder(n))


def build_self_adder(n: int) -> Netlist:
    """|x>|0> -> |x>|2x>: x copied one position up, lowest output bit 0."""
    nb = NetlistBuilder()
    x = nb.register("x", n)
    out = nb.register("out", n + 1)
    emit_self_adder(nb, x, out)
    return nb.build()


def build_ctrl_multi(n: int, m: int) -> Netlist:
    """|a>|x>|c>|0> -> |a>|x>|c>|a*x*c| over n multiplier and m multiplicand bits."""
    nb = NetlistBuilder()
    x = nb.register("x", n)
    a = nb.register("a", m)
    ctrl = nb.register("ctrl", 1)
    p = nb.register("p", n + m)
    t = nb.register("t", 1, ancilla=True)
    mask = nb.register("mask", n + m - 1, ancilla=True)
    carry = nb.register("carry", n + m - 1, ancilla=True)
    doubles = [nb.register(f"dbl{i + 1}", m + i + 1, ancilla=True) for i in range(n)]
    emit_ctrl_multi(nb, x, a, ctrl[0], p, t[0], mask, carry, doubles)
    return nb.build()


def build_interpolation(n: int) -> Netlist:
    """Round an n-bit integer with a 4-bit fraction to the nearest integer.

    Registers: ``a`` (n value bits plus carry-out, receives the result),
    ``frac`` (4 bits, preserved), ``rnd`` (ends holding the rounding bit).
    """
    nb = NetlistBuilder()
    a = nb.register("a", n + 1)
    frac = nb.register("frac", 4)
    rnd = nb.register("rnd", n)
    carry = nb.register("carry", n, ancilla=True)
    emit_interpolation(nb, a, frac[3], rnd, carry)
    return nb.build()
