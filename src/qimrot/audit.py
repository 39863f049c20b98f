"""Gate-count audit: closed-form predictions vs measured netlist costs.

Counts are CNOT-equivalents under the documented convention (NOT = CNOT = 1,
Toffoli = 6).  Predictions are evaluated in exact rational arithmetic; the
half-integer coefficients never produce a fractional count on valid widths,
and if one ever did the report would surface it verbatim rather than round.

``measured_core`` covers the arithmetic content each closed form prices;
``overhead`` collects what the closed forms exclude: control-polarity
inversions, half-dispatch controls, operand masking, and uncomputation
passes.  ``delta`` is measured_core - predicted and must be zero for every
construction in this package.

The width kinds are priced from their own standalone builds.  The three
grid kinds are priced from one ``build_uniform_horizontal_shear(n, m)`` per
(n, m), through the spans its half-shear emitter records: the controlled
multiplier is the first ``multiply`` span, the top half shear the first
``half`` span, and the full shear the whole netlist.  Each is still a built,
validated netlist priced gate by gate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .arithmetic import build_adder, build_interpolation, build_self_adder
from .core import core_and_overhead_cost
from .shear import FRACTION_BITS, DomainError
from .shear_netlists import build_uniform_horizontal_shear

#: Kinds priced by a single width n.
WIDTH_KINDS = ("self_adder", "adder", "interpolation")
#: Kinds priced by (n, m).
GRID_KINDS = ("ctrl_multi", "top_half_shear", "full_horizontal_shear")

#: kind -> closed form, called with (n, m); width kinds ignore m.
_CLOSED_FORMS = {
    "self_adder": lambda n, m: Fraction(n),
    "adder": lambda n, m: Fraction(28 * n - 12),
    "interpolation": lambda n, m: Fraction(28 * n - 11),
    "ctrl_multi": lambda n, m: Fraction(29, 2) * n * (n + 2 * m - 1),
    "top_half_shear": lambda n, m: (Fraction(29, 2) * n + 29 * m + Fraction(139, 2)) * n - 35,
    "full_horizontal_shear": lambda n, m: Fraction(29 * n * n + 58 * m * n + 139 * n - 70),
}

#: width kind -> builder.  Builders are looked up by name per call, so a
#: wrapped module attribute (a profiler's, say) is the one called.
_WIDTH_BUILDERS = {
    "self_adder": lambda n: build_self_adder(n),
    "adder": lambda n: build_adder(n),
    "interpolation": lambda n: build_interpolation(n),
}


def _check(kind: str, n: int, m: int | None) -> None:
    """Refuse an unknown kind, or widths its closed form does not take."""
    if kind not in _CLOSED_FORMS:
        raise ValueError(f"unknown circuit kind {kind!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if kind in GRID_KINDS and m is None:
        raise ValueError(f"{kind} needs the factor width m")


def predict(kind: str, n: int, m: int | None = None) -> Fraction:
    """Exact rational evaluation of the closed form for one construction."""
    _check(kind, n, m)
    return _CLOSED_FORMS[kind](n, m)


def _grid_costs(n: int, m: int) -> dict[str, tuple[int, int]]:
    """(measured core, overhead) of every grid kind, from one full uniform
    shear: its first half, the rest, and the first half's multiplier are
    each priced once."""
    netlist = build_uniform_horizontal_shear(n, m)
    (_, half), multiply = netlist.spans["half"][0], netlist.spans["multiply"][0]
    top = core_and_overhead_cost(netlist, 0, half)  # the first half opens the netlist
    rest = core_and_overhead_cost(netlist, half)
    return {
        "ctrl_multi": core_and_overhead_cost(netlist, *multiply),
        "top_half_shear": top,
        "full_horizontal_shear": (top[0] + rest[0], top[1] + rest[1]),
    }


def measure(kind: str, n: int, m: int | None = None) -> tuple[int, int]:
    """Build the netlist and return (measured core, overhead) counts.

    A grid kind is priced from its span of ``build_uniform_horizontal_shear(n,
    m)``, the same path ``audit_report`` takes; m must be at least
    ``FRACTION_BITS``.
    """
    _check(kind, n, m)
    if kind in GRID_KINDS:
        return _grid_costs(n, m)[kind]
    return core_and_overhead_cost(_WIDTH_BUILDERS[kind](n))


@dataclass(frozen=True)
class AuditRow:
    kind: str
    n: int
    m: int | None
    predicted: Fraction
    measured_core: int
    overhead: int

    @cached_property
    def delta(self) -> Fraction:
        return Fraction(self.measured_core) - self.predicted


@dataclass
class GateCostReport:
    rows: list[AuditRow]

    def __post_init__(self) -> None:
        self._mismatches = [r for r in self.rows if r.delta != 0]

    def mismatches(self) -> list[AuditRow]:
        return list(self._mismatches)

    @property
    def ok(self) -> bool:
        """Every row, shear rows included, matches its closed form exactly."""
        return not self._mismatches

    def to_csv(self) -> str:
        lines = ["kind,n,m,predicted,measured_core,overhead,delta"]
        for r in self.rows:
            m = "" if r.m is None else str(r.m)
            lines.append(
                f"{r.kind},{r.n},{m},{r.predicted},{r.measured_core},"
                f"{r.overhead},{r.delta}"
            )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        header = f"{'kind':<24}{'n':>3}{'m':>4}{'predicted':>12}{'core':>10}{'overhead':>10}{'delta':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            m = "-" if r.m is None else str(r.m)
            lines.append(
                f"{r.kind:<24}{r.n:>3}{m:>4}{str(r.predicted):>12}"
                f"{r.measured_core:>10}{r.overhead:>10}{str(r.delta):>8}"
            )
        status = "all core deltas zero" if self.ok else "CORE DELTA NONZERO"
        lines.append(f"{len(self.rows)} rows; {status}")
        return "\n".join(lines)


def _extent(values: Sequence[int]) -> str:
    return f"{min(values)}..{max(values)}" if values else "empty"


def audit_report(
    n_values: Sequence[int] = range(2, 7),
    m_values: Sequence[int] = range(FRACTION_BITS, 9),
) -> GateCostReport:
    """Measure every construction over the requested size grid, building
    one full uniform shear per (n, m) for all three grid kinds.

    The one check of an audit grid: raises DomainError for an empty range,
    an n below 1 or an m below FRACTION_BITS (the factor's fraction must
    fit in its m bits).
    """
    if not n_values or not m_values or min(n_values) < 1 or min(m_values) < FRACTION_BITS:
        raise DomainError(
            f"audit needs non-empty ranges with n >= 1 and m >= {FRACTION_BITS}, "
            f"got n {_extent(n_values)}, m {_extent(m_values)}"
        )
    rows: list[AuditRow] = []
    for kind in WIDTH_KINDS:
        for n in n_values:
            core, overhead = measure(kind, n)
            rows.append(AuditRow(kind, n, None, predict(kind, n), core, overhead))
    grid = {(n, m): _grid_costs(n, m) for n in n_values for m in m_values}
    for kind in GRID_KINDS:
        for n in n_values:
            for m in m_values:
                core, overhead = grid[n, m][kind]
                rows.append(AuditRow(kind, n, m, predict(kind, n, m), core, overhead))
    return GateCostReport(rows)
