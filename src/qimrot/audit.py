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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arithmetic import (
    build_adder,
    build_ctrl_multi,
    build_interpolation,
    build_self_adder,
)
from .core import core_and_overhead_cost
from .shear_netlists import build_uniform_half_shear, build_uniform_horizontal_shear

#: Kinds priced by a single width n.
WIDTH_KINDS = ("self_adder", "adder", "interpolation")
#: Kinds priced by (n, m).
GRID_KINDS = ("ctrl_multi", "top_half_shear", "full_horizontal_shear")

#: kind -> (closed form, builder), each called with (n, m); width kinds ignore
#: m.  Builders are looked up by name per call, so a wrapped module attribute
#: (a profiler's, say) is the one called.
_KINDS = {
    "self_adder": (lambda n, m: Fraction(n), lambda n, m: build_self_adder(n)),
    "adder": (lambda n, m: Fraction(28 * n - 12), lambda n, m: build_adder(n)),
    "interpolation": (lambda n, m: Fraction(28 * n - 11), lambda n, m: build_interpolation(n)),
    "ctrl_multi": (lambda n, m: Fraction(29, 2) * n * (n + 2 * m - 1),
                   lambda n, m: build_ctrl_multi(n, m)),
    "top_half_shear": (lambda n, m: (Fraction(29, 2) * n + 29 * m + Fraction(139, 2)) * n - 35,
                       lambda n, m: build_uniform_half_shear(n, m)),
    "full_horizontal_shear": (lambda n, m: Fraction(29 * n * n + 58 * m * n + 139 * n - 70),
                              lambda n, m: build_uniform_horizontal_shear(n, m)),
}


def _kind(kind: str, n: int, m: int | None) -> tuple:
    """The (closed form, builder) pair of a kind, after checking its widths."""
    if kind not in _KINDS:
        raise ValueError(f"unknown circuit kind {kind!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if kind in GRID_KINDS and m is None:
        raise ValueError(f"{kind} needs the factor width m")
    return _KINDS[kind]


def predict(kind: str, n: int, m: int | None = None) -> Fraction:
    """Exact rational evaluation of the closed form for one construction."""
    closed_form, _ = _kind(kind, n, m)
    return closed_form(n, m)


def measure(kind: str, n: int, m: int | None = None) -> tuple[int, int]:
    """Build the netlist and return (measured core, overhead) counts."""
    _, build = _kind(kind, n, m)
    return core_and_overhead_cost(build(n, m))


@dataclass(frozen=True)
class AuditRow:
    kind: str
    n: int
    m: int | None
    predicted: Fraction
    measured_core: int
    overhead: int

    @property
    def delta(self) -> Fraction:
        return Fraction(self.measured_core) - self.predicted


@dataclass
class GateCostReport:
    rows: list[AuditRow]

    def mismatches(self) -> list[AuditRow]:
        return [r for r in self.rows if r.delta != 0]

    @property
    def ok(self) -> bool:
        """Every row, shear rows included, matches its closed form exactly."""
        return not self.mismatches()

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


def audit_report(
    n_values: Sequence[int] = range(2, 7),
    m_values: Sequence[int] = range(4, 9),
) -> GateCostReport:
    """Measure every construction over the requested size grid."""
    rows: list[AuditRow] = []
    for kind in WIDTH_KINDS:
        for n in n_values:
            core, overhead = measure(kind, n)
            rows.append(AuditRow(kind, n, None, predict(kind, n), core, overhead))
    for kind in GRID_KINDS:
        for n in n_values:
            for m in m_values:
                core, overhead = measure(kind, n, m)
                rows.append(AuditRow(kind, n, m, predict(kind, n, m), core, overhead))
    return GateCostReport(rows)
