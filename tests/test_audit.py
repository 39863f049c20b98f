import hashlib
from fractions import Fraction

import pytest

from qimrot import arithmetic, audit, shear_netlists
from qimrot.arithmetic import build_ctrl_multi
from qimrot.audit import (
    GRID_KINDS,
    WIDTH_KINDS,
    AuditRow,
    GateCostReport,
    audit_report,
    measure,
    predict,
)
from qimrot.core import core_and_overhead_cost
from qimrot.shear_netlists import build_uniform_half_shear, build_uniform_horizontal_shear


class TestPredict:
    def test_adder_at_4(self):
        assert predict("adder", 4) == 100

    def test_ctrl_multi_example(self):
        assert predict("ctrl_multi", 2, 5) == Fraction(29, 2) * 2 * 11 == 319

    def test_top_half_shear_example(self):
        assert predict("top_half_shear", 2, 5) == 452

    def test_full_shear_is_twice_a_half(self):
        for n in (2, 3, 5):
            for m in (4, 6, 8):
                assert predict("full_horizontal_shear", n, m) == 2 * predict(
                    "top_half_shear", n, m
                )

    def test_predictions_are_exact_rationals(self):
        assert isinstance(predict("ctrl_multi", 3, 4), Fraction)

    def test_missing_m_rejected(self):
        with pytest.raises(ValueError):
            predict("ctrl_multi", 3)
        with pytest.raises(ValueError):
            measure("top_half_shear", 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            predict("qft", 3)


class TestMeasure:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_width_kinds_match_closed_forms(self, n):
        for kind in ("self_adder", "adder", "interpolation"):
            core, overhead = measure(kind, n)
            assert core == predict(kind, n)
            assert overhead == 0  # pure arithmetic, no plumbing

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("m", range(4, 9))
    def test_grid_kinds_match_closed_forms(self, n, m):
        for kind in ("ctrl_multi", "top_half_shear", "full_horizontal_shear"):
            core, overhead = measure(kind, n, m)
            assert core == predict(kind, n, m), (kind, n, m)
            assert overhead >= 0

    def test_shear_overhead_is_positive(self):
        # dispatch controls, masking, and uncomputation all land here
        _, overhead = measure("top_half_shear", 3, 5)
        assert overhead > 0


class TestReport:
    def test_default_grid_zero_deltas(self):
        report = audit_report()
        assert report.ok
        assert not report.mismatches()
        assert {r.kind for r in report.rows} == set(WIDTH_KINDS + GRID_KINDS)
        assert all(r.overhead >= 0 for r in report.rows)

    def test_csv_layout(self):
        report = audit_report(n_values=[2], m_values=[4])
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "kind,n,m,predicted,measured_core,overhead,delta"
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert first[0] == "self_adder" and first[2] == ""  # no m for width kinds

    def test_table_mentions_status(self):
        report = audit_report(n_values=[2], m_values=[4])
        assert "all core deltas zero" in report.to_table()

    def test_every_mismatch_fails_the_report(self):
        rows = [
            AuditRow("adder", 2, None, Fraction(44), 45, 0),
            AuditRow("top_half_shear", 2, 4, Fraction(100), 101, 0),
        ]
        report = GateCostReport(rows)
        assert not report.ok
        assert len(report.mismatches()) == 2
        assert "CORE DELTA NONZERO" in report.to_table()

    def test_shear_row_delta_fails_the_report(self):
        rows = [
            AuditRow("adder", 2, None, Fraction(44), 44, 0),
            AuditRow("full_horizontal_shear", 2, 4, Fraction(100), 101, 0),
        ]
        report = GateCostReport(rows)
        assert not report.ok

    def test_delta_is_rational_difference(self):
        row = AuditRow("ctrl_multi", 1, 1, Fraction(29), 29, 10)
        assert row.delta == 0


@pytest.mark.parametrize("n_values, m_values, rows, digest", [
    # the default grid
    (range(2, 7), range(4, 9), 90,
     "d9387fdbd6fd47cc6a3456fd9c23a5e5ebb06ab9668b23a6765041137b2a71ce"),
    # CI's grid
    (range(1, 10), range(4, 13), 270,
     "f787a061662d163507613c18191d91f8be4af920ba51e207eeec1f308cb2645b"),
    # the benchmark's small-mixed grid
    (range(2, 5), range(4, 9), 54,
     "bf8d7c1363e6f65c18b3fae950736b5a64b31d9a9b54152b4f79d9a4669d180d"),
])
def test_audit_csv_is_pinned(n_values, m_values, rows, digest):
    report = audit_report(n_values, m_values)
    assert len(report.rows) == rows
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == digest


class TestSpanPrices:
    """The audit prices its grid rows from spans of one full uniform shear;
    each span must price exactly as the standalone netlist it stands for."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_first_multiply_span_prices_as_the_standalone_multiplier(self, n):
        for m in range(4, 13):
            full = build_uniform_horizontal_shear(n, m)
            span = full.spans["multiply"][0]
            assert core_and_overhead_cost(full, *span) == core_and_overhead_cost(
                build_ctrl_multi(n, m)), (n, m)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_first_half_span_is_the_half_shear(self, n):
        for m in range(4, 13):
            full, half = build_uniform_horizontal_shear(n, m), build_uniform_half_shear(n, m)
            start, stop = full.spans["half"][0]
            assert (start, stop) == (0, len(half.gates))
            assert core_and_overhead_cost(full, start, stop) == core_and_overhead_cost(half)
            assert full.labels == half.labels and full.registers == half.registers
            assert all(whole[:stop] == part for whole, part in zip(full.columns, half.columns))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_half_spans_tile_the_shear_and_hold_their_multipliers(self, n):
        for m in range(4, 13):
            full = build_uniform_horizontal_shear(n, m)
            (a, h), (b, end) = full.spans["half"]
            assert (a, b, end) == (0, h, len(full.gates)), (n, m)
            for (start, stop), (lo, hi) in zip(full.spans["multiply"], full.spans["half"]):
                assert lo < start < stop < hi, (n, m)
            assert len(full.spans["multiply"]) == 2

    def test_report_builds_one_full_shear_per_grid_point(self, monkeypatch):
        calls = {"build_uniform_horizontal_shear": 0, "build_uniform_half_shear": 0,
                 "build_ctrl_multi": 0}

        def counted(name, build):
            def wrapper(*args):
                calls[name] += 1
                return build(*args)
            return wrapper

        for home in (arithmetic, shear_netlists):
            for name in calls:
                if hasattr(home, name):
                    wrapper = counted(name, getattr(home, name))
                    monkeypatch.setattr(home, name, wrapper)
                    # the audit module's own binding, if it has one, is the one it calls
                    monkeypatch.setattr(audit, name, wrapper, raising=False)
        assert audit_report(range(2, 5), range(4, 9)).ok
        assert calls == {"build_uniform_horizontal_shear": 15, "build_uniform_half_shear": 0,
                         "build_ctrl_multi": 0}
