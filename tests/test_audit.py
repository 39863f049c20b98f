from fractions import Fraction

import pytest

from qimrot.audit import (
    GRID_KINDS,
    WIDTH_KINDS,
    AuditRow,
    GateCostReport,
    audit_report,
    measure,
    predict,
)


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
