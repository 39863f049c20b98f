"""Self-test of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q

Runs every op kind once through the real CLI and checker, and feeds
deliberately corrupted outputs through the checker to prove they count as
failed ops.
"""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
from checks import FACTOR_REGISTER_MAX_SIXTEENTHS, Outcome, check  # noqa: E402
from pgmio import read_pgm, write_pgm  # noqa: E402
from workloads import BEYOND_REGISTER_PER_ROUND, SMALL_MIXED_ROUND, WORKLOADS  # noqa: E402

OP_KINDS = [
    ("semantic-512", "rotate-intermediates"),
    ("gate-path-64", "rotate-netlist"),
    ("audit-build", "audit"),
] + [("small-mixed", kind) for kind, _, _ in SMALL_MIXED_ROUND]


def _fits_register(op) -> bool:
    return int(abs(op.params.get("factor", 0)) * 16 + 0.5) <= FACTOR_REGISTER_MAX_SIXTEENTHS


def first_op(workload: str, kind: str, seed: int = 0, want=lambda op: True):
    w = WORKLOADS[workload]
    for index in range(10_000):
        op = w.op(seed, index)
        if op.kind == kind and want(op):
            return op
    raise LookupError(f"no {kind} op in {workload}")


@pytest.fixture(scope="module")
def program():
    return bench.Program()


@pytest.fixture
def workdir():
    path = bench.ROOT / bench.OUT_DIR / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload,kind", OP_KINDS)
def test_each_op_kind_passes_its_check(program, workdir, workload, kind):
    rasters = WORKLOADS[workload].make_inputs(0, workdir)
    op = first_op(workload, kind, want=_fits_register)
    record = bench.execute(program, op, workdir, rasters)
    assert record.verdict.ok, record.verdict.reason
    assert record.seconds > 0


def test_ops_are_a_function_of_seed_and_index():
    for w in WORKLOADS.values():
        for index in (0, 7, 133):
            assert w.op(5, index) == w.op(5, index)
    mixed = WORKLOADS["small-mixed"]
    assert [mixed.op(1, i).args for i in range(20)] != [mixed.op(2, i).args for i in range(20)]


def test_small_mixed_round_repeats_and_holds_a_fixed_share_beyond_the_register():
    mixed = WORKLOADS["small-mixed"]
    for seed in range(5):
        assert mixed.op(seed, 3) == mixed.op(seed, 3 + mixed.cycle)
        ops = [mixed.op(seed, i) for i in range(mixed.cycle)]
        kinds = [op.kind for op in ops]
        assert {kind: kinds.count(kind) for kind, _, _ in SMALL_MIXED_ROUND} == {
            kind: count for kind, _, count in SMALL_MIXED_ROUND}
        factors = [op.params["factor"] for op in ops if op.kind == "shear-netlist-factor"]
        assert all(-3 <= f <= 3 for f in factors)
        beyond = [f for f in factors if int(abs(f) * 16 + 0.5) > FACTOR_REGISTER_MAX_SIXTEENTHS]
        assert len(beyond) == BEYOND_REGISTER_PER_ROUND


def test_corrupted_raster_counts_as_failed_op(program, workdir):
    rasters = WORKLOADS["small-mixed"].make_inputs(0, workdir)
    op = first_op("small-mixed", "rotate-clip")
    good = bench.execute(program, op, workdir, rasters)
    assert good.verdict.ok
    magic, raster = read_pgm(workdir / "out.pgm")
    raster = raster.copy()
    raster[3, 5] ^= 0x40
    write_pgm(workdir / "out.pgm", raster, magic)
    bad = check(op, Outcome(0, "", ""), workdir, rasters, program.qimrot)
    assert not bad.ok and "1 of" in bad.reason and not bad.known_defect
    # an op fails if any of its executions fails, and counts once
    other = bench.execute(program, first_op("small-mixed", "exact-turn"), workdir, rasters)
    records = [good, bench.Record(op, good.seconds, bad), other]
    assert bench.op_counts(records) == (2, 1)
    metrics, _ = bench.end_to_end(records, setup_s=0.1)
    assert metrics["failed_frac"][0] == 0.5


def test_corrupted_intermediate_frame_and_audit_row_fail(program, workdir):
    rasters = WORKLOADS["semantic-512"].make_inputs(0, workdir)
    op = first_op("semantic-512", "rotate-intermediates")
    assert bench.execute(program, op, workdir, rasters).verdict.ok
    magic, raster = read_pgm(workdir / "out.phase2.pgm")
    write_pgm(workdir / "out.phase2.pgm", raster[::-1], magic)
    assert "out.phase2.pgm" in check(op, Outcome(0, "", ""), workdir, rasters, program.qimrot).reason

    op = first_op("audit-build", "audit")
    assert bench.execute(program, op, workdir, {}).verdict.ok
    lines = (workdir / "report.csv").read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1"  # a shear row, outside GateCostReport.ok
    (workdir / "report.csv").write_text("\n".join(lines) + "\n")
    verdict = check(op, Outcome(0, "", ""), workdir, {}, program.qimrot)
    assert not verdict.ok and verdict.audit_nonzero_deltas == 1


def test_exit_codes_and_exceptions_count_as_failures(program, workdir):
    op = first_op("small-mixed", "shear-factor")
    assert not check(op, Outcome(3, "", "error: domain\n"), workdir, {}, program.qimrot).ok
    assert not check(op, Outcome(None, "", "", "Traceback\nValueError: x\n"), workdir, {},
                     program.qimrot).ok


def test_netlist_factor_beyond_register_is_reported_as_known_defect(program, workdir):
    rasters = WORKLOADS["small-mixed"].make_inputs(0, workdir)
    op = first_op("small-mixed", "shear-netlist-factor", want=lambda o: not _fits_register(o))
    verdict = bench.execute(program, op, workdir, rasters).verdict
    assert not verdict.ok and verdict.known_defect
    # a clean refusal of the same op (the register bound enforced) keeps the tag
    refusal = check(op, Outcome(3, "", "error: factor out of range\n"), workdir, rasters,
                    program.qimrot)
    assert not refusal.ok and refusal.known_defect


def test_traced_op_self_times_sum_to_its_wall_time(program, workdir):
    rasters = WORKLOADS["small-mixed"].make_inputs(0, workdir)
    tracer = tracing.Tracer()
    for kind in ("rotate-clip", "rotate-netlist", "verify"):
        record = bench.execute(program, first_op("small-mixed", kind), workdir, rasters, tracer)
        assert record.verdict.ok
    roots = [s for s in tracer.spans if s[0] == tracing.ROOT]
    wall = sum(s[2] - s[1] for s in roots)
    assert sum(tracing.by_module(tracer.spans).values()) == pytest.approx(wall, rel=1e-9)
    sums = tracing.layer_sums(tracer.spans, tracer.counts)
    assert sums["shear_netlists.gate_evals"] > 0 and sums["shear.rotate_self_s"] > 0
    assert not tracer.missing and not tracer.count_errors
    # wrappers are removed after each traced op
    assert "traced" not in program.qimrot.shear.rotate.__code__.co_name
