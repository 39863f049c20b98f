"""Output checks: every raster an op writes against the independent oracle.

References come from ``qimrot.oracle`` (per-line numpy shifts that share no
code with the engines), ``np.rot90`` for exact turns and the expanded-canvas
coordinate map for ``--canvas expand``.  Files are read with the harness's
own PGM reader.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pgmio import read_pgm
from workloads import Op

#: The factor register holds 5 bits (sixteenths up to 31); netlist-mode
#: shears beyond it give wrong rasters with exit 0 (ROADMAP item 1).
FACTOR_REGISTER_MAX_SIXTEENTHS = 31


@dataclass
class Outcome:
    """What one CLI call returned."""

    code: int | None
    stdout: str
    stderr: str
    error: str = ""  # traceback of an exception escaping qimrot.cli.run


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    known_defect: bool = False
    oracle_s: float = 0.0
    audit_rows: int = 0
    audit_nonzero_deltas: int = 0


def output_files(op: Op) -> list[str]:
    """Files (relative to the work dir) the op must write."""
    if op.kind == "audit":
        return ["report.csv"]
    if op.kind == "verify":
        return []
    if op.kind == "rotate-intermediates":
        return ["out.pgm", "out.phase1.pgm", "out.phase2.pgm"]
    return ["out.pgm"]


def _sixteenths(factor: float) -> int:
    return int(abs(factor) * 16 + 0.5)


def shear_factor(params: dict) -> float:
    if "factor" in params:
        return params["factor"]
    theta = math.radians(params["angle"])
    return math.tan(theta / 2) if params["axis"] == "horizontal" else math.sin(theta)


def expand_reference(src: np.ndarray, angle: float, qimrot) -> np.ndarray:
    """Each input pixel placed at its unclipped three-shear coordinate on the 4x canvas."""
    side = src.shape[0]
    exponent, offset = qimrot.expanded_canvas_params(side.bit_length() - 1)
    big = 1 << exponent
    coords = qimrot.rotation_coordinate_map(side, angle) + offset
    y, x = coords[..., 0], coords[..., 1]
    inside = (y >= 0) & (y < big) & (x >= 0) & (x < big)
    out = np.zeros((big, big), dtype=np.uint8)
    out[y[inside], x[inside]] = src[inside]
    return out


def references(op: Op, rasters: dict[str, np.ndarray], qimrot) -> dict[str, np.ndarray]:
    """Expected raster per output file."""
    p = op.params
    src = rasters[p["input"]]
    if op.kind == "exact-turn":
        return {"out.pgm": np.rot90(src, k=p["turn"] // 90)}
    if op.kind.startswith("shear"):
        return {"out.pgm": qimrot.oracle_shear(src, p["axis"], shear_factor(p))}
    if p["canvas"] == "expand":
        return {"out.pgm": expand_reference(src, p["angle"], qimrot)}
    expected = {"out.pgm": qimrot.oracle_rotate(src, p["angle"])}
    if op.kind == "rotate-intermediates":
        theta = math.radians(p["angle"])
        phase1 = qimrot.oracle_shear(src, "horizontal", math.tan(theta / 2))
        expected["out.phase1.pgm"] = phase1
        expected["out.phase2.pgm"] = qimrot.oracle_shear(phase1, "vertical", math.sin(theta))
    return expected


def _check_audit(workdir: Path, rows_expected: int) -> Verdict:
    lines = (workdir / "report.csv").read_text().splitlines()
    header = lines[0].split(",")
    if "delta" not in header:
        return Verdict(False, f"report.csv has no delta column: {lines[0]!r}")
    col = header.index("delta")
    rows = [line.split(",") for line in lines[1:] if line]
    nonzero = [r for r in rows if r[col] != "0"]
    v = Verdict(True, audit_rows=len(rows), audit_nonzero_deltas=len(nonzero))
    if len(rows) != rows_expected:
        v.ok, v.reason = False, f"report.csv has {len(rows)} rows, expected {rows_expected}"
    elif nonzero:
        v.ok, v.reason = False, f"{len(nonzero)} rows with nonzero delta, first {','.join(nonzero[0])}"
    return v


def check(op: Op, outcome: Outcome, workdir: Path, rasters: dict[str, np.ndarray], qimrot) -> Verdict:
    """Verdict on one op; any exception, nonzero exit or wrong output fails it.

    A failed netlist factor shear beyond the factor register is tagged as the
    known defect whatever the failure: a wrong raster today, a clean refusal
    once the register bound is enforced.
    """
    verdict = _verdict(op, outcome, workdir, rasters, qimrot)
    verdict.known_defect = (
        not verdict.ok
        and op.kind == "shear-netlist-factor"
        and _sixteenths(op.params["factor"]) > FACTOR_REGISTER_MAX_SIXTEENTHS
    )
    return verdict


def _verdict(op: Op, outcome: Outcome, workdir: Path, rasters: dict[str, np.ndarray], qimrot) -> Verdict:
    if outcome.error:
        return Verdict(False, "exception: " + outcome.error.strip().splitlines()[-1])
    if outcome.code != 0:
        last = outcome.stderr.strip().splitlines()[-1:] or [""]
        return Verdict(False, f"exit {outcome.code}: {last[0]}")
    for name in output_files(op):
        if not (workdir / name).exists():
            return Verdict(False, f"{name} was not written")
    if op.kind == "audit":
        t0 = time.perf_counter()
        verdict = _check_audit(workdir, op.params["rows"])
        verdict.oracle_s = time.perf_counter() - t0
        return verdict
    if op.kind == "verify":
        ok = "netlist == semantic == oracle: PASS" in outcome.stdout
        return Verdict(ok, "" if ok else f"verify said: {outcome.stdout.strip()!r}")
    written = {}
    for name in output_files(op):
        try:
            written[name] = read_pgm(workdir / name)
        except ValueError as exc:
            return Verdict(False, f"{name}: unreadable PGM ({exc})")
    t0 = time.perf_counter()
    expected = references(op, rasters, qimrot)
    verdict = Verdict(True)
    for name, want in expected.items():
        magic, got = written[name]
        if magic != op.params["out_fmt"]:
            verdict = Verdict(False, f"{name}: wrote {magic}, asked for {op.params['out_fmt']}")
        elif got.shape != want.shape:
            verdict = Verdict(False, f"{name}: shape {got.shape}, expected {want.shape}")
        elif not np.array_equal(got, want):
            wrong = int(np.count_nonzero(got != want))
            verdict = Verdict(False, f"{name}: {wrong} of {want.size} pixels differ from the oracle")
        if not verdict.ok:
            break
    verdict.oracle_s = time.perf_counter() - t0
    return verdict
