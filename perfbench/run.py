"""qimrot benchmark: seeded CLI workloads, oracle-checked, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload semantic-512 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload small-mixed --seed 1 --replay 17

Each op runs ``qimrot.cli.run`` in-process on a parsed argv, PGM file in and
PGM file out, one op at a time (a closed loop with one client).  The netlist
cache is cleared before every op, so each op pays what a fresh ``qimrot``
process pays apart from the import.  Every output is checked against the
independent oracle outside the timed op.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs each op once untraced and once
traced and prints the per-layer metrics.  The last line of standard output
is one JSON object.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
from checks import FACTOR_REGISTER_MAX_SIXTEENTHS, Outcome, Verdict, check, output_files  # noqa: E402
from workloads import ENGINE, WORKLOADS, Op, Workload  # noqa: E402

SETUP_REPEATS = 30
#: failed_frac is reported as at least this, so the metric is never 0; the
#: printed report and the "failed" key carry the exact count.
FAILED_FRAC_FLOOR = 1e-6
TAIL_BEYOND = 10
OUT_DIR = "perfbench-out"


@dataclass
class Record:
    op: Op
    seconds: float
    verdict: Verdict
    traced: bool = False


class Program:
    """The imported qimrot package plus its netlist-cache reset hook."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "qimrot" or m.startswith("qimrot.")]:
            del sys.modules[name]
        self.qimrot = importlib.import_module("qimrot")
        self.cli = importlib.import_module("qimrot.cli")
        src = (ROOT / "src").resolve()
        if src not in Path(self.qimrot.__file__).resolve().parents:
            raise ImportError(f"qimrot was imported from {self.qimrot.__file__}, not {src}")
        netlists = sys.modules.get("qimrot.shear_netlists")
        build = getattr(netlists, "build_shear_netlist", None)
        self.clear_cache = getattr(build, "cache_clear", lambda: None)


def run_op(program: Program, argv: list[str], tracer=None, index: int = 0) -> tuple[Outcome, float]:
    """One CLI call, in-process; returns its outcome and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    cli = program.cli
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        with tracer.root(index) if tracer else nullcontext() as root:
            try:
                code = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                error = traceback.format_exc()
        seconds = time.perf_counter() - start
    if tracer:
        _, begin, end, _, _ = tracer.spans[root]
        seconds = end - begin
    return Outcome(code, out.getvalue(), err.getvalue(), error), seconds


def execute(program: Program, op: Op, workdir: Path, rasters: dict, tracer=None) -> Record:
    for name in output_files(op):
        (workdir / name).unlink(missing_ok=True)
    program.clear_cache()
    if tracer:
        tracer.captured = []
        tracer.install()
        try:
            outcome, seconds = run_op(program, op.argv(workdir), tracer, op.index)
        finally:
            tracer.remove()
    else:
        outcome, seconds = run_op(program, op.argv(workdir))
    verdict = check(op, outcome, workdir, rasters, program.qimrot)
    return Record(op, seconds, verdict, traced=tracer is not None)


# -- traced-run extras: phase replays and term geometry ----------------------

def _quantized(factor: float) -> tuple[int, int]:
    return int(abs(factor) * 16 + 0.5), (1 if factor >= 0 else -1)


def term_geometry(side: int, phases: list[tuple[str, int, int]], clip: bool) -> tuple[int, int]:
    """(term-phases executed, terms kept) for a shear sequence, from coordinates alone."""
    y, x = (a.ravel() for a in np.indices((side, side)))
    mid = side // 2
    executed = 0
    for axis, q16, sign in phases:
        executed += y.size
        drive = y if axis == "horizontal" else x
        low = drive < mid
        d = (np.where(low, mid - drive, drive - mid) * q16 + 8) // 16
        if axis == "horizontal":
            x = x + np.where(low, -sign, sign) * d
        else:
            y = y + np.where(low, sign, -sign) * d
        if clip:
            keep = (y >= 0) & (y < side) & (x >= 0) & (x < side)
            y, x = y[keep], x[keep]
    return executed, int(y.size)


def replay_captured(program: Program, tracer, totals: dict) -> str:
    """Replay each captured clip rotate phase by phase; account term geometry.

    Returns a failure reason, or "" when every replayed frame equals the frame
    rotate returned.
    """
    apply_shear = program.qimrot.apply_shear
    for name, bound, result in tracer.captured:
        args = bound.arguments
        image, spec, canvas = args["image"], args["spec"], args.get("canvas", "clip")
        side = image.side
        if name == "shear.rotate":
            theta = math.radians(spec.theta_degrees)
            h, v = _quantized(math.tan(theta / 2)), _quantized(math.sin(theta))
            phases = [("horizontal", *h), ("vertical", *v), ("horizontal", *h)]
        else:
            phases = [(spec.axis, spec.factor.sixteenths, spec.sign)]
        executed, kept = term_geometry(side, phases, clip=canvas == "clip")
        totals["term_phases"] += executed
        totals["kept_terms"] += kept
        if name != "shear.rotate" or canvas != "clip":
            continue
        frames = [image, result.phase1, result.phase2, result.final]
        for k, phase in enumerate(spec.phase_specs(image.n)):
            start = time.perf_counter()
            replayed = apply_shear(frames[k], phase)
            totals[f"phase{k + 1}_s"] += time.perf_counter() - start
            if replayed != frames[k + 1]:
                return f"replayed phase {k + 1} differs from the frame rotate returned"
    return ""


# -- statistics ---------------------------------------------------------------

def latency_tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it.  Below 2 * TAIL_BEYOND samples no
    percentile above the median qualifies, and the median is reported."""
    s = sorted(samples)
    n = len(s)
    if n >= 2 * TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    median = statistics.median(s)
    return median, 50.0, sum(v > median for v in s)


def op_counts(records: list[Record]) -> tuple[int, int]:
    """(ops attempted, ops failed), each distinct op counted once: an op run
    again in a later round of the workload, or traced and untraced, is one
    op, and it fails if any of its executions fails."""
    attempted = {r.op.index for r in records}
    failed = {r.op.index for r in records if not r.verdict.ok}
    return len(attempted), len(failed)


def end_to_end(records: list[Record], setup_s: float) -> tuple[dict, str]:
    attempted, failed = op_counts(records)
    good = [r.seconds for r in records if r.verdict.ok] or [r.seconds for r in records]
    wall = sum(r.seconds for r in records)
    tail, pct, beyond = latency_tail(good)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(r.verdict.ok for r in records) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(good) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "failed_frac": (max(failed / attempted, FAILED_FRAC_FLOOR), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    note = (f"latency_tail_ms is p{pct:.4g}: {beyond} of {len(good)} samples beyond it"
            + ("" if beyond >= TAIL_BEYOND else
               f" (fewer than {2 * TAIL_BEYOND} samples: tail unresolved, reports the median)"))
    return metrics, note


def per_layer(tracer, records: list[Record], untraced_s: float, extra: dict) -> tuple[dict, list[str]]:
    traced = [r for r in records if r.traced]
    ops = len(traced)
    traced_s = sum(r.seconds for r in traced)
    sums = tracing.layer_sums(tracer.spans, tracer.counts)
    per_op = {k: v / ops for k, v in sums.items()}
    term_phases = extra["term_phases"]
    run_phase = sums["shear_netlists.run_phase_s"]
    values = {
        **per_op,
        "shear.phase1_s": extra["phase1_s"] / ops,
        "shear.phase2_s": extra["phase2_s"] / ops,
        "shear.phase3_s": extra["phase3_s"] / ops,
        "shear.term_phases": term_phases / ops,
        "shear.kept_ratio": extra["kept_terms"] / term_phases if term_phases else 0.0,
        "shear_netlists.gate_evals_per_s": sums["shear_netlists.gate_evals"] / run_phase if run_phase else 0.0,
        "audit.rows": sum(r.verdict.audit_rows for r in traced) / ops,
        "audit.nonzero_deltas": sum(r.verdict.audit_nonzero_deltas for r in traced) / ops,
        "oracle.check_s": sum(r.verdict.oracle_s for r in records) / len(records),
        "trace.overhead_frac": traced_s / untraced_s - 1,
    }
    build_calls = sum(s[0] == "shear_netlists.build_shear_netlist" for s in tracer.spans)
    notes = [
        f"traced ops {ops}: traced wall {traced_s:.6f} s vs untraced {untraced_s:.6f} s",
        f"shear.kept_ratio = {extra['kept_terms']} kept / {term_phases} term-phases",
        f"shear_netlists.gate_evals_per_s = {sums['shear_netlists.gate_evals']} gate evals / "
        f"{run_phase:.6f} s",
        f"shear_netlists.builds = {sums['shear_netlists.builds']} cache misses of "
        f"{build_calls} build_shear_netlist calls",
    ]
    return values, notes


def layer_unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_frac", "frac"), ("_ratio", "ratio"),
                         ("bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def self_time_table(tracer, ops: int, traced_s: float) -> list[str]:
    modules = tracing.by_module(tracer.spans)
    total = sum(modules.values())
    lines = [f"{'module':<16}{'self s/op':>14}{'share':>8}"]
    for module, seconds in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"{module:<16}{seconds / ops:>14.6f}{seconds / total:>8.1%}")
    lines.append(f"{'sum':<16}{total / ops:>14.6f}   (traced op wall {traced_s / ops:.6f} s/op)")
    return lines


# -- environment --------------------------------------------------------------

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


# -- main ---------------------------------------------------------------------

def setup(workload: Workload, seed: int, workdir: Path) -> tuple[Program, dict, float]:
    """Import qimrot afresh and write the seeded inputs; returns the seconds taken.

    The previous set-up's modules are collected first, outside the timing, so
    each set-up starts as clean as a fresh process.
    """
    gc.collect()
    start = time.perf_counter()
    program = Program()
    rasters = workload.make_inputs(seed, workdir)
    return program, rasters, time.perf_counter() - start


def describe(op: Op) -> str:
    params = " ".join(f"{k}={v}" for k, v in op.params.items())
    return f"op {op.index} {op.kind} {params}"


def replay(workload: Workload, seed: int, index: int, workdir: Path) -> int:
    program, rasters, _ = setup(workload, seed, workdir)
    op = workload.op(seed, index)
    record = execute(program, op, workdir, rasters)
    print(describe(op))
    print("command: PYTHONPATH=src python3 -m qimrot.cli "
          + " ".join(str(Path(a).relative_to(ROOT)) if a.startswith(str(ROOT)) else a
                     for a in op.argv(workdir)))
    print(f"seconds {record.seconds:.6f}; {'ok' if record.verdict.ok else 'FAILED: ' + record.verdict.reason}")
    return 0 if record.verdict.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--replay", type=int, metavar="INDEX",
                        help="run only op INDEX of this workload and seed, and report it")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / OUT_DIR
    workdir = out_dir / (f"replay-{workload.name}" if args.replay is not None
                         else f"work-{workload.name}-{os.getpid()}")
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        if args.replay is not None:
            return replay(workload, args.seed, args.replay, workdir)
        return measure(workload, args, out_dir, workdir)
    except ImportError as exc:
        print(f"error: cannot import qimrot from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.replay is None:
            shutil.rmtree(workdir, ignore_errors=True)


def measure(workload: Workload, args, out_dir: Path, workdir: Path) -> int:
    program, rasters, seconds = setup(workload, args.seed, workdir)
    setup_times = [seconds]
    tracer = tracing.Tracer() if args.trace else None
    totals = {"term_phases": 0, "kept_terms": 0, "phase1_s": 0.0, "phase2_s": 0.0, "phase3_s": 0.0}
    records: list[Record] = []
    untraced_s = 0.0
    begin = time.perf_counter()
    deadline = begin + args.seconds
    index = 0
    while True:
        # set-up is repeated at evenly spaced points of the run, so its
        # median is taken over the same stretch of machine time as the ops
        while (len(setup_times) < SETUP_REPEATS and time.perf_counter()
               >= begin + len(setup_times) * args.seconds / SETUP_REPEATS):
            program, rasters, seconds = setup(workload, args.seed, workdir)
            setup_times.append(seconds)
        op = workload.op(args.seed, index)
        if tracer is None:
            records.append(execute(program, op, workdir, rasters))
        else:
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                record = execute(program, op, workdir, rasters, tracer if traced else None)
                if traced:
                    reason = replay_captured(program, tracer, totals)
                    if reason and record.verdict.ok:
                        record.verdict = Verdict(False, reason)
                else:
                    untraced_s += record.seconds
                records.append(record)
        index += 1
        if time.perf_counter() >= deadline and index >= workload.min_ops:
            break
    while len(setup_times) < SETUP_REPEATS:
        program, rasters, seconds = setup(workload, args.seed, workdir)
        setup_times.append(seconds)
    setup_s = statistics.median(setup_times)

    env = environment(args.seed)
    failures: dict[int, list[Record]] = {}
    for r in records:
        if not r.verdict.ok:
            failures.setdefault(r.op.index, []).append(r)
    executions = Counter(r.op.index for r in records)
    known = [rs for rs in failures.values() if rs[0].verdict.known_defect]
    kinds = Counter(r.op.kind for r in records)
    attempted, _ = op_counts(records)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"ops: attempted={attempted} failed={len(failures)} (known defect: {len(known)}); "
          f"executions={len(records)} by kind: "
          + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    for index, rs in sorted(failures.items()):
        r = rs[0]
        tag = (f" [known defect: netlist factor register holds {FACTOR_REGISTER_MAX_SIXTEENTHS} "
               "sixteenths at most, ROADMAP item 1]" if r.verdict.known_defect else "")
        print(f"FAILED {describe(r.op)}: {r.verdict.reason}{tag} "
              f"({len(rs)} of {executions[index]} executions)")
        print(f"  replay: python3 perfbench/run.py --workload {workload.name} "
              f"--seed {args.seed} --replay {index}")
    engine_wall: dict[str, float] = {}
    for r in records:
        engine = ENGINE.get(r.op.kind)
        if engine and not r.traced:
            engine_wall[engine] = engine_wall.get(engine, 0.0) + r.seconds
    if engine_wall:
        total = sum(engine_wall.values())
        print("timed wall by engine: "
              + " ".join(f"{k}={v / total:.1%}" for k, v in sorted(engine_wall.items())))

    if tracer is None:
        metrics, note = end_to_end(records, setup_s)
        print(note)
    else:
        metrics, notes = per_layer(tracer, records, untraced_s, totals)
        traced = [r for r in records if r.traced]
        print(f"self time by module ({workload.name}, per traced op):")
        for line in self_time_table(tracer, len(traced), sum(r.seconds for r in traced)):
            print("  " + line)
        for line in notes:
            print(line)
        if tracer.missing:
            print("not traced (absent from the program): " + ", ".join(tracer.missing))
        for line in tracer.count_errors[:5]:
            print("count error: " + line)
        metrics = {k: (v, layer_unit(k)) for k, v in metrics.items()}
        spans_file = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                          "spans": tracer.spans}))
        print(f"spans: {spans_file.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34}{value:>18.6f} {unit}")

    ops_file = out_dir / f"ops-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    ops_file.write_text(json.dumps({
        "environment": env, "workload": workload.name, "seconds": args.seconds,
        "setup_s": setup_s, "setup_times": setup_times, "op_counts": dict(kinds),
        "ops": [dict(index=r.op.index, kind=r.op.kind, command=r.op.command(), params=r.op.params,
                     traced=r.traced, seconds=r.seconds, ok=r.verdict.ok, reason=r.verdict.reason)
                for r in records],
    }))
    print(f"ops: {ops_file.relative_to(ROOT)}")
    unexpected = [rs for rs in failures.values() if not rs[0].verdict.known_defect]
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
