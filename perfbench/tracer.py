"""In-memory span tracing at qimrot's module boundaries, installed from outside.

The tracer wraps public functions of each module (every module-level binding
of the same function object, so ``from .x import f`` call sites are covered)
while one traced op runs, and removes the wrappers afterwards.  A span is
``[name, start, end, parent, op]``; ``name`` is ``module.function``.  Counts
are taken at the same boundaries.  Targets missing from the program are
skipped and listed, so the harness keeps working as internals change.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TARGETS = {
    "pgm": ("read_pgm", "write_pgm"),
    "neqr": ("encode", "decode", "NEQRImage.from_terms"),
    "patterns": ("checkerboard",),
    "shear": ("rotate", "apply_shear", "exact_turn"),
    "shear_netlists": (
        "netlist_rotate", "netlist_apply_shear", "run_shear_phase", "build_shear_netlist",
        "build_uniform_half_shear", "build_uniform_horizontal_shear",
    ),
    "core": ("NetlistBuilder.build", "cost", "core_and_overhead_cost"),
    "arithmetic": (
        "emit_adder", "emit_modular_adder", "emit_self_adder", "emit_ctrl_multi",
        "emit_interpolation", "build_adder", "build_subtractor", "build_self_adder",
        "build_ctrl_multi", "build_interpolation",
    ),
    "audit": ("audit_report", "GateCostReport.to_csv", "GateCostReport.to_table"),
    "oracle": ("oracle_rotate", "oracle_shear", "ideal_rotate", "agreement_fraction"),
}
PACKAGE = "qimrot"
ROOT = "cli.run"  # the harness's span around parse + qimrot.cli.run
CAPTURED = ("shear.rotate", "shear.apply_shear")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict] = defaultdict(dict)  # span index -> counts
        self.captured: list[tuple[str, inspect.BoundArguments, object]] = []
        self.missing: list[str] = []
        self.count_errors: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._build_netlist = None

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, op: int):
        """The op's root span; yields its index."""
        self.op = op
        index = self._open(ROOT)
        try:
            yield index
        finally:
            self._close(index)
            self.op = None

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            try:
                self._count(name, index, signature, args, kwargs, result)
            except Exception as exc:  # a count must never change the op's outcome
                self.count_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def _count(self, name, index, signature, args, kwargs, result) -> None:
        if name == "shear_netlists.run_shear_phase":
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            terms = len(a["terms"])
            gates = 0
            if self._build_netlist is not None:
                spec = a["spec"]
                netlist = self._build_netlist(a["n"], spec.axis, spec.sign, a.get("order", "tb"))
                gates = len(netlist.gates)
            self.counts[index].update(terms=terms, gate_evals=terms * gates)
        elif name == "core.NetlistBuilder.build":
            self.counts[index]["gates"] = len(result.gates)
        elif name in ("pgm.read_pgm", "pgm.write_pgm"):
            path = signature.bind(*args, **kwargs).arguments["path"]
            self.counts[index]["bytes"] = os.path.getsize(path)
        elif name in CAPTURED:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.captured.append((name, bound, result))

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        self.missing = []
        netlists = sys.modules.get(f"{PACKAGE}.shear_netlists")
        self._build_netlist = getattr(netlists, "build_shear_netlist", None)
        for module_name, attrs in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            for attr in attrs:
                name = f"{module_name}.{attr}"
                owner_name, _, fname = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(fname) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                elif owner_name:
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._undo.append((owner, fname, raw))
                    setattr(owner, fname, new)
                else:
                    new = self._wrap(name, raw)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is raw:
                                self._undo.append((m, key, raw))
                                setattr(m, key, new)

    def remove(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo = []


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def by_module(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[module_of(span[0])] += own
    return dict(totals)


def layer_sums(spans: list[list], counts: dict[int, dict]) -> dict[str, float]:
    """Per-layer totals over all spans (seconds and counts, not yet per op)."""
    own = self_times(spans)
    inclusive = defaultdict(float)   # outermost spans of a name: nested calls not doubled
    selfs = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        selfs[name] += own[i]
        calls[name] += 1
        if parent is None or spans[parent][0] != name:
            inclusive[name] += end - start
    # arithmetic: outermost arithmetic spans, so emit_* inside build_* count once
    emit = sum(end - start for name, start, end, parent, _ in spans
               if module_of(name) == "arithmetic"
               and (parent is None or module_of(spans[parent][0]) != "arithmetic"))
    # a build_shear_netlist call that reached NetlistBuilder.build was a cache miss
    built = set()
    for name, _, _, parent, _ in spans:
        if name == "core.NetlistBuilder.build":
            p = parent
            while p is not None and spans[p][0] != "shear_netlists.build_shear_netlist":
                p = spans[p][3]
            if p is not None:
                built.add(p)
    total = defaultdict(int)
    for index, c in counts.items():
        for key, value in c.items():
            total[spans[index][0] + ":" + key] += value
    return {
        "cli.self_s": selfs[ROOT],
        "shear.rotate_self_s": selfs["shear.rotate"],
        "neqr.from_terms_s": inclusive["neqr.NEQRImage.from_terms"],
        "neqr.from_terms_calls": calls["neqr.NEQRImage.from_terms"],
        "neqr.encode_s": inclusive["neqr.encode"],
        "neqr.decode_s": inclusive["neqr.decode"],
        "shear_netlists.run_phase_s": selfs["shear_netlists.run_shear_phase"],
        "shear_netlists.gate_evals": total["shear_netlists.run_shear_phase:gate_evals"],
        "shear_netlists.rotate_self_s": selfs["shear_netlists.netlist_rotate"],
        "shear_netlists.build_s": inclusive["shear_netlists.build_shear_netlist"],
        "shear_netlists.builds": len(built),
        "core.netlist_build_s": inclusive["core.NetlistBuilder.build"],
        "core.gates_built": total["core.NetlistBuilder.build:gates"],
        "core.cost_s": inclusive["core.cost"] + inclusive["core.core_and_overhead_cost"],
        "arithmetic.emit_s": emit,
        "audit.report_s": inclusive["audit.audit_report"],
        "pgm.read_s": inclusive["pgm.read_pgm"],
        "pgm.write_s": inclusive["pgm.write_pgm"],
        "pgm.bytes": total["pgm.read_pgm:bytes"] + total["pgm.write_pgm:bytes"],
    }
