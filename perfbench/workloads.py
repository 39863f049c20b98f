"""Seeded workloads: input pools and index-addressable op sequences.

Every op is a function of (workload, seed, index) alone, so any single op of
any run can be regenerated and replayed.  Angles and factors come from
seeded Kronecker (golden-ratio) sequences: each draw is uniform on its range,
and any prefix of the sequence covers the range evenly, so a run's mix of
angles or factors -- and hence its timing -- moves little from seed to seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pgmio import write_pgm

_STEP = (5 ** 0.5 - 1) / 2
_ANGLE_RANGE = (-90.0, 90.0)
_FACTOR_RANGE = (-3.0, 3.0)

SEMANTIC = "semantic"
NETLIST = "netlist"


@dataclass(frozen=True)
class InputImage:
    name: str
    side: int
    fmt: str  # "P2" or "P5"


@dataclass
class Op:
    """One CLI call: its argv (paths relative to the work dir) and parameters."""

    index: int
    kind: str
    args: list[str]
    params: dict = field(default_factory=dict)

    def argv(self, workdir: Path) -> list[str]:
        return [str(workdir / a[1:]) if a.startswith("@") else a for a in self.args]

    def command(self) -> str:
        return "qimrot " + " ".join(self.args)


def _kronecker(key: str, j: int, lo: float, hi: float) -> float:
    """j-th draw of a seeded golden-ratio sequence on the open interval (lo, hi)."""
    u = (random.Random(key).random() + j * _STEP) % 1.0
    u = min(max(u, 1e-9), 1 - 1e-9)
    return lo + (hi - lo) * u


def _raster(seed: int, workload: str, name: str, side: int) -> np.ndarray:
    rng = np.random.default_rng(random.Random(f"{workload}:{seed}:{name}").getrandbits(64))
    # values 1..255: a dropped or misplaced term differs from the 0 background
    return rng.integers(1, 256, size=(side, side), dtype=np.int64).astype(np.uint8)


class Workload:
    name = ""
    pool: tuple[InputImage, ...] = ()
    #: a run stops at its deadline, but not before it has executed this many
    #: ops, so a workload built from a repeating round attempts all of it
    min_ops = 1

    def make_inputs(self, seed: int, workdir: Path) -> dict[str, np.ndarray]:
        """Write the seeded input pool into ``workdir``; return name -> raster."""
        rasters = {}
        for image in self.pool:
            raster = _raster(seed, self.name, image.name, image.side)
            write_pgm(workdir / f"{image.name}.pgm", raster, image.fmt)
            rasters[image.name] = raster
        return rasters

    def op(self, seed: int, index: int) -> Op:
        raise NotImplementedError


def _rotate_args(image: str, out: str, angle: float) -> list[str]:
    return ["rotate", "--input", f"@{image}.pgm", "--output", f"@{out}", f"--angle={angle!r}"]


class Semantic512(Workload):
    name = "semantic-512"
    pool = (InputImage("s512a", 512, "P5"), InputImage("s512b", 512, "P5"))

    def op(self, seed: int, index: int) -> Op:
        angle = _kronecker(f"{self.name}:{seed}:angle", index, *_ANGLE_RANGE)
        image = self.pool[index % len(self.pool)]
        args = _rotate_args(image.name, "out.pgm", angle) + [
            "--canvas", "clip", "--emit-intermediates",
        ]
        return Op(index, "rotate-intermediates", args,
                  dict(input=image.name, angle=angle, canvas="clip", out_fmt="P5"))


class GatePath64(Workload):
    name = "gate-path-64"
    pool = (InputImage("s64a", 64, "P5"), InputImage("s64b", 64, "P5"))

    def op(self, seed: int, index: int) -> Op:
        angle = _kronecker(f"{self.name}:{seed}:angle", index, *_ANGLE_RANGE)
        order = random.Random(f"{self.name}:{seed}:{index}").choice(["tb", "bt"])
        image = self.pool[index % len(self.pool)]
        args = _rotate_args(image.name, "out.pgm", angle) + ["--mode", "netlist", "--order", order]
        return Op(index, "rotate-netlist", args,
                  dict(input=image.name, angle=angle, canvas="clip", order=order, out_fmt="P5"))


class AuditBuild(Workload):
    name = "audit-build"

    def op(self, seed: int, index: int) -> Op:
        args = ["audit", "--n-min", "2", "--n-max", "9", "--report", "@report.csv"]
        return Op(index, "audit", args, dict(n_min=2, n_max=9, rows=144))


#: small-mixed: (kind, engine, slots per round).  Weighted so that neither
#: engine takes more than about two thirds of the timed wall time.
SMALL_MIXED_ROUND = (
    ("rotate-clip", SEMANTIC, 156),
    ("rotate-expand", SEMANTIC, 96),
    ("exact-turn", SEMANTIC, 84),
    ("shear-factor", SEMANTIC, 84),
    ("shear-angle", SEMANTIC, 84),
    ("rotate-netlist", NETLIST, 5),
    ("shear-netlist-factor", NETLIST, 32),
    ("shear-netlist-angle", NETLIST, 5),
    ("verify", NETLIST, 5),
    ("audit", NETLIST, 3),
)
ENGINE = {kind: engine for kind, engine, _ in SMALL_MIXED_ROUND}
#: |factor| at which a netlist factor shear leaves the 5-bit factor register:
#: it quantizes to 32 sixteenths or more from here on.
REGISTER_EDGE = 31.5 / 16
#: Of the round's 32 netlist factor shears this many are drawn from beyond
#: REGISTER_EDGE: 11/32 is that part's exact share of [-3, 3]
#: ((3 - 31.5/16) * 2 / 6), so the round is a proportional stratified sample
#: of the uniform draw, and every round holds the same number of them.
BEYOND_REGISTER_PER_ROUND = 11
SMALL_AUDIT = dict(n_min=2, n_max=4, rows=54)


def netlist_factor(key: str, j: int) -> float:
    """j-th netlist factor draw of a round: stratified uniform on [-3, 3]."""
    hi = _FACTOR_RANGE[1]
    if j < BEYOND_REGISTER_PER_ROUND:
        u = _kronecker(key + ":beyond", j, REGISTER_EDGE - hi, hi - REGISTER_EDGE)
        return u + REGISTER_EDGE if u >= 0 else u - REGISTER_EDGE
    return _kronecker(key + ":within", j - BEYOND_REGISTER_PER_ROUND, -REGISTER_EDGE, REGISTER_EDGE)


class SmallMixed(Workload):
    """A seeded round of ops, run again and again: op ``i`` is op ``i % cycle``.

    Every run executes at least one whole round, so the ops a run attempts --
    and the known-defect ops among them -- are the same set however many
    rounds fit in the time.  The round's order is a seeded shuffle, so the
    part round a run ends with holds the kinds in about their round shares.
    """

    name = "small-mixed"
    pool = tuple(
        InputImage(f"s{side}{fmt.lower()}{v}", side, fmt)
        for side in (16, 32) for fmt in ("P2", "P5") for v in "ab"
    )

    def __init__(self) -> None:
        self._slots = [kind for kind, _, count in SMALL_MIXED_ROUND for _ in range(count)]
        self._first = {kind: self._slots.index(kind) for kind, _, _ in SMALL_MIXED_ROUND}
        self.cycle = self.min_ops = len(self._slots)

    def op(self, seed: int, index: int) -> Op:
        index %= self.cycle
        slots = list(range(self.cycle))
        random.Random(f"{self.name}:{seed}:order").shuffle(slots)
        slot = slots[index]
        kind = self._slots[slot]
        j = slot - self._first[kind]  # j-th occurrence of this kind in the round
        rng = random.Random(f"{self.name}:{seed}:{index}")
        netlist = ENGINE[kind] == NETLIST
        side = 16 if netlist else rng.choice([16, 32])
        image = rng.choice([p for p in self.pool if p.side == side])
        out_fmt = rng.choice(["P2", "P5"])
        order = rng.choice(["tb", "bt"])
        axis = rng.choice(["horizontal", "vertical"])
        angle = _kronecker(f"{self.name}:{seed}:{kind}:angle", j, *_ANGLE_RANGE)
        if kind == "shear-netlist-factor":
            factor = netlist_factor(f"{self.name}:{seed}:{kind}:factor", j)
        else:
            factor = _kronecker(f"{self.name}:{seed}:{kind}:factor", j, *_FACTOR_RANGE)
        turn = rng.choice([90, 180, 270])
        params = dict(input=image.name, out_fmt=out_fmt)
        ascii_flag = ["--ascii"] if out_fmt == "P2" else []
        mode = ["--mode", "netlist", "--order", order] if netlist else []
        if kind == "audit":
            a = SMALL_AUDIT
            args = ["audit", "--n-min", str(a["n_min"]), "--n-max", str(a["n_max"]),
                    "--report", "@report.csv"]
            return Op(index, kind, args, dict(a))
        if kind == "verify":
            args = ["verify", f"--angle={angle!r}", "--size", "16", "--order", order]
            return Op(index, kind, args, dict(angle=angle, size=16, order=order))
        if kind == "exact-turn":
            args = ["rotate", "--input", f"@{image.name}.pgm", "--output", "@out.pgm",
                    "--exact-turn", str(turn)]
            params.update(turn=turn)
        elif kind.startswith("rotate"):
            canvas = "expand" if kind == "rotate-expand" else "clip"
            args = _rotate_args(image.name, "out.pgm", angle) + ["--canvas", canvas]
            params.update(angle=angle, canvas=canvas)
        else:
            args = ["shear", "--input", f"@{image.name}.pgm", "--output", "@out.pgm",
                    "--axis", axis]
            if kind.endswith("factor"):
                args += [f"--factor={factor!r}"]
                params.update(factor=factor)
            else:
                args += [f"--angle={angle!r}"]
                params.update(angle=angle)
            params.update(axis=axis)
        if netlist:
            params.update(order=order)
        return Op(index, kind, args + mode + ascii_flag, params)


WORKLOADS = {w.name: w for w in (Semantic512(), GatePath64(), AuditBuild(), SmallMixed())}
