"""Command-line front end: rotate, shear, audit, and verify over PGM files.

Exit codes: 0 success (and, for verify/audit, full agreement); 1 a
verification or audit comparison failed; 2 unreadable or malformed image
input; 3 unsupported angle or parameter domain (including the netlist-mode
frame and factor limits); 4 output could not be written.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import patterns
from .audit import audit_report
from .neqr import ImageFormatError, NEQRImage, encode, decode
from .oracle import agreement_fraction, ideal_rotate, oracle_rotate
from .pgm import read_pgm, write_pgm
from .shear import (
    SEMANTIC,
    DomainError,
    PhaseBackend,
    RotationSpec,
    ShearSpec,
    apply_shear,
    checked_phase_specs,
    exact_turn,
    rotate,
)
from .shear_netlists import NetlistBackend

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_FORMAT = 2
EXIT_DOMAIN = 3
EXIT_WRITE = 4


@dataclass
class CommandConfig:
    subcommand: str
    input: str | None = None
    output: str | None = None
    angle: float | None = None
    exact_turn: int | None = None
    axis: str | None = None
    factor: float | None = None
    mode: str = "semantic"
    canvas: str = "clip"
    emit_intermediates: bool = False
    order: str = "tb"
    ascii_output: bool = False
    report: str | None = None
    size: int = 16
    n_min: int = 2
    n_max: int = 6
    m_min: int = 4
    m_max: int = 8


def _load_image(path: str) -> NEQRImage:
    try:
        raster = read_pgm(path)
    except OSError as exc:
        raise ImageFormatError(f"cannot read {path}: {exc}") from exc
    return encode(raster)


def _write_raster(path: str, raster: np.ndarray, ascii_output: bool) -> None:
    try:
        write_pgm(path, raster, binary=not ascii_output)
    except OSError as exc:
        raise _WriteFailure(f"cannot write {path}: {exc}") from exc


class _WriteFailure(Exception):
    pass


def _intermediate_path(output: str, phase: int) -> str:
    stem = output[: -len(".pgm")] if output.endswith(".pgm") else output
    return f"{stem}.phase{phase}.pgm"


def _backend(cfg: CommandConfig) -> PhaseBackend:
    return NetlistBackend(cfg.order) if cfg.mode == "netlist" else SEMANTIC


def _cmd_rotate(cfg: CommandConfig) -> int:
    if cfg.exact_turn is not None and cfg.emit_intermediates:
        raise DomainError("--emit-intermediates needs shear phases; an exact turn has none")
    image = _load_image(cfg.input)
    if cfg.exact_turn is not None:
        result_image = exact_turn(image, cfg.exact_turn)
        _write_raster(cfg.output, decode(result_image), cfg.ascii_output)
        return EXIT_OK
    result = rotate(image, RotationSpec(cfg.angle), cfg.canvas, _backend(cfg))
    _write_raster(cfg.output, decode(result.final), cfg.ascii_output)
    if cfg.emit_intermediates:
        _write_raster(_intermediate_path(cfg.output, 1), decode(result.phase1), cfg.ascii_output)
        _write_raster(_intermediate_path(cfg.output, 2), decode(result.phase2), cfg.ascii_output)
    return EXIT_OK


def _cmd_shear(cfg: CommandConfig) -> int:
    image = _load_image(cfg.input)
    if cfg.factor is not None:
        spec = ShearSpec.from_factor(cfg.axis, cfg.factor, image.n)
    else:
        spec = ShearSpec.for_angle(cfg.axis, cfg.angle, image.n)
    sheared = apply_shear(image, spec, cfg.canvas, _backend(cfg))
    _write_raster(cfg.output, decode(sheared), cfg.ascii_output)
    return EXIT_OK


def _cmd_verify(cfg: CommandConfig) -> int:
    netlist = NetlistBackend(cfg.order)
    if cfg.input is not None:
        image = _load_image(cfg.input)
    else:
        side = cfg.size
        if side < 2 or side & (side - 1):
            raise DomainError(f"--size must be a power of two of at least 2, got {side}")
        # refuse what the netlist backend cannot run before the checkerboard is built
        checked_phase_specs(RotationSpec(cfg.angle), side.bit_length() - 1, netlist)
        image = encode(patterns.checkerboard(side, tile=max(side // 8, 1)))
    spec = RotationSpec(cfg.angle)
    # netlist first: it refuses what it cannot run before the semantic engine works
    gates = decode(rotate(image, spec, backend=netlist).final)
    semantic = decode(rotate(image, spec).final)
    reference = oracle_rotate(image.raster(), cfg.angle)
    ok = bool(np.array_equal(gates, semantic) and np.array_equal(semantic, reference))
    print(f"netlist == semantic == oracle: {'PASS' if ok else 'FAIL'}")
    ideal = ideal_rotate(image.raster(), cfg.angle)
    print(f"ideal-rotation agreement (informational): {agreement_fraction(semantic, ideal):.4f}")
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_audit(cfg: CommandConfig) -> int:
    if not (1 <= cfg.n_min <= cfg.n_max and 4 <= cfg.m_min <= cfg.m_max):
        raise DomainError(
            "audit needs 1 <= n-min <= n-max and 4 <= m-min <= m-max, got "
            f"n {cfg.n_min}..{cfg.n_max}, m {cfg.m_min}..{cfg.m_max}"
        )
    report = audit_report(range(cfg.n_min, cfg.n_max + 1), range(cfg.m_min, cfg.m_max + 1))
    print(report.to_table())
    side = 64
    sheared = decode(rotate(encode(patterns.checkerboard(side)), RotationSpec(45)).final)
    agreement = agreement_fraction(sheared, ideal_rotate(patterns.checkerboard(side), 45))
    print(f"ideal-rotation agreement, 45 deg on {side}x{side} checkerboard "
          f"(informational): {agreement:.4f}")
    if cfg.report:
        try:
            with open(cfg.report, "w") as fh:
                fh.write(report.to_csv())
        except OSError as exc:
            raise _WriteFailure(f"cannot write {cfg.report}: {exc}") from exc
    return EXIT_OK if report.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qimrot",
        description="Rotate NEQR-encoded PGM images by three reversible shear circuits.",
        epilog=(
            "exit codes: 0 ok; 1 verification/audit mismatch; 2 bad image input; "
            "3 unsupported angle or parameter domain; 4 write failure"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, output: bool = True) -> None:
        p.add_argument("--order", choices=["tb", "bt"], default="tb",
                       help="which half a netlist-mode phase processes first "
                            "(demonstration only; results are identical)")
        if output:
            p.add_argument("--ascii", dest="ascii_output", action="store_true",
                           help="write P2 (ASCII) instead of P5")

    rot = sub.add_parser("rotate", help="rotate an image by an arbitrary angle")
    rot.add_argument("--input", required=True, help="input PGM (square, power-of-two side)")
    rot.add_argument("--output", required=True, help="output PGM")
    group = rot.add_mutually_exclusive_group(required=True)
    group.add_argument("--angle", type=float, help="degrees, |angle| < 90, positive = counter-clockwise")
    group.add_argument("--exact-turn", type=int, choices=[90, 180, 270],
                       help="exact quarter turns as coordinate permutations (no shears)")
    rot.add_argument("--canvas", choices=["clip", "expand"], default="clip",
                     help="clip to the original frame (default) or keep displaced "
                          "pixels on a 4x wider frame")
    rot.add_argument("--emit-intermediates", action="store_true",
                     help="also write the two intermediate shear frames "
                          "(suffixes .phase1.pgm, .phase2.pgm)")
    add_common(rot)

    shear = sub.add_parser("shear", help="apply a single axis shear")
    shear.add_argument("--input", required=True)
    shear.add_argument("--output", required=True)
    shear.add_argument("--axis", choices=["horizontal", "vertical"], required=True)
    factor_group = shear.add_mutually_exclusive_group(required=True)
    factor_group.add_argument("--factor", type=float,
                              help="shear factor; quantized to 4 fraction bits, sign = direction")
    factor_group.add_argument("--angle", type=float,
                              help="derive the factor from an angle: tan(angle/2) for "
                                   "horizontal, sin(angle) for vertical")
    shear.add_argument("--canvas", choices=["clip", "expand"], default="clip")
    add_common(shear)

    for p in (rot, shear):
        p.add_argument("--mode", choices=["semantic", "netlist"], default="semantic",
                       help="semantic term arithmetic (default) or full gate execution")

    verify = sub.add_parser(
        "verify", help="check netlist mode == semantic mode == classical oracle"
    )
    verify.add_argument("--angle", type=float, required=True)
    verify.add_argument("--input", help="PGM to verify on (default: built-in checkerboard)")
    verify.add_argument("--size", type=int, default=16,
                        help="side of the built-in test image (default 16)")
    add_common(verify, output=False)

    aud = sub.add_parser("audit", help="compare measured gate counts against closed forms")
    aud.add_argument("--report", help="also write the table as CSV to this path")
    aud.add_argument("--n-min", type=int, default=2)
    aud.add_argument("--n-max", type=int, default=6)
    aud.add_argument("--m-min", type=int, default=4)
    aud.add_argument("--m-max", type=int, default=8)

    return parser


def config_from_args(args: argparse.Namespace) -> CommandConfig:
    cfg = CommandConfig(subcommand=args.subcommand)
    for name in vars(cfg):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    return cfg


def run(cfg: CommandConfig) -> int:
    """Dispatch one parsed command; returns the process exit code."""
    handlers = {
        "rotate": _cmd_rotate,
        "shear": _cmd_shear,
        "verify": _cmd_verify,
        "audit": _cmd_audit,
    }
    try:
        return handlers[cfg.subcommand](cfg)
    except ImageFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _WriteFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRITE


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    sys.exit(run(config_from_args(args)))


if __name__ == "__main__":
    main()
