"""Command-line front end: rotate, shear, audit, and verify over PGM files.

Each subcommand's parser names its handler, which reads the parsed
namespace: argparse alone holds the options and their defaults.

Exit codes: 0 success (and, for verify/audit, full agreement); 1 a
verification or audit comparison failed; 2 unreadable or malformed image
input, or an option combination argparse refuses; 3 unsupported angle or
parameter domain (including the netlist-mode frame and factor limits); 4
output could not be written (an output raster, the audit's --report CSV, or
a closed standard output).  Every output file goes through
``pgm.replace_atomically``, so a failed write leaves the old file whole.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from . import patterns
from .audit import audit_report
from .neqr import ImageFormatError, NEQRImage, encode
from .oracle import agreement_fraction, ideal_rotate, oracle_rotate
from .pgm import read_pgm, replace_atomically, write_pgm
from .shear import (
    FRACTION_BITS,
    SEMANTIC,
    DomainError,
    PhaseBackend,
    RotationSpec,
    ShearSpec,
    apply_shear,
    exact_turn,
    rotate,
)
from .shear_netlists import NetlistBackend

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_FORMAT = 2
EXIT_DOMAIN = 3
EXIT_WRITE = 4


class _WriteFailure(Exception):
    pass


def _load_image(path: str) -> NEQRImage:
    try:
        raster = read_pgm(path)
    except OSError as exc:
        raise ImageFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return encode(raster)


@contextmanager
def _output(path: str) -> Iterator[None]:
    """Turn an OSError while writing ``path`` into exit 4.  The reason is
    the error's bare text: the file it names may be the writer's temp file."""
    try:
        yield
    except OSError as exc:
        raise _WriteFailure(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_raster(path: str, raster: np.ndarray, args: argparse.Namespace) -> None:
    with _output(path):
        write_pgm(path, raster, binary=not args.ascii_output)


def _intermediate_path(output: str, phase: int) -> str:
    stem = output[: -len(".pgm")] if output.endswith(".pgm") else output
    return f"{stem}.phase{phase}.pgm"


def _backend(args: argparse.Namespace) -> PhaseBackend:
    return NetlistBackend(args.order) if args.mode == "netlist" else SEMANTIC


def _cmd_rotate(args: argparse.Namespace) -> int:
    if args.exact_turn is not None:
        for option, given in (("--emit-intermediates", args.emit_intermediates),
                              ("--canvas expand", args.canvas == "expand"),
                              ("--mode netlist", args.mode == "netlist")):
            if given:
                raise DomainError(f"{option} needs shear phases; an exact turn has none")
    image = _load_image(args.input)
    if args.exact_turn is not None:
        _write_raster(args.output, exact_turn(image, args.exact_turn).pixels, args)
        return EXIT_OK
    result = rotate(image, RotationSpec(args.angle), args.canvas, _backend(args))
    _write_raster(args.output, result.final.pixels, args)
    if args.emit_intermediates:
        _write_raster(_intermediate_path(args.output, 1), result.phase1.pixels, args)
        _write_raster(_intermediate_path(args.output, 2), result.phase2.pixels, args)
    return EXIT_OK


def _cmd_shear(args: argparse.Namespace) -> int:
    image = _load_image(args.input)
    if args.factor is not None:
        spec = ShearSpec.from_factor(args.axis, args.factor, image.n)
    else:
        spec = ShearSpec.for_angle(args.axis, args.angle, image.n)
    sheared = apply_shear(image, spec, args.canvas, _backend(args))
    _write_raster(args.output, sheared.pixels, args)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    netlist = NetlistBackend(args.order)
    image = None if args.input is None else _load_image(args.input)
    spec = RotationSpec(args.angle)
    if image is None:
        side = args.size
        if side < 2 or side & (side - 1):
            raise DomainError(f"--size must be a power of two of at least 2, got {side}")
        # refuse what the netlist backend cannot run before the checkerboard is built
        for phase in spec.phase_specs(side.bit_length() - 1):
            netlist.check(phase)
        image = encode(patterns.checkerboard(side, tile=max(side // 8, 1)))
    # netlist first: it refuses what it cannot run before the semantic engine works
    gates = rotate(image, spec, backend=netlist).final.pixels
    semantic = rotate(image, spec).final.pixels
    reference = oracle_rotate(image.pixels, args.angle)
    ok = bool(np.array_equal(gates, semantic) and np.array_equal(semantic, reference))
    print(f"netlist == semantic == oracle: {'PASS' if ok else 'FAIL'}")
    ideal = ideal_rotate(image.pixels, args.angle)
    print(f"ideal-rotation agreement (informational): {agreement_fraction(semantic, ideal):.4f}")
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_audit(args: argparse.Namespace) -> int:
    report = audit_report(range(args.n_min, args.n_max + 1), range(args.m_min, args.m_max + 1))
    print(report.to_table())
    if args.report:
        with _output(args.report):
            replace_atomically(args.report, report.to_csv().encode())
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

    order = dict(choices=["tb", "bt"], default="tb",
                 help="which half a netlist-mode phase processes first "
                      "(demonstration only; results are identical)")

    def add_image_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="input PGM (square, power-of-two side)")
        p.add_argument("--output", required=True, help="output PGM")
        p.add_argument("--canvas", choices=["clip", "expand"], default="clip",
                       help="clip to the original frame (default) or keep displaced "
                            "pixels on a 4x wider frame")
        p.add_argument("--mode", choices=["semantic", "netlist"], default="semantic",
                       help="semantic line shifts on the raster (default) or full gate execution")
        p.add_argument("--order", **order)
        p.add_argument("--ascii", dest="ascii_output", action="store_true",
                       help="write P2 (ASCII) instead of P5")

    rot = sub.add_parser("rotate", help="rotate an image by an arbitrary angle")
    add_image_options(rot)
    group = rot.add_mutually_exclusive_group(required=True)
    group.add_argument("--angle", type=float, help="degrees, |angle| < 90, positive = counter-clockwise")
    group.add_argument("--exact-turn", type=int, choices=[90, 180, 270],
                       help="exact quarter turns as coordinate permutations (no shears)")
    rot.add_argument("--emit-intermediates", action="store_true",
                     help="also write the two intermediate shear frames "
                          "(suffixes .phase1.pgm, .phase2.pgm)")
    rot.set_defaults(handler=_cmd_rotate)

    shear = sub.add_parser("shear", help="apply a single axis shear")
    add_image_options(shear)
    shear.add_argument("--axis", choices=["horizontal", "vertical"], required=True)
    factor_group = shear.add_mutually_exclusive_group(required=True)
    factor_group.add_argument("--factor", type=float,
                              help=f"shear factor; quantized to {FRACTION_BITS} fraction bits, "
                                   "sign = direction")
    factor_group.add_argument("--angle", type=float,
                              help="derive the factor from an angle: tan(angle/2) for "
                                   "horizontal, sin(angle) for vertical")
    shear.set_defaults(handler=_cmd_shear)

    verify = sub.add_parser(
        "verify", help="check netlist mode == semantic mode == classical oracle"
    )
    verify.add_argument("--angle", type=float, required=True)
    image_group = verify.add_mutually_exclusive_group()
    image_group.add_argument("--input", help="PGM to verify on (default: built-in checkerboard)")
    image_group.add_argument("--size", type=int, default=16,
                             help="side of the built-in test image (default 16)")
    verify.add_argument("--order", **order)
    verify.set_defaults(handler=_cmd_verify)

    aud = sub.add_parser("audit", help="compare measured gate counts against closed forms")
    aud.add_argument("--report", help="also write the table as CSV to this path")
    aud.add_argument("--n-min", type=int, default=2)
    aud.add_argument("--n-max", type=int, default=6)
    aud.add_argument("--m-min", type=int, default=FRACTION_BITS)
    aud.add_argument("--m-max", type=int, default=8)
    aud.set_defaults(handler=_cmd_audit)

    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed namespace, unchanged: the handlers read it directly.  Kept
    for ``run(config_from_args(build_parser().parse_args(argv)))``, the
    in-process call of ``perfbench/run.py`` and the tests."""
    return args


def run(args: argparse.Namespace) -> int:
    """Run one parsed command; returns the process exit code."""
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed standard output fails here, not at exit
        return code
    except ImageFormatError as exc:
        code, reason = EXIT_FORMAT, exc
    except DomainError as exc:
        code, reason = EXIT_DOMAIN, exc
    except _WriteFailure as exc:
        code, reason = EXIT_WRITE, exc
    except BrokenPipeError as exc:  # every file output raises _WriteFailure instead
        # the null device takes what is still buffered, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, reason = EXIT_WRITE, f"cannot write standard output: {exc}"
    print(f"error: {reason}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> None:
    sys.exit(run(config_from_args(build_parser().parse_args(argv))))


if __name__ == "__main__":
    main()
