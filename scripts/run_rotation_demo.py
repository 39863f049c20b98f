#!/usr/bin/env python3
"""Paper-scale rotation demo: three angles, three shear phases each.

Writes, for every angle, the input, both intermediate shear frames, and the
rotated result as PGM files, then cross-checks each result against the
classical oracle and reports the agreement with an ideal real-arithmetic
rotation.  Exits 1 if any angle's result differs from the oracle.
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qimrot.neqr import decode, encode
from qimrot.oracle import agreement_fraction, ideal_rotate, oracle_rotate
from qimrot.patterns import checkerboard, gradient, random_raster
from qimrot.pgm import write_pgm
from qimrot.shear import RotationSpec, rotate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="demo_out")
    parser.add_argument("--side", type=int, default=512)
    parser.add_argument("--pattern", choices=["checkerboard", "gradient", "random"],
                        default="checkerboard")
    parser.add_argument("--angles", type=float, nargs="+", default=[30, 45, 60])
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    make = {"checkerboard": checkerboard, "gradient": gradient,
            "random": random_raster}[args.pattern]
    raster = make(args.side)
    write_pgm(os.path.join(args.outdir, "input.pgm"), raster)
    image = encode(raster)

    all_match = True
    for theta in args.angles:
        result = rotate(image, RotationSpec(theta))
        tag = f"{theta:+.0f}".replace("+", "p").replace("-", "m")
        for name, frame in (("phase1", result.phase1), ("phase2", result.phase2),
                            ("rotated", result.final)):
            write_pgm(os.path.join(args.outdir, f"{tag}_{name}.pgm"), decode(frame))
        matches = np.array_equal(decode(result.final), oracle_rotate(raster, theta))
        all_match = all_match and matches
        ideal = ideal_rotate(raster, theta)
        agree = agreement_fraction(decode(result.final), ideal)
        print(f"theta {theta:+6.1f}: oracle match {'yes' if matches else 'NO'}; "
              f"ideal-rotation agreement {agree:.4f}")
    print(f"frames written to {args.outdir}/")
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
