"""PGM image input/output, P2 (ASCII) and P5 (binary), maxval 255 only,
and the one atomic writer of every output file.

Every number in a PGM file, header and P2 sample alike, is ASCII decimal
digits: no sign and no underscore, which Python's ``int`` would accept.
Every refusal of a file starts with its path.
"""
from __future__ import annotations

import os
import re

import numpy as np

from .neqr import ImageFormatError, check_pixel_values

# Whitespace and # comments, then one header token.  A '#' starts a comment
# only where a token could start, so a token never starts with one but may
# hold one (``P5#x``, ``2#c``).  A comment ends at a newline or at the end of
# the data, so the engine cannot backtrack into it and read its text as a token.
_TOKEN = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*(?:\n|\Z))*([^# \t\r\n\v\f][^ \t\r\n\v\f]*)")


def read_pgm(path: str) -> np.ndarray:
    """Read a P2 or P5 file into a uint8 array of shape (height, width).

    The header is read in one pass, magic, width, height and maxval; exactly
    one whitespace byte separates maxval from the raster.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tokens: list[bytes] = []
    pos = 0
    for refusal in ("not a PGM file", *["truncated PGM header"] * 3):
        token = _TOKEN.match(data, pos)
        if token is None or token.end() == len(data):
            raise ImageFormatError(f"{path}: {refusal}")
        tokens.append(token[1])
        pos = token.end() + 1  # past the one whitespace byte that ends the token
        if tokens[0] not in (b"P2", b"P5"):  # checked before the rest is read
            raise ImageFormatError(f"{path}: unsupported magic {tokens[0]!r}")
    magic, *fields = tokens
    if not all(t.isdigit() for t in fields):
        raise ImageFormatError(f"{path}: malformed PGM header")
    width, height, maxval = (int(t) for t in fields)
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"{path}: maxval must be 255, got {maxval}")
    if magic == b"P5":
        if len(data) - pos < width * height:
            raise ImageFormatError(f"{path}: truncated raster data")
        return np.frombuffer(data, np.uint8, width * height, pos).copy().reshape(height, width)
    values = data[pos:].split()
    if len(values) != width * height:
        raise ImageFormatError(
            f"{path}: expected {width * height} samples, got {len(values)}"
        )
    outside = ImageFormatError(f"{path}: sample outside [0, {maxval}]")
    if not b"".join(values).isdigit():
        bad = next(v for v in values if not v.isdigit())
        if bad[:1] == b"-" and bad[1:].isdigit() and bad[1:].strip(b"0"):
            raise outside  # a negative number
        raise ImageFormatError(f"{path}: non-decimal sample {bad.decode(errors='replace')!r}")
    try:
        flat = np.array([int(v) for v in values], dtype=np.int64)
    except OverflowError:  # beyond int64, so beyond maxval too
        raise outside from None
    if flat.max() > maxval:
        raise outside
    return flat.astype(np.uint8).reshape(height, width)


def replace_atomically(path: str, *chunks: bytes | np.ndarray) -> None:
    """Write the chunks (bytes or buffers) to a temp file beside ``path``, then
    rename it over ``path``: the file is the old one or the whole new one,
    never a part.  The file gets the mode ``open(path, "w")`` would give it.
    On any failure the temp file is removed and the error raised; it may
    name the temp file, not ``path``."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_pgm(path: str, raster: np.ndarray, binary: bool = True) -> None:
    """Write a raster as P5 (default) or P2 through ``replace_atomically``.

    Its shape and values (``neqr.check_pixel_values``) are checked before any
    file is made; a C-ordered uint8 raster is written from its own buffer.
    """
    arr = np.asarray(raster)
    if arr.ndim != 2 or not arr.size:
        raise ImageFormatError(f"raster must be 2D with rows and columns, got shape {arr.shape}")
    check_pixel_values(arr)
    arr = arr.astype(np.uint8, copy=False)
    height, width = arr.shape
    if binary:
        replace_atomically(path, f"P5\n{width} {height}\n255\n".encode(), np.ascontiguousarray(arr))
    else:
        lines = "\n".join(" ".join(str(v) for v in row) for row in arr.tolist())
        replace_atomically(path, f"P2\n{width} {height}\n255\n{lines}\n".encode())
