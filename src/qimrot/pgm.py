"""PGM image input/output, P2 (ASCII) and P5 (binary), maxval 255 only.

Every number in a PGM file, header and P2 sample alike, is ASCII decimal
digits: no sign and no underscore, which Python's ``int`` would accept.
"""
from __future__ import annotations

import os
import tempfile

import numpy as np

from .neqr import ImageFormatError, check_pixel_values

_WHITESPACE = b" \t\r\n\v\f"


def _header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read ``count`` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset of the byte right after the single
    whitespace character that terminates the last token.
    """
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < count:
        while pos < len(data) and data[pos : pos + 1] in _WHITESPACE:
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos : pos + 1] not in _WHITESPACE:
            pos += 1
        if start == pos:
            raise ImageFormatError("truncated PGM header")
        tokens.append(data[start:pos])
        if len(tokens) == count:
            if pos >= len(data):
                raise ImageFormatError("truncated PGM header")
            pos += 1  # exactly one whitespace byte separates header and raster
    return tokens, pos


def read_pgm(path: str) -> np.ndarray:
    """Read a P2 or P5 file into a uint8 array of shape (height, width)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        (magic,), _ = _header_tokens(data, 1)
    except ImageFormatError:
        raise ImageFormatError(f"{path}: not a PGM file")
    if magic not in (b"P2", b"P5"):
        raise ImageFormatError(f"{path}: unsupported magic {magic!r}")
    tokens, offset = _header_tokens(data, 4)
    if not all(t.isdigit() for t in tokens[1:]):
        raise ImageFormatError(f"{path}: malformed PGM header")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"{path}: maxval must be 255, got {maxval}")
    if magic == b"P5":
        raster = data[offset : offset + width * height]
        if len(raster) != width * height:
            raise ImageFormatError(f"{path}: truncated raster data")
        arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
        return arr.copy()
    values = data[offset:].split()
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


def write_pgm(path: str, raster: np.ndarray, binary: bool = True) -> None:
    """Write a raster as P5 (default) or P2, atomically (temp + rename).

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
        header = f"P5\n{width} {height}\n255\n".encode()
        body = np.ascontiguousarray(arr)  # written from its own buffer, not copied
    else:
        lines = "\n".join(" ".join(str(v) for v in row) for row in arr.tolist())
        header = f"P2\n{width} {height}\n255\n{lines}\n".encode()
        body = b""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".pgm.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
