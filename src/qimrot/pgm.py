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
_SPACE = b" \t\r\n\v\f"  # the whitespace of bytes.split
_SHAPE = bytes(32 if b in _SPACE else 120 for b in range(256))  # whitespace to b" ", else b"x"


def read_pgm(path: str) -> np.ndarray:
    """Read a P2 or P5 file into a uint8 array of shape (height, width).

    The header is read in one pass; exactly one whitespace byte separates
    maxval from the raster.  A P2 body is counted, checked and parsed by
    whole-buffer calls, with no Python object per sample.
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
    body = data[pos:]
    count = (b" " + body.translate(_SHAPE)).count(b" x")  # len(body.split()), no list
    if count != width * height:
        raise ImageFormatError(f"{path}: expected {width * height} samples, got {count}")
    outside = ImageFormatError(f"{path}: sample outside [0, {maxval}]")
    if not body.translate(None, _SPACE).isdigit():
        bad = next(v for v in body.split() if not v.isdigit())
        if bad[:1] == b"-" and bad[1:].isdigit() and bad[1:].strip(b"0"):
            raise outside  # a negative number
        raise ImageFormatError(f"{path}: non-decimal sample {bad.decode(errors='replace')!r}")
    flat = np.fromstring(body, np.float64, sep=" ")  # exact to 2^53; longer reads past maxval
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
    file is made.  A C-ordered uint8 raster is written from its own buffer as
    P5, or as P2 through one ``%`` format of a row template.
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
        samples = (" ".join(["%d"] * width) + "\n") * height % tuple(arr.ravel().tolist())
        replace_atomically(path, f"P2\n{width} {height}\n255\n{samples}".encode())
