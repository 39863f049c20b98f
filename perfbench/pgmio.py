"""The harness's own PGM reader and writer (P2/P5, maxval 255).

Kept apart from ``qimrot.pgm`` so that a defect in the program's file I/O
shows up as a failed check instead of cancelling out.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def write_pgm(path: Path, raster: np.ndarray, fmt: str) -> None:
    height, width = raster.shape
    header = f"{fmt}\n{width} {height}\n255\n".encode()
    if fmt == "P5":
        payload = raster.astype(np.uint8).tobytes()
    else:
        payload = ("\n".join(" ".join(map(str, row)) for row in raster.tolist()) + "\n").encode()
    Path(path).write_bytes(header + payload)


def _tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    tokens, pos = [], 0
    while len(tokens) < count:
        while pos < len(data) and data[pos] in b" \t\r\n":
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = data.index(b"\n", pos)
            continue
        start = pos
        while pos < len(data) and data[pos] not in b" \t\r\n":
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        tokens.append(data[start:pos])
    return tokens, pos + 1


def read_pgm(path: Path) -> tuple[str, np.ndarray]:
    """Return (magic, raster); raises ValueError on anything malformed."""
    data = Path(path).read_bytes()
    (magic, width, height, maxval), offset = _tokens(data, 4)
    width, height = int(width), int(height)
    if magic not in (b"P2", b"P5") or int(maxval) != 255:
        raise ValueError(f"unsupported PGM header {magic!r} maxval {maxval!r}")
    if magic == b"P5":
        body = data[offset:offset + width * height]
        if len(body) != width * height:
            raise ValueError("truncated P5 raster")
        raster = np.frombuffer(body, dtype=np.uint8)
    else:
        raster = np.array([int(v) for v in data[offset:].split()], dtype=np.int64)
        if raster.size != width * height or raster.min() < 0 or raster.max() > 255:
            raise ValueError("bad P2 raster")
    return magic.decode(), raster.reshape(height, width).astype(np.uint8)
