"""The synthetic raster that ``verify`` builds."""
from __future__ import annotations

import numpy as np


def checkerboard(side: int, tile: int = 8) -> np.ndarray:
    """Alternating 0/255 tiles."""
    y, x = np.indices((side, side))
    return np.where(((y // tile) + (x // tile)) % 2 == 0, 0, 255).astype(np.uint8)
