"""Bit-string index helpers.

Convention used throughout the package: position 0 (party 1) maps to the
most significant bit of an integer index.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def bit_matrix(indices, width: int) -> np.ndarray:
    """Bits of every index as a row, position 0 (party 1) first."""
    return (np.asarray(indices, dtype=np.int64)[..., None] >> np.arange(width - 1, -1, -1)) & 1


@lru_cache(maxsize=None)
def bit_extract_map(positions: tuple[int, ...], width: int) -> np.ndarray:
    """Map each width-bit index to the sub-index read off at `positions`."""
    bits = bit_matrix(np.arange(1 << width), width)[:, list(positions)]
    return bits @ (1 << np.arange(len(positions) - 1, -1, -1))

