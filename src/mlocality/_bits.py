"""Bit-string index helpers.

Convention used throughout the package: position 0 (party 1) maps to the
most significant bit of an integer index.
"""

from __future__ import annotations

import numpy as np


def bit_matrix(indices, width: int) -> np.ndarray:
    """Bits of every index as a row, position 0 (party 1) first."""
    return (np.asarray(indices, dtype=np.int64)[..., None] >> np.arange(width - 1, -1, -1)) & 1

