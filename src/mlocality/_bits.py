"""Bit-string index helpers.

Convention used throughout the package: position 0 of a settings/outcomes
string is party 1 and maps to the most significant bit of the integer index.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def bits_to_index(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def index_to_bits(index: int, width: int) -> tuple[int, ...]:
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


def bit_matrix(indices, width: int) -> np.ndarray:
    """Bits of every index as a row, position 0 (party 1) first."""
    return (np.asarray(indices, dtype=np.int64)[..., None] >> np.arange(width - 1, -1, -1)) & 1


def insert_bit(index: int, pos: int, bit: int, width: int) -> int:
    """Insert `bit` at position pos of a (width-1)-bit index, giving a width-bit index."""
    shift = width - 1 - pos
    high, low = divmod(index, 1 << shift)
    return ((high << 1 | bit) << shift) | low


@lru_cache(maxsize=None)
def bit_extract_map(positions: tuple[int, ...], width: int) -> np.ndarray:
    """Map each width-bit index to the sub-index read off at `positions`."""
    bits = bit_matrix(np.arange(1 << width), width)[:, list(positions)]
    return bits @ (1 << np.arange(len(positions) - 1, -1, -1))


def settings_to_index(settings: str) -> int:
    return bits_to_index(0 if c == "a" else 1 for c in settings)


def outcomes_to_index(outcomes: str) -> int:
    return bits_to_index(outcomes)

