"""A float dot product that OpenBLAS always sums on the calling thread."""

from __future__ import annotations

import numpy as np

#: the longest dot product that OpenBLAS's x86-64 ddot keeps on the
#: calling thread; a longer one is split between threads, which costs CPU
#: time and makes its last bits depend on the thread count
DOT_BLOCK = 10_000


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """np.dot of two float rows of one length, as a Python float.  A row
    of more than DOT_BLOCK values is summed as the np.dot of each
    consecutive DOT_BLOCK-value block, added in index order, so the bits
    are the same under any thread count."""
    n = a.size
    if n <= DOT_BLOCK:
        return float(np.dot(a, b))
    total = 0.0
    for start in range(0, n, DOT_BLOCK):
        stop = start + DOT_BLOCK
        total += float(np.dot(a[start:stop], b[start:stop]))
    return total
