"""The six sentence-length measures and their per-book time series."""

from __future__ import annotations

import numpy as np

from .textpipe import CANONICAL_ORDER, Document, MeasureKind

__all__ = ["CANONICAL_ORDER", "MeasureKind", "extract_all"]


def extract_all(doc: Document) -> list[np.ndarray]:
    """All six series as read-only float64 rows, in canonical order and
    aligned by sentence index: row k is measure CANONICAL_ORDER[k]."""
    values = doc.lengths.astype(float)
    values.setflags(write=False)
    return list(values)
