"""The six sentence-length measures and their per-book time series."""

from __future__ import annotations

import numpy as np

from .textpipe import CANONICAL_ORDER, Document, MeasureKind

__all__ = ["CANONICAL_ORDER", "MeasureKind", "extract_all"]


def extract_all(doc: Document) -> list[np.ndarray]:
    """All six series as read-only int64 rows, views of `doc.lengths`, in
    canonical order: row k is measure CANONICAL_ORDER[k] of every sentence."""
    return list(doc.lengths)
