"""The six sentence-length measures and their per-book time series."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .textpipe import CANONICAL_ORDER, Document, MeasureKind

__all__ = ["CANONICAL_ORDER", "LengthSeries", "MeasureKind", "extract_all"]


@dataclass(frozen=True)
class LengthSeries:
    book_id: str
    kind: MeasureKind
    values: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.values)


def extract_all(doc: Document) -> list[LengthSeries]:
    """All six series in canonical order, aligned by sentence index."""
    return [LengthSeries(book_id=doc.id, kind=kind, values=values)
            for kind, values in zip(CANONICAL_ORDER, doc.lengths)]
