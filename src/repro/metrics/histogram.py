"""Hop-count histograms — the z-axis of the paper's Figures F-I."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


@dataclass
class HopHistogram:
    """Distribution of hop counts for one lookup batch.

    The paper's surfaces plot, per failure fraction, the *percentage of
    requests* resolved in each hop count (y axis 0..30, z axis 0..50%).
    """

    counts: Dict[int, int] = field(default_factory=dict)
    total: int = 0

    def add(self, hops: int) -> None:
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        self.counts[hops] = self.counts.get(hops, 0) + 1
        self.total += 1

    def add_many(self, hops: Iterable[int]) -> None:
        for h in hops:
            self.add(h)

    def percentage(self, hops: int) -> float:
        """% of requests resolved in exactly *hops* hops."""
        if self.total == 0:
            return 0.0
        return 100.0 * self.counts.get(hops, 0) / self.total

    def row(self, max_hops: int = 30) -> List[float]:
        """Dense percentage row [0..max_hops] — one slice of the surface."""
        return [self.percentage(h) for h in range(max_hops + 1)]
