"""A labelled (x, y) series — the unit every figure is made of."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np


@dataclass
class Series:
    """Ordered (x, y) pairs with a label.

    >>> s = Series("failed%")
    >>> s.add(0.05, 1.0); s.add(0.10, 2.5)
    >>> s.xs()
    array([0.05, 0.1 ])
    """

    label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        if self.points and x < self.points[-1][0]:
            raise ValueError(f"x must be non-decreasing, got {x} after {self.points[-1][0]}")
        self.points.append((float(x), float(y)))

    def xs(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    def ys(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])

    def __len__(self) -> int:
        return len(self.points)

    def interp(self, x: float) -> float:
        """Linear interpolation inside the x-range."""
        xs, ys = self.xs(), self.ys()
        if len(xs) == 0:
            raise ValueError("empty series")
        return float(np.interp(x, xs, ys))

    def max_y(self) -> float:
        return float(np.max(self.ys()))
