"""Separator quality measures (Definition 2.1 of the paper).

A sphere S is an *f(n)-separator that delta-splits* a neighborhood system B
when it cuts at most f(n) balls and leaves at most ``delta * n`` balls
strictly inside / strictly outside.  This module measures both quantities
for explicit separators, plus the point-split ratio that the divide and
conquer actually tests (the graph — hence the ball system — is unknown
during the recursion; see Section 1's discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..geometry.balls import BallSystem
from ..geometry.spheres import Hyperplane, SideCounts, Sphere

__all__ = [
    "SeparatorReport",
    "point_split",
    "ball_split",
    "is_good_point_split",
    "side_split_is_good",
    "default_delta",
]

SeparatorLike = Union[Sphere, Hyperplane]


def default_delta(d: int, epsilon: float = 0.05) -> float:
    """The paper's target splitting ratio ``(d+1)/(d+2) + epsilon``."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not 0 <= epsilon < 1.0 / (d + 2):
        raise ValueError(f"epsilon must be in [0, 1/(d+2)) = [0, {1.0/(d+2):.4f}), got {epsilon}")
    return (d + 1) / (d + 2) + epsilon


@dataclass(frozen=True, slots=True)
class SeparatorReport:
    """Quality summary of one separator against points and (optionally) balls."""

    n_points: int
    interior_points: int
    exterior_points: int
    split_ratio: float
    ball_counts: SideCounts | None = None

    @property
    def intersection_number(self) -> int | None:
        return None if self.ball_counts is None else self.ball_counts.intersecting


def point_split(separator: SeparatorLike, points: np.ndarray) -> SeparatorReport:
    """Interior/exterior point counts and the split ratio max/n."""
    side = separator.side_of_points(points)
    n = side.shape[0]
    interior = int(np.count_nonzero(side < 0))
    exterior = n - interior
    ratio = max(interior, exterior) / n if n else 0.0
    return SeparatorReport(n, interior, exterior, ratio)


def ball_split(separator: SeparatorLike, balls: BallSystem) -> SeparatorReport:
    """Full quality report including the intersection number iota_B(S)."""
    cls = balls.classify(separator)
    interior = int(np.count_nonzero(cls == -1))
    exterior = int(np.count_nonzero(cls == 1))
    cut = int(np.count_nonzero(cls == 0))
    side = separator.side_of_points(balls.centers)
    n = len(balls)
    pin = int(np.count_nonzero(side < 0))
    ratio = max(pin, n - pin) / n if n else 0.0
    return SeparatorReport(n, pin, n - pin, ratio, SideCounts(interior, exterior, cut))


def is_good_point_split(separator: SeparatorLike, points: np.ndarray, delta: float) -> bool:
    """The recursion's acceptance test: both sides nonempty, ratio <= delta."""
    return side_split_is_good(separator.side_of_points(points), delta)


def side_split_is_good(side: np.ndarray, delta: float) -> bool:
    """:func:`is_good_point_split` applied to an already-computed side
    vector, so the accepted split can be reused by the divide step."""
    n = side.shape[0]
    if n < 2:
        return False
    interior = int(np.count_nonzero(side < 0))
    exterior = n - interior
    if interior == 0 or exterior == 0:
        return False
    return max(interior, exterior) / n <= delta
