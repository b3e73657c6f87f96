"""The Unit Time Sphere Separator Algorithm and its retry loop.

The paper's building block: a randomized algorithm that, in O(1) depth with
n processors, produces a sphere that ``(d+1)/(d+2) + eps``-splits the point
set with constant probability (probability >= 1/2 is all the analysis
needs; each recursion node retries until success, and the Bernoulli-trials
argument of Theorem 3.1 bounds the total number of retries along any
root-leaf path).

Cost accounting per attempt (n = current subproblem size):

- constant work for the sampled centerpoint + conformal map + circle
  (the sample is O(1) in n), charged as a constant serial cost;
- one elementwise pass to classify all n points against the candidate
  (depth O(1), work O(n));
- one SCAN to count the sides (depth 1 in the paper's model).

``find_good_separator`` implements "iteratively apply Unit Time Sphere
Separator Algorithm until finding a good sphere separator" from the
pseudo-code of Section 3.3, and reports the number of attempts so the
experiments can verify the geometric-retries claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..geometry.points import as_points
from ..geometry.spheres import Hyperplane, Sphere
from ..pvm.machine import Machine
from ..util.rng import as_generator
from .mttv import MTTVSeparatorSampler, default_sample_size
from .quality import default_delta, side_split_is_good

__all__ = [
    "SeparatorFailure",
    "UnitTimeSeparator",
    "find_good_separator",
    "find_good_separator_side",
]

SeparatorLike = Union[Sphere, Hyperplane]

# Constant serial charge per attempt covering the O(1)-size sample work
# (lift + Radon iterations + map + circle draw).  The exact constant is
# irrelevant to every asymptotic claim; it only needs to be n-independent.
_ATTEMPT_SERIAL_COST = 8.0


class SeparatorFailure(RuntimeError):
    """Raised when no acceptable separator was found within the budget.

    The divide and conquer catches this and falls back to a brute-force
    solve of the offending subproblem (correctness is never at risk; this
    is the Las-Vegas convention of the paper's "random time" algorithms).
    """


@dataclass
class UnitTimeSeparator:
    """Prepared unit-time separator for one subproblem's point set."""

    points: np.ndarray
    seed: object = None
    sample_size: Optional[int] = None
    centerpoint: str = "radon"

    def __post_init__(self) -> None:
        pts = as_points(self.points, min_points=2)
        self.points = pts
        self.rng = as_generator(self.seed)
        d = pts.shape[1]
        size = self.sample_size if self.sample_size is not None else default_sample_size(d)
        self._sampler = MTTVSeparatorSampler(
            pts, seed=self.rng, sample_size=size, centerpoint=self.centerpoint
        )

    def refresh(self) -> None:
        """Recompute the sample/centerpoint (used after repeated failures)."""
        d = self.points.shape[1]
        size = self.sample_size if self.sample_size is not None else default_sample_size(d)
        self._sampler = MTTVSeparatorSampler(
            self.points, seed=self.rng, sample_size=size, centerpoint=self.centerpoint
        )

    def attempt(self, machine: Machine) -> SeparatorLike:
        """One unit-time attempt; charges O(1)-depth, O(n)-work."""
        n = self.points.shape[0]
        machine.charge(machine.serial_cost(_ATTEMPT_SERIAL_COST))
        machine.charge(machine.ewise_cost(n, 3.0))  # classify all points
        machine.charge(machine.scan_cost(n))  # count the sides
        machine.bump("separator_attempts")
        return self._sampler.draw()


def find_good_separator(
    points: np.ndarray,
    machine: Machine,
    seed: object = None,
    *,
    delta: Optional[float] = None,
    epsilon: float = 0.05,
    max_attempts: int = 64,
    refresh_every: int = 16,
    sample_size: Optional[int] = None,
    centerpoint: str = "radon",
) -> Tuple[SeparatorLike, int]:
    """Retry unit-time attempts until a separator delta-splits the points.

    Returns ``(separator, attempts)``.  Raises :class:`SeparatorFailure`
    after ``max_attempts`` failures (e.g. heavily duplicated inputs where
    no sphere can split the multiset).
    """
    separator, attempts, _ = find_good_separator_side(
        points,
        machine,
        seed,
        delta=delta,
        epsilon=epsilon,
        max_attempts=max_attempts,
        refresh_every=refresh_every,
        sample_size=sample_size,
        centerpoint=centerpoint,
    )
    return separator, attempts


def find_good_separator_side(
    points: np.ndarray,
    machine: Machine,
    seed: object = None,
    *,
    delta: Optional[float] = None,
    epsilon: float = 0.05,
    max_attempts: int = 64,
    refresh_every: int = 16,
    sample_size: Optional[int] = None,
    centerpoint: str = "radon",
) -> Tuple[SeparatorLike, int, np.ndarray]:
    """:func:`find_good_separator` that also returns the accepted side
    vector, ``(separator, attempts, side)`` — the divide step's split
    without a second classification pass."""
    pts = as_points(points, min_points=2)
    d = pts.shape[1]
    target = default_delta(d, epsilon) if delta is None else float(delta)
    unit = UnitTimeSeparator(pts, seed=seed, sample_size=sample_size, centerpoint=centerpoint)
    with machine.span("separator.search", n=int(pts.shape[0]), d=d) as span:
        for attempt in range(1, max_attempts + 1):
            try:
                candidate = unit.attempt(machine)
            except RuntimeError:
                machine.bump("separator_draw_failures")
                continue
            side = candidate.side_of_points(pts)
            if side_split_is_good(side, target):
                if span is not None:
                    span.attrs["attempts"] = attempt
                return candidate, attempt, side
            if attempt % refresh_every == 0:
                unit.refresh()
        if span is not None:
            span.attrs["attempts"] = max_attempts
            span.attrs["failed"] = True
    raise SeparatorFailure(
        f"no {target:.3f}-splitting separator in {max_attempts} attempts "
        f"(n={pts.shape[0]}, d={d})"
    )
