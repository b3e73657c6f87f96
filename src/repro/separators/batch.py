"""Batched separator construction and evaluation for the frontier engine.

The frontier engine (:mod:`repro.core.frontier`) carries *all* active
subproblems of one tree level at once, so the per-node separator pipeline
is reorganised into cross-segment batches:

- :func:`prepare_samplers` builds one MTTV sampler per segment with the
  iterated-Radon centerpoint SVDs of every segment stacked into single
  LAPACK calls (:func:`~repro.geometry.centerpoints.iterated_radon_centerpoint_many`)
  — the dominant cost of separator search.
- :func:`batched_side_of_points` classifies the concatenation of all
  segments against their candidate separators in one vectorised pass for
  spheres (the common case), falling back to per-segment evaluation for
  hyperplane candidates, whose BLAS matrix–vector product is not
  guaranteed bit-stable under batching.

Everything here is bit-for-bit equivalent to the per-node code paths in
:mod:`repro.separators.mttv` / :mod:`repro.separators.quality`: each
segment consumes its own generator in the same order, so the recursive
and frontier engines draw identical separators from identical seeds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..geometry.centerpoints import coordinate_median, iterated_radon_centerpoint_many
from ..geometry.points import as_points
from ..geometry.spheres import Hyperplane, Sphere
from .mttv import MTTVSeparatorSampler, default_sample_size, sampled_lift

__all__ = ["prepare_samplers", "batched_side_of_points"]

SeparatorLike = Union[Sphere, Hyperplane]


def prepare_samplers(
    point_sets: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    *,
    sample_size: Optional[int] = None,
    centerpoint: str = "radon",
) -> List[MTTVSeparatorSampler]:
    """One :class:`MTTVSeparatorSampler` per point set, centerpoints batched.

    Mirrors :class:`~repro.separators.unit_time.UnitTimeSeparator`
    construction (and ``refresh``): the sample size is resolved per set via
    :func:`default_sample_size` when not given, the subsample ``choice``
    and the Radon permutations come from each set's own generator in
    construction order, and the resulting samplers are indistinguishable
    from independently constructed ones.
    """
    if len(point_sets) != len(rngs):
        raise ValueError("need exactly one rng per point set")
    sets = [as_points(p, min_points=1) for p in point_sets]
    sizes = []
    lifted = []
    for pts, rng in zip(sets, rngs):
        size = sample_size if sample_size is not None else default_sample_size(pts.shape[1])
        sizes.append(size)
        lifted.append(sampled_lift(pts, rng, size))
    if centerpoint == "radon":
        centers = iterated_radon_centerpoint_many(lifted, list(rngs))
    elif centerpoint == "median":
        centers = [coordinate_median(lift) for lift in lifted]
    else:
        raise ValueError(f"unknown centerpoint method {centerpoint!r}")
    return [
        MTTVSeparatorSampler.from_center_estimate(
            pts, rng, z, sample_size=size, centerpoint=centerpoint
        )
        for pts, rng, z, size in zip(sets, rngs, centers, sizes)
    ]


def batched_side_of_points(
    separators: Sequence[SeparatorLike],
    point_sets: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """``separator.side_of_points(points)`` for many pairs, spheres batched.

    Sphere segments are concatenated and classified in one flat pass with
    per-row centers/radii gathered by segment — the signed distance
    ``|x - c| - r`` is a row-local computation, so the result is bitwise
    identical to the per-segment call.  Hyperplane candidates (the rare
    degenerate pull-backs) are evaluated per segment.
    """
    if len(separators) != len(point_sets):
        raise ValueError("need exactly one point set per separator")
    sides: List[Optional[np.ndarray]] = [None] * len(separators)
    sphere_pos = [i for i, sep in enumerate(separators) if isinstance(sep, Sphere)]
    for i, sep in enumerate(separators):
        if not isinstance(sep, Sphere):
            sides[i] = sep.side_of_points(point_sets[i])
    if sphere_pos:
        lengths = np.array([point_sets[i].shape[0] for i in sphere_pos], dtype=np.int64)
        flat = np.concatenate([point_sets[i] for i in sphere_pos], axis=0)
        centers = np.stack([separators[i].center for i in sphere_pos], axis=0)
        radii = np.array([separators[i].radius for i in sphere_pos], dtype=np.float64)
        rows = np.repeat(np.arange(len(sphere_pos)), lengths)
        s = np.linalg.norm(flat - centers[rows], axis=1) - radii[rows]
        side_flat = np.where(s > 0.0, 1, -1).astype(np.int8)
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        for j, i in enumerate(sphere_pos):
            sides[i] = side_flat[bounds[j] : bounds[j + 1]]
    return sides  # type: ignore[return-value]
