"""Approximate centerpoints.

A *centerpoint* of ``n`` points in R^m is a point of Tukey depth at least
``n / (m + 1)``: every halfspace containing it contains that many points.
The MTTV separator needs a (beta-approximate) centerpoint of the lifted
points on S^d in ambient R^{d+1}; a random great circle through the image
of a centerpoint then splits the points at most ``(d+1)/(d+2)`` to a side.

Exact centerpoints are expensive; two standard approximations are provided:

- :func:`iterated_radon_centerpoint` — the Clarkson et al. scheme: repeat
  "group ``m + 2`` points, replace by their Radon point" until one point
  remains.  On a random sample of constant size this is the paper's
  unit-time building block.
- :func:`coordinate_median` — the cheap heuristic; no depth guarantee in
  adversarial position but excellent in practice, used as a fallback and in
  tests as a comparison.

:func:`tukey_depth_estimate` measures the achieved depth by probing random
directions (an upper bound on true depth that converges from above).
"""

from __future__ import annotations

import numpy as np

from .radon import radon_points_batch

__all__ = [
    "iterated_radon_centerpoint",
    "iterated_radon_centerpoint_many",
    "coordinate_median",
    "tukey_depth_estimate",
]


def coordinate_median(points: np.ndarray) -> np.ndarray:
    """Coordinatewise median (depth >= n / 2^m only in generic position)."""
    return np.median(np.asarray(points, dtype=np.float64), axis=0)


def iterated_radon_centerpoint(
    points: np.ndarray,
    rng: np.random.Generator,
    *,
    rounds: int | None = None,
) -> np.ndarray:
    """Approximate centerpoint by iterated Radon points.

    Each round shuffles the current multiset and replaces every full group
    of ``m + 2`` points with its Radon point (the group mean when the group
    is degenerate); leftovers pass through.  When fewer than ``m + 2``
    points remain the mean of the survivors is returned.  ``rounds`` caps
    the number of rounds (default: run to one point — O(log n) rounds).

    The returned point has expected Tukey depth Omega(n / (m + 1)^2) even
    without repetition; tests check measured depth >= n/(m+2) with slack on
    the workloads we use.  The one-set case of
    :func:`iterated_radon_centerpoint_many`.
    """
    return iterated_radon_centerpoint_many([points], [rng], rounds=rounds)[0]


def iterated_radon_centerpoint_many(
    point_sets: list,
    rngs: list,
    *,
    rounds: int | None = None,
) -> list:
    """Iterated-Radon centerpoints of many point sets, with the per-group
    Radon SVDs of every active set batched into one LAPACK call per round.

    Set ``i`` draws its permutations from ``rngs[i]`` alone, so its result
    does not depend on which other sets share the batch; the stacked
    solves of :func:`repro.geometry.radon.radon_points_batch` are bitwise
    equal to per-group :func:`~repro.geometry.radon.radon_point` calls
    with the mean fallback on degenerate groups.  This is the separator
    search's centerpoint step, batched across the frontier's nodes.
    """
    if len(point_sets) != len(rngs):
        raise ValueError("need exactly one rng per point set")
    sets = [np.asarray(p, dtype=np.float64) for p in point_sets]
    results: list = [None] * len(sets)
    current = {}
    done_rounds = {}
    for i, pts in enumerate(sets):
        if pts.ndim != 2:
            raise ValueError("points must be (n, m)")
        n, m = pts.shape
        if n == 0:
            raise ValueError("cannot take a centerpoint of zero points")
        if n < m + 2 or (rounds is not None and rounds <= 0):
            results[i] = pts.mean(axis=0)
        else:
            current[i] = pts
            done_rounds[i] = 0
    while current:
        round_sets = []  # (i, grouped, leftovers)
        for i in sorted(current):
            cur = current[i]
            k, m = cur.shape
            group = m + 2
            perm = rngs[i].permutation(k)
            usable = (k // group) * group
            grouped = cur[perm[:usable]].reshape(-1, group, m)
            round_sets.append((i, grouped, cur[perm[usable:]]))
        # one batched Radon pass per distinct dimensionality
        replaced = [None] * len(round_sets)
        by_shape: dict = {}
        for pos, (_, grouped, _) in enumerate(round_sets):
            by_shape.setdefault(grouped.shape[1:], []).append(pos)
        for members in by_shape.values():
            stacked = np.concatenate([round_sets[pos][1] for pos in members], axis=0)
            points = radon_points_batch(stacked)
            offset = 0
            for pos in members:
                g = round_sets[pos][1].shape[0]
                replaced[pos] = points[offset : offset + g]
                offset += g
        for (i, grouped, leftovers), rep in zip(round_sets, replaced):
            cur = np.concatenate([rep, leftovers], axis=0)
            done_rounds[i] += 1
            group = grouped.shape[1]
            finished = cur.shape[0] < group or (
                rounds is not None and done_rounds[i] >= rounds
            )
            if finished:
                results[i] = cur.mean(axis=0)
                del current[i]
            else:
                current[i] = cur
    return results


def tukey_depth_estimate(
    points: np.ndarray,
    z: np.ndarray,
    rng: np.random.Generator,
    *,
    directions: int = 256,
) -> int:
    """Estimated Tukey depth of ``z``: min points on one side over probes.

    Probes ``directions`` random unit vectors; the reported value is an
    *upper bound* on the true depth (more probes -> tighter).
    """
    pts = np.asarray(points, dtype=np.float64)
    zz = np.asarray(z, dtype=np.float64)
    n, m = pts.shape
    if directions < 1:
        raise ValueError("need at least one probe direction")
    dirs = rng.standard_normal((directions, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj = (pts - zz) @ dirs.T  # (n, directions)
    above = (proj >= 0).sum(axis=0)
    below = (proj <= 0).sum(axis=0)
    return int(min(above.min(), below.min()))
