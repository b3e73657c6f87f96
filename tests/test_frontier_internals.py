"""Building blocks of the frontier engine, tested against sequential
oracles.

The engines' equivalence contract (see
``tests/test_engine_equivalence.py``) rests on a handful of batched
kernels each being *bitwise* identical to the obvious sequential
computation.  Every engine now calls the batched kernels, so the
sequential references live here, in the tests: a per-owner
``merge_neighbor_lists`` loop for the candidate merge and a per-group
``radon_point`` loop (mean fallback) for the iterated centerpoint.  The
module also pins the recursion-limit guard and the iterative (deep-tree
safe) partition-tree traversals that the degenerate-workload regression
relies on.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.correction import apply_candidate_pairs, apply_candidate_pairs_batch
from repro.core.fast_dnc import FastDnCConfig, parallel_nearest_neighborhood
from repro.core.neighborhood import merge_neighbor_lists
from repro.core.partition_tree import PartitionNode
from repro.geometry.radon import radon_point, radon_points_batch
from repro.geometry.centerpoints import (
    iterated_radon_centerpoint,
    iterated_radon_centerpoint_many,
)
from repro.geometry.spheres import Sphere
from repro.pvm import Machine
from repro.pvm.primitives import segmented_pack, segmented_reduce, segmented_split
from repro.separators.batch import batched_side_of_points, prepare_samplers
from repro.separators.mttv import MTTVSeparatorSampler, default_sample_size
from repro.separators.quality import (
    default_delta,
    is_good_point_split,
    point_split,
    side_split_is_good,
)
from repro.util.recursion import FRAMES_PER_LEVEL, estimated_tree_levels, recursion_guard
from repro.workloads import collinear, uniform_cube, with_duplicates


# ---------------------------------------------------------------------------
# sequential oracles
# ---------------------------------------------------------------------------


def _apply_oracle(points, nbr_idx, nbr_sq, owners, cands, k):
    """Per-owner merge: each owner's list re-taken as the k best of (list
    ∪ candidates) by one :func:`merge_neighbor_lists` call; self-pairs
    dropped.  Returns how many owners' lists changed."""
    changed = 0
    for g in np.unique(owners):
        mine = cands[(owners == g) & (cands != g)]
        if mine.shape[0] == 0:
            continue
        diff = points[mine].astype(np.float64) - points[g].astype(np.float64)
        new_idx, new_sq = merge_neighbor_lists(
            nbr_idx[g], nbr_sq[g], mine, np.einsum("ij,ij->i", diff, diff), k
        )
        if not (np.array_equal(new_idx, nbr_idx[g]) and np.array_equal(new_sq, nbr_sq[g])):
            changed += 1
        nbr_idx[g], nbr_sq[g] = new_idx, new_sq
    return changed


def _centerpoint_oracle(points, rng, rounds=None):
    """Iterated Radon points, one :func:`radon_point` call per group with
    the group mean on a degenerate partition."""
    current = np.asarray(points, dtype=np.float64)
    m = current.shape[1]
    group = m + 2
    done = 0
    while current.shape[0] >= group and (rounds is None or done < rounds):
        perm = rng.permutation(current.shape[0])
        usable = (current.shape[0] // group) * group
        replaced = []
        for g in current[perm[:usable]].reshape(-1, group, m):
            try:
                replaced.append(radon_point(g))
            except np.linalg.LinAlgError:
                replaced.append(g.mean(axis=0))
        current = np.concatenate([np.array(replaced), current[perm[usable:]]])
        done += 1
    return current.mean(axis=0)


# ---------------------------------------------------------------------------
# segmented primitives vs the obvious per-segment reference
# ---------------------------------------------------------------------------


def _random_segments(rng, n_segments, max_len):
    lengths = rng.integers(0, max_len + 1, size=n_segments)
    seg_ids = np.repeat(np.arange(n_segments), lengths)
    return lengths, seg_ids


class TestSegmentedPrimitives:
    @pytest.mark.parametrize("op", ["add", "max", "min"])
    def test_segmented_reduce_matches_per_segment(self, op):
        rng = np.random.default_rng(0)
        lengths, seg_ids = _random_segments(rng, 7, 9)
        # empty segments are dropped from seg_ids; reduce over present ids
        present = np.unique(seg_ids)
        x = rng.normal(size=seg_ids.shape[0])
        got = segmented_reduce(Machine(), x, seg_ids, op=op)
        # reference: each segment reduced in isolation by the same ufunc,
        # so the batch must be insensitive to neighboring segments
        ufunc = {"add": np.add, "max": np.maximum, "min": np.minimum}[op]
        want = np.array([ufunc.reduceat(x[seg_ids == s], [0])[0] for s in present])
        np.testing.assert_array_equal(got, want)

    def test_segmented_split_stable_per_segment(self):
        rng = np.random.default_rng(1)
        lengths, seg_ids = _random_segments(rng, 9, 12)
        x = rng.integers(0, 1000, size=seg_ids.shape[0])
        flags = rng.random(size=x.shape[0]) < 0.4
        out, false_counts = segmented_split(None, x, flags, seg_ids)
        present = np.unique(seg_ids)
        assert false_counts.shape[0] == present.shape[0]
        start = 0
        for j, s in enumerate(present):
            mask = seg_ids == s
            xs, fs = x[mask], flags[mask]
            want = np.concatenate([xs[~fs], xs[fs]])
            got = out[start : start + xs.shape[0]]
            np.testing.assert_array_equal(got, want)
            assert false_counts[j] == int(np.count_nonzero(~fs))
            start += xs.shape[0]

    def test_segmented_pack_matches_per_segment(self):
        rng = np.random.default_rng(2)
        lengths, seg_ids = _random_segments(rng, 6, 10)
        x = rng.normal(size=seg_ids.shape[0])
        mask = rng.random(size=x.shape[0]) < 0.5
        packed, counts = segmented_pack(None, x, mask, seg_ids)
        np.testing.assert_array_equal(packed, x[mask])
        present = np.unique(seg_ids)
        want_counts = [int(np.count_nonzero(mask[seg_ids == s])) for s in present]
        np.testing.assert_array_equal(counts, want_counts)

    def test_machine_none_is_uncharged(self):
        m = Machine()
        x = np.arange(10.0)
        seg = np.zeros(10, dtype=np.int64)
        before = m.total
        segmented_split(None, x, x > 4, seg)
        segmented_pack(None, x, x > 4, seg)
        assert m.total.work == before.work
        segmented_split(m, x, x > 4, seg)
        assert m.total.work > before.work


# ---------------------------------------------------------------------------
# batched geometry kernels: bitwise equal to the sequential path
# ---------------------------------------------------------------------------


class TestBatchedGeometry:
    def test_radon_points_batch_matches_sequential(self):
        rng = np.random.default_rng(3)
        groups = rng.normal(size=(17, 5, 3))  # d=3 needs d+2=5 points
        got = radon_points_batch(groups)
        want = np.stack([radon_point(g) for g in groups])
        np.testing.assert_array_equal(got, want)

    def test_radon_points_batch_degenerate_group_falls_back_to_mean(self):
        rng = np.random.default_rng(4)
        groups = rng.normal(size=(3, 4, 2))
        groups[1] = 1.0  # all-identical group: no proper Radon partition
        got = radon_points_batch(groups)
        np.testing.assert_array_equal(got[1], groups[1].mean(axis=0))
        np.testing.assert_array_equal(got[0], radon_point(groups[0]))

    def test_centerpoint_many_matches_sequential(self):
        sets = [
            uniform_cube(60, 2, seed=5),
            uniform_cube(45, 3, seed=6),
            uniform_cube(23, 2, seed=7),
            np.ones((20, 3)),  # fully degenerate set
            uniform_cube(3, 2, seed=8),  # below one group: plain mean
        ]
        many = iterated_radon_centerpoint_many(
            sets, [np.random.default_rng(100 + i) for i in range(len(sets))]
        )
        for i, pts in enumerate(sets):
            want = _centerpoint_oracle(pts, np.random.default_rng(100 + i))
            np.testing.assert_array_equal(many[i], want)
            one = iterated_radon_centerpoint(pts, np.random.default_rng(100 + i))
            np.testing.assert_array_equal(one, want)

    def test_centerpoint_degenerate_groups(self):
        # points on a line in R^3 (and repeated points): every group of 5
        # is affinely degenerate, its null space has dimension > 1, and
        # the stacked SVD must pick the same null vector as a single one
        t = np.random.default_rng(12).normal(size=(40, 1))
        sets = [
            collinear(40, 3, seed=12),
            np.hstack([t, 2.0 * t, -t]),
            np.repeat(uniform_cube(4, 3, seed=13), 10, axis=0),
            uniform_cube(30, 3, seed=13),
        ]
        many = iterated_radon_centerpoint_many(
            sets, [np.random.default_rng(300 + i) for i in range(len(sets))]
        )
        for i, pts in enumerate(sets):
            want = _centerpoint_oracle(pts, np.random.default_rng(300 + i))
            np.testing.assert_array_equal(many[i], want)
            np.testing.assert_array_equal(
                iterated_radon_centerpoint(pts, np.random.default_rng(300 + i)), want
            )

    @pytest.mark.parametrize("rounds", [0, 1, 2, 50])
    def test_centerpoint_rounds_cap(self, rounds):
        sets = [uniform_cube(200, 2, seed=14), uniform_cube(90, 3, seed=15)]
        many = iterated_radon_centerpoint_many(
            sets,
            [np.random.default_rng(400 + i) for i in range(len(sets))],
            rounds=rounds,
        )
        for i, pts in enumerate(sets):
            want = _centerpoint_oracle(pts, np.random.default_rng(400 + i), rounds)
            np.testing.assert_array_equal(many[i], want)
            np.testing.assert_array_equal(
                iterated_radon_centerpoint(
                    pts, np.random.default_rng(400 + i), rounds=rounds
                ),
                want,
            )
        if rounds == 0:
            np.testing.assert_array_equal(many[0], sets[0].mean(axis=0))

    def test_centerpoint_float32_points(self):
        pts = uniform_cube(70, 2, seed=16).astype(np.float32)
        got = iterated_radon_centerpoint(pts, np.random.default_rng(17))
        assert got.dtype == np.float64
        want = _centerpoint_oracle(pts, np.random.default_rng(17))
        np.testing.assert_array_equal(got, want)

    def test_prepare_samplers_matches_direct_construction(self):
        sets = [uniform_cube(80, 2, seed=8), uniform_cube(120, 2, seed=9)]
        batched = prepare_samplers(
            sets, [np.random.default_rng(200 + i) for i in range(len(sets))]
        )
        for i, pts in enumerate(sets):
            direct = MTTVSeparatorSampler(
                pts,
                seed=np.random.default_rng(200 + i),
                sample_size=default_sample_size(pts.shape[1]),
            )
            np.testing.assert_array_equal(
                batched[i].center_estimate, direct.center_estimate
            )
            # generators are in lockstep: the next draw agrees exactly
            a, b = batched[i].draw(), direct.draw()
            np.testing.assert_array_equal(
                a.side_of_points(pts), b.side_of_points(pts)
            )

    def test_batched_side_of_points_matches_sphere_calls(self):
        rng = np.random.default_rng(10)
        sets = [rng.normal(size=(n, 2)) for n in (30, 1, 17)]
        seps = [
            Sphere(center=rng.normal(size=2), radius=float(rng.uniform(0.5, 2.0)))
            for _ in sets
        ]
        got = batched_side_of_points(seps, sets)
        for sep, pts, side in zip(seps, sets, got):
            np.testing.assert_array_equal(side, sep.side_of_points(pts))

    def test_side_split_is_good_matches_quality(self):
        rng = np.random.default_rng(11)
        delta = default_delta(2, 0.02)
        for n in (2, 3, 10, 101):
            pts = rng.normal(size=(n, 2))
            sphere = Sphere(center=pts.mean(axis=0), radius=float(np.median(
                np.linalg.norm(pts - pts.mean(axis=0), axis=1))) or 1.0)
            side = sphere.side_of_points(pts)
            rep = point_split(sphere, pts)
            want = (
                rep.interior_points > 0
                and rep.exterior_points > 0
                and rep.split_ratio <= delta
            )
            assert side_split_is_good(side, delta) == want
            assert is_good_point_split(sphere, pts, delta) == want
        assert not side_split_is_good(np.array([1], dtype=np.int8), delta)
        assert not side_split_is_good(np.array([1, 1], dtype=np.int8), delta)


# ---------------------------------------------------------------------------
# batched neighbor-list merge
# ---------------------------------------------------------------------------


def _partial_lists(rng, points, k):
    """Neighbor lists holding 0..k true-distance entries, ``-1``-padded."""
    n = points.shape[0]
    idx = np.full((n, k), -1, dtype=np.int64)
    sq = np.full((n, k), np.inf)
    for i in range(n):
        fill = rng.integers(0, k + 1)
        others = rng.choice(np.delete(np.arange(n), i), size=fill, replace=False)
        diff = points[others].astype(np.float64) - points[i].astype(np.float64)
        d = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((others, d))
        idx[i, :fill] = others[order]
        sq[i, :fill] = d[order]
    return idx, sq


class TestApplyCandidatePairsBatch:
    def _check(self, points, idx, sq, owners, cands, k):
        want_idx, want_sq = idx.copy(), sq.copy()
        want_changed = _apply_oracle(points, want_idx, want_sq, owners, cands, k)
        got_idx, got_sq = idx.copy(), sq.copy()
        changed = apply_candidate_pairs_batch(points, got_idx, got_sq, owners, cands, k)
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(got_sq, want_sq)
        assert changed == want_changed
        # the per-node entry point: owner rows gathered through ball rows
        owner_ids, ball_rows = np.unique(owners, return_inverse=True)
        got_idx, got_sq = idx.copy(), sq.copy()
        changed = apply_candidate_pairs(
            points, got_idx, got_sq, owner_ids, ball_rows, cands, k
        )
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(got_sq, want_sq)
        assert changed == want_changed
        return want_idx, want_sq, want_changed

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_sequential_apply(self, k):
        rng = np.random.default_rng(12)
        n = 120
        points = rng.normal(size=(n, 2))
        idx, sq = _partial_lists(rng, points, k)
        pairs = 400
        owners = rng.integers(0, n, size=pairs)
        cands = rng.integers(0, n, size=pairs)
        self._check(points, idx, sq, owners, cands, k)

    def test_float32_points(self):
        rng = np.random.default_rng(18)
        n, k = 90, 3
        points = (rng.normal(size=(n, 3)) * 1e3).astype(np.float32)
        idx, sq = _partial_lists(rng, points, k)
        owners = rng.integers(0, n, size=300)
        cands = rng.integers(0, n, size=300)
        self._check(points, idx, sq, owners, cands, k)

    def test_owners_with_only_padding(self):
        rng = np.random.default_rng(19)
        n, k = 40, 3
        points = rng.normal(size=(n, 2))
        idx, sq = _partial_lists(rng, points, k)
        empty = np.array([3, 7, 11])
        idx[empty] = -1
        sq[empty] = np.inf
        owners = np.concatenate([np.repeat(empty, 5), rng.integers(0, n, size=30)])
        cands = rng.integers(0, n, size=owners.shape[0])
        got_idx, _, _ = self._check(points, idx, sq, owners, cands, k)
        assert np.all(got_idx[empty, 0] >= 0)

    def test_same_pair_from_two_ball_rows(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        idx = np.array([[1, -1], [2, -1], [0, -1], [1, -1]])
        sq = np.array([[4.0, np.inf], [1.0, np.inf], [1.0, np.inf], [9.0, np.inf]])
        # ball rows 0 and 1 are both owned by point 0 and both reach point 2
        owner_ids = np.array([0, 0, 3])
        ball_rows = np.array([0, 1, 1, 2])
        cands = np.array([2, 2, 3, 2])
        want_idx, want_sq = idx.copy(), sq.copy()
        want_changed = _apply_oracle(
            points, want_idx, want_sq, owner_ids[ball_rows], cands, 2
        )
        changed = apply_candidate_pairs(points, idx, sq, owner_ids, ball_rows, cands, 2)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(sq, want_sq)
        assert changed == want_changed == 2
        np.testing.assert_array_equal(idx[0], [2, 1])
        np.testing.assert_array_equal(sq[0], [1.0, 4.0])

    def test_empty_and_self_pairs(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        idx = np.full((2, 1), -1, dtype=np.int64)
        sq = np.full((2, 1), np.inf)
        assert apply_candidate_pairs_batch(
            points, idx, sq, np.empty(0, np.int64), np.empty(0, np.int64), 1
        ) == 0
        # all self-pairs: nothing changes
        assert apply_candidate_pairs_batch(
            points, idx, sq, np.array([0, 1]), np.array([0, 1]), 1
        ) == 0
        assert np.all(idx == -1)

    def test_stale_distance_refreshed_counts_as_change(self):
        # same id, smaller distance: the ids stay, the list still changed
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        idx = np.array([[1], [0]])
        sq = np.array([[4.0], [1.0]])
        want_idx, want_sq = idx.copy(), sq.copy()
        assert _apply_oracle(points, want_idx, want_sq, np.array([0]), np.array([1]), 1) == 1
        assert apply_candidate_pairs_batch(points, idx, sq, np.array([0]), np.array([1]), 1) == 1
        np.testing.assert_array_equal(sq, want_sq)
        assert sq[0, 0] == 1.0

    def test_duplicate_candidates_keep_min_distance(self):
        points = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 0.0]])
        idx = np.full((3, 1), -1, dtype=np.int64)
        sq = np.full((3, 1), np.inf)
        owners = np.array([0, 0, 0])
        cands = np.array([1, 2, 1])
        changed = apply_candidate_pairs_batch(points, idx, sq, owners, cands, 1)
        assert changed == 1
        assert idx[0, 0] == 2 and sq[0, 0] == 1.0


# ---------------------------------------------------------------------------
# recursion guard + deep-tree regression
# ---------------------------------------------------------------------------


class TestRecursionGuard:
    def test_estimated_levels_bounds(self):
        assert estimated_tree_levels(10, 64, 0.9) == 1  # already a base case
        levels = estimated_tree_levels(10_000, 8, 0.75)
        assert 1 < levels < 10_000
        # each level must strip at least one point under the trivial bound
        assert estimated_tree_levels(500, 4, 1.5) == 500
        assert estimated_tree_levels(500, 4, 0.0) == 500

    def test_guard_noop_when_limit_suffices(self):
        before = sys.getrecursionlimit()
        with recursion_guard(1):
            assert sys.getrecursionlimit() == before
        assert sys.getrecursionlimit() == before

    def test_guard_raises_and_restores_limit(self):
        before = sys.getrecursionlimit()
        huge = (before // FRAMES_PER_LEVEL) * 50
        try:
            with recursion_guard(huge):
                assert sys.getrecursionlimit() > before
                assert sys.getrecursionlimit() >= huge * FRAMES_PER_LEVEL
            assert sys.getrecursionlimit() == before
        finally:
            sys.setrecursionlimit(before)

    def test_guard_restores_on_exception(self):
        before = sys.getrecursionlimit()
        with pytest.raises(RuntimeError):
            with recursion_guard(before * 2):
                raise RuntimeError("boom")
        assert sys.getrecursionlimit() == before


def _deep_chain(depth: int) -> PartitionNode:
    """A pathological left-spine chain ``depth`` edges tall."""
    sep = Sphere(center=np.zeros(2), radius=1.0)
    node = PartitionNode(indices=np.array([depth], dtype=np.int64))
    for i in reversed(range(depth)):
        leaf = PartitionNode(indices=np.array([i], dtype=np.int64))
        node = PartitionNode(
            indices=np.arange(i, depth + 1, dtype=np.int64),
            separator=sep,
            left=node,
            right=leaf,
        )
    return node


class TestDeepTreeRegression:
    def test_traversals_survive_trees_deeper_than_the_interpreter_limit(self):
        depth = sys.getrecursionlimit() * 3
        root = _deep_chain(depth)
        assert root.height() == depth
        assert sum(1 for _ in root.leaves()) == depth + 1
        nodes = list(root.nodes())
        assert len(nodes) == 2 * depth + 1
        # preorder: root first, leftmost leaf before any right sibling leaf
        assert nodes[0] is root
        assert nodes[1] is root.left

    def test_recursive_engine_runs_under_a_tight_interpreter_limit(self):
        """Degenerate deep-tree workload: duplicates + collinear points with
        a tiny base case force an unusually deep recursion; the guard must
        raise the interpreter limit for the run and restore it after."""
        base = with_duplicates(collinear(220, 2, seed=13), 0.6, seed=13)
        before = sys.getrecursionlimit()
        from repro.util.recursion import _stack_depth

        tight = _stack_depth() + 380  # far less than the recursion needs
        sys.setrecursionlimit(tight)
        try:
            res = parallel_nearest_neighborhood(
                base, 1, seed=17,
                config=FastDnCConfig(engine="recursive", base_case_size=4),
            )
            assert res.tree.height() >= 1
            assert sys.getrecursionlimit() == tight
        finally:
            sys.setrecursionlimit(before)
