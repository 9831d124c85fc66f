import dataclasses
import itertools
import time
import warnings
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from sparsetrack import detector as detector_module
from sparsetrack.core import Measurement, Pose, Scan, ValidationError
from sparsetrack.detector import (_SCALAR_MAX, Detector, DetectorConfig,
                                  PRESETS, REAL_PRESETS, SIM_PRESETS,
                                  TemporalHistory, _neighbours,
                                  adaptive_epsilon, dbscan, estimate_centroid,
                                  get_preset, roi_filter, validate_geometric,
                                  validate_jump, validate_temporal,
                                  voxel_downsample)


def scan_of(points, t=0.0):
    return Scan(t=t, points=np.asarray(points, dtype=float),
                pose=Pose.identity())


def partition(clusters):
    """Order-independent view of a clustering result."""
    return frozenset(
        frozenset(map(tuple, np.round(c, 9))) for c in clusters)


def reference_dbscan(points, eps, min_pts):
    """Independent DBSCAN oracle.

    Cores are points with >= min_pts neighbors within eps (self included);
    clusters are the connected components of the core-core adjacency graph
    (union-find); a border point joins the adjacent cluster whose minimal
    core index is smallest, matching the deterministic seeding order.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    if n == 0:
        return []
    d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, axis=-1)
    adj = d2 <= eps * eps
    core = np.flatnonzero(adj.sum(axis=1) >= min_pts)
    parent = {int(i): int(i) for i in core}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in core:
        for j in core:
            if adj[i, j]:
                parent[find(int(i))] = find(int(j))
    comps = {}
    for i in core:
        comps.setdefault(find(int(i)), []).append(int(i))
    # seed order = minimal core index per component
    ordered = sorted(comps.values(), key=min)
    members = [set(c) for c in ordered]
    for p in range(n):
        if p in parent:
            continue
        choices = [k for k, comp in enumerate(ordered)
                   if any(adj[p, c] for c in comp)]
        if choices:
            members[min(choices, key=lambda k: min(ordered[k]))].add(p)
    return [pts[sorted(m)] for m in members]


def reference_roi(scan, cfg: DetectorConfig):
    """ROI with a `np.linalg.norm` per row for the range and the radius."""
    pts = scan.points
    with np.errstate(over="ignore"):
        r = np.linalg.norm(pts, axis=1)
        rho = np.linalg.norm(pts[:, :2], axis=1)
    keep = (pts[:, 2] >= cfg.h_min) & (r <= cfg.r_max) & (rho > cfg.r_excl)
    return pts[keep]


def reference_voxel(points, v):
    """Voxel centroids from `np.unique(axis=0)` and `np.add.at`, in order of
    each voxel's first point."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return pts
    idx = np.floor(pts / v).astype(np.int64)
    _, first, inverse = np.unique(idx, axis=0, return_index=True,
                                  return_inverse=True)
    sums = np.zeros((len(first), 3))
    counts = np.zeros(len(first))
    np.add.at(sums, inverse, pts)
    np.add.at(counts, inverse, 1.0)
    return (sums / counts[:, None])[np.argsort(first, kind="stable")]


def reference_centroid(points):
    """One cluster's centroid: its point as it is, the mean of two points,
    `np.median` of three or more."""
    if len(points) == 1:
        return points[0]
    if len(points) == 2:
        return points.mean(axis=0)
    return np.median(points, axis=0)


def reference_temporal(z, t, entries, cfg: DetectorConfig) -> bool:
    """Layer 3 as a loop over (position, time) entries, oldest first."""
    hits = 0
    for pos, tp in entries:
        if (np.linalg.norm(z - pos) < cfg.d_cons) and (t - tp < cfg.T_cons):
            hits += 1
    return hits >= cfg.M


def reference_detect(cfg: DetectorConfig, scans):
    """The per-cluster `Detector.detect` loop the batched one replaced.

    ROI, voxel grid and centroids come from the references above. Every
    cluster gets its own extent check, and every layer-1 survivor its own
    centroid, `R @ z + t` transform and history lookup; the nearest entry is
    the first with the least per-entry `np.linalg.norm`. The history is a
    deque of the last K (position, time) entries. Returns, for each scan,
    its measurements and the history entries after it, plus a Counter of
    what perfbench counts and of how often a decision fell exactly on a
    boundary.
    """
    history = deque(maxlen=cfg.K)
    counts = Counter()
    frames = []
    for scan in scans:
        measurements: list[Measurement] = []
        roi = reference_roi(scan, cfg)
        counts["points_roi"] += len(roi)
        clusters = []
        if len(roi):
            down = reference_voxel(roi, cfg.voxel)
            counts["voxels"] += len(down)
            r = float(np.linalg.norm(down, axis=1).mean())
            clusters = dbscan(down, adaptive_epsilon(r, cfg), cfg.min_pts)
        counts["clusters"] += len(clusters)
        accepted: list[np.ndarray] = []
        for c in clusters:
            if not (cfg.n_min <= len(c) <= cfg.n_max
                    and np.ptp(c, axis=0).max() < cfg.e_max):
                counts["layer1_reject"] += 1
                continue
            z_local = reference_centroid(c)
            z = scan.pose.rotation @ z_local + scan.pose.translation
            prev = None
            if history:
                dists = [np.linalg.norm(z - pos) for pos, _ in history]
                counts["nearest_tie"] += dists.count(min(dists)) > 1
                prev = history[int(np.argmin(dists))]
            if prev is not None:
                dist = float(np.linalg.norm(z - prev[0]))
                counts["at_new_source"] += dist == cfg.d_new_source
                if dist <= cfg.d_new_source:
                    bound = max(cfg.tau_min, cfg.v_max * (scan.t - prev[1]))
                    counts["at_jump_bound"] += dist == bound
                    if not dist <= bound:
                        counts["layer2_reject"] += 1
                        continue
            if cfg.layer3_enabled and not reference_temporal(z, scan.t,
                                                             history, cfg):
                counts["layer3_reject"] += 1
                accepted.append(z)  # still a candidate for future frames
                continue
            accepted.append(z)
            measurements.append(Measurement(position=z, support=len(c)))
        history.extend((z, scan.t) for z in accepted)
        counts["measurements"] += len(measurements)
        frames.append((measurements, list(history)))
    return frames, counts


class TestRoiFilter:
    cfg = DetectorConfig()

    def test_below_hmin_removed(self):
        s = scan_of([[5.0, 0.0, self.cfg.h_min - 0.01]])
        assert len(roi_filter(s, self.cfg)) == 0

    def test_beyond_rmax_removed(self):
        s = scan_of([[self.cfg.r_max + 1.0, 0.0, 1.0]])
        assert len(roi_filter(s, self.cfg)) == 0

    def test_self_return_removed(self):
        s = scan_of([[self.cfg.r_excl / 2, 0.0, 1.0]])
        assert len(roi_filter(s, self.cfg)) == 0

    def test_valid_point_kept(self):
        s = scan_of([[5.0, 0.0, 1.0]])
        assert len(roi_filter(s, self.cfg)) == 1

    def test_overflowing_range_dropped_without_warning(self):
        # 1e200 squared is beyond the float range: the range is inf
        s = scan_of([[1e200, 0.0, 5.0], [5.0, 0.0, 1e200], [5.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept = roi_filter(s, DetectorConfig(r_max=1e300))
        assert kept.tolist() == [[5.0, 0.0, 1.0]]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_norm_reference(self, data):
        # r_max and r_excl are set to the norms of drawn points, so those
        # points sit exactly on the bounds and a range that rounds other
        # than np.linalg.norm's would flip them (random coordinates do in
        # about 1 case of 16); some points lie beyond 1e154, where the
        # squares overflow
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        near = rng.uniform(-20.0, 20.0, size=(data.draw(st.integers(1, 12)),
                                              3)).tolist()
        near += data.draw(st.lists(st.tuples(*[st.floats(-20.0, 20.0)] * 3),
                                   max_size=4))
        far = data.draw(st.lists(st.tuples(*[st.floats(-1e200, 1e200)] * 3),
                                 max_size=3))
        pts = np.array(near + far)
        pick = st.integers(0, len(near) - 1)
        cfg = DetectorConfig(
            h_min=-1e300,
            r_max=float(np.linalg.norm(pts[data.draw(pick)])) or 1.0,
            r_excl=float(np.linalg.norm(pts[data.draw(pick), :2])) or 1.0)
        s = scan_of(pts)
        assert roi_filter(s, cfg).tobytes() == reference_roi(s, cfg).tobytes()


class TestVoxelDownsample:
    def test_same_voxel_centroid(self):
        out = voxel_downsample(
            np.array([[0.01, 0, 0], [0.03, 0, 0]]), 0.05)
        assert out.shape == (1, 3)
        assert np.allclose(out[0], (0.02, 0, 0))

    def test_distinct_voxels_retained(self):
        out = voxel_downsample(
            np.array([[0.01, 0, 0], [0.09, 0, 0]]), 0.05)
        assert out.shape == (2, 3)

    def test_empty(self):
        assert voxel_downsample(np.zeros((0, 3)), 0.05).shape == (0, 3)

    def test_first_occurrence_order(self):
        pts = np.array([[0.51, 0, 0], [0.01, 0, 0], [0.53, 0, 0]])
        out = voxel_downsample(pts, 0.05)
        assert np.allclose(out[0], (0.52, 0, 0))
        assert np.allclose(out[1], (0.01, 0, 0))

    def test_invalid_voxel(self):
        # an infinite voxel would merge x = -4 and x = 1 into one centroid
        pts = np.array([[-4.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        for v in (0.0, -0.05, np.inf, np.nan):
            assert on_both_branches(voxel_downsample, pts, v) == [
                "ValidationError: voxel_downsample requires 0 < v < inf"] * 2

    def test_index_beyond_int64_rejected(self):
        # floor(p / v) of 2e21 or more used to wrap in the int64 cast and
        # merge these two points into one voxel
        with pytest.raises(ValidationError, match="int64"):
            voxel_downsample(np.array([[1e20, 1e20, 5.0],
                                       [-3e20, 7e19, 5.0]]), 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="int64"):
                voxel_downsample(np.array([[1e300, 0.0, 0.0]]), 1e-10)  # inf
            with pytest.raises(ValidationError, match="int64"):
                voxel_downsample(np.array([[2.0**63, 0.0, 0.0]]), 1.0)
        lowest = np.array([[-2.0**63, 0.0, 0.0], [-2.0**63, 0.5, 0.0]])
        assert voxel_downsample(lowest, 1.0).tolist() == [
            [-2.0**63, 0.25, 0.0]]

    @pytest.mark.parametrize("ranges, packed", [
        # (lowest, highest) voxel index per axis; the array branch packs
        # the index rows into one sort key while the spans' product is at
        # most 2**63, and falls back to np.lexsort above it
        ([(-2**63, -1), (0, 0), (0, 0)], True),
        ([(-2**63, 0), (0, 0), (0, 0)], False),
        ([(0, 0), (-2**63, -1), (0, 0)], True),
        ([(0, 0), (0, 0), (-2**63, -1)], True),
        ([(0, 0), (0, 0), (-2**63, 0)], False),
        ([(0, 2**32 - 1), (-2**30, 2**30 - 1), (0, 0)], True),
        ([(0, 2**32 - 1), (-2**30, 2**30), (0, 0)], False),
        ([(-3, 2**20 - 4), (5, 2**21 + 4), (-2**21, 2**21 - 1)], True),
        ([(-3, 2**20 - 4), (5, 2**21 + 5), (-2**21, 2**21 - 1)], False)])
    def test_sort_key_packed_while_the_spans_fit(self, monkeypatch, ranges,
                                                 packed):
        rng = np.random.default_rng(7)
        # each axis's extremes, its middle and -1, 0 where they lie inside
        values = [sorted({lo, hi, (lo + hi) // 2} | ({-1, 0} & {lo, hi}))
                  for lo, hi in ranges]
        idx = np.array([[rng.choice(col) for col in values]
                        for _ in range(3 * _SCALAR_MAX)], dtype=float)
        for k, (lo, hi) in enumerate(ranges):
            idx[:2, k] = lo, hi
        # index k + frac floors to k; rows repeat, so voxels merge
        pts = idx + rng.choice([0.25, 0.5], size=idx.shape)
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort",
                            lambda keys: calls.append(1) or lexsort(keys))
        got = voxel_downsample(pts, 1.0)
        assert len(calls) == (not packed)
        assert got.tobytes() == reference_voxel(pts, 1.0).tobytes()
        assert len(got) < len(pts)
        assert_same_array(*on_both_branches(voxel_downsample, pts, 1.0))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        # Coordinates are quarter-voxel steps (on voxel faces every fourth
        # step when v is dyadic), signed zeros, subnormals or random, and
        # rows may repeat. Or the points are spread one per voxel, with
        # zeros made -0.0, for the path that returns each point as it is.
        v = data.draw(st.sampled_from((0.05, 0.25, 1.0, 0.3)))
        coord = (st.integers(-12, 12).map(lambda k: k * v / 4)
                 | st.sampled_from((0.0, -0.0, 5e-324, -5e-324))
                 | st.floats(-3.0, 3.0))
        rows = data.draw(st.lists(st.tuples(coord, coord, coord),
                                  max_size=30))
        pts = np.array(rows, dtype=float).reshape(-1, 3)
        if len(pts) and data.draw(st.booleans()):
            pts = np.vstack([pts, pts[data.draw(st.lists(
                st.integers(0, len(pts) - 1), min_size=1, max_size=10))]])
        elif len(pts) and data.draw(st.booleans()):
            cells = data.draw(st.lists(st.tuples(*[st.integers(-5, 5)] * 3),
                                       min_size=1, max_size=len(pts),
                                       unique=True))
            pts = pts[:len(cells)] % v + np.array(cells, dtype=float) * v
            pts[pts == 0.0] = -0.0
        got, want = voxel_downsample(pts, v), reference_voxel(pts, v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestAdaptiveEpsilon:
    def test_clamped_below_rref(self):
        cfg = DetectorConfig(eps0=0.6, alpha=0.02, r_ref=10.0)
        assert adaptive_epsilon(5.0, cfg) == pytest.approx(0.6)

    def test_linear_growth(self):
        cfg = DetectorConfig(eps0=0.60, alpha=0.02, r_ref=10.0)
        assert adaptive_epsilon(15.0, cfg) == pytest.approx(0.70)

    def test_alpha_zero_constant(self):
        cfg = DetectorConfig(eps0=0.45, alpha=0.0)
        for r in (0.0, 10.0, 40.0):
            assert adaptive_epsilon(r, cfg) == pytest.approx(0.45)

    def test_negative_range_rejected(self):
        with pytest.raises(ValidationError):
            adaptive_epsilon(-1.0, DetectorConfig())


@st.composite
def dbscan_clouds(draw):
    """(points, eps, min_pts) with exact distances, in shuffled row order.

    Coordinates are multiples of h = eps/2: a grid cloud whose pairs can be
    exactly eps apart or coincide; a chain of points eps apart, which takes
    hooking several rounds once shuffled; and a point eps from two cores
    that each have k coincident leaves h beyond them, a border point of two
    clusters at min_pts 4 when k >= 2.
    """
    eps = draw(st.sampled_from([0.25, 0.5, 1.0]))
    cell = st.integers(-3, 3)
    grid = draw(st.lists(st.tuples(cell, cell, cell), max_size=40))
    chain = [(2 * x, 40, 0) for x in range(draw(st.integers(0, 30)))]
    bridge = []
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        bridge = [(x, -40, 0) for x in [0, -2, 2] + [-3] * k + [3] * k]
    pts = np.array(grid + chain + bridge, dtype=float).reshape(-1, 3)
    order = draw(st.permutations(range(len(pts))))
    return pts[order] * (eps / 2), eps, draw(st.integers(1, 5))


@st.composite
def small_scans(draw):
    """(points, eps): up to `_SCALAR_MAX` points drawn with repeats from
    a pool of lattice points eps apart (so pairs lie exactly eps apart or
    coincide), free points and -0.0 coordinates, sometimes moved near 1e6,
    where a difference of two coordinates rounds."""
    eps = draw(st.sampled_from([0.25, 0.5, 0.6, 1.0, 0.1]))
    lattice = st.integers(-2, 2).map(lambda k: k * eps) | st.just(-0.0)
    coord = lattice | st.floats(-2.0, 2.0)
    pool = draw(st.lists(st.tuples(coord, coord, coord), min_size=1,
                         max_size=10))
    rows = draw(st.lists(st.sampled_from(pool), max_size=_SCALAR_MAX))
    pts = np.array(rows, dtype=float).reshape(-1, 3)
    offset = draw(st.sampled_from([0.0, 1e6, -1e6 + 0.1, 12.3]))
    return (pts + offset if offset else pts), eps


def assert_pairs_of_kd_tree(pts, eps):
    """The pairwise test finds the pairs `cKDTree.query_pairs` finds, each
    as a neighbour of both its points, in increasing order."""
    nbrs = _neighbours(pts.tolist(), eps)
    assert all(nb == sorted(set(nb)) and i not in nb
               for i, nb in enumerate(nbrs))
    got = [(i, j) for i, nb in enumerate(nbrs) for j in nb]
    want = cKDTree(pts).query_pairs(eps)
    assert sorted(got) == sorted({(i, j) for i, j in want}
                                 | {(j, i) for i, j in want})


class TestDbscan:
    @settings(max_examples=500, deadline=None)
    @given(small_scans())
    def test_pair_test_equals_kd_tree(self, scan):
        # up to its leaf size the tree is one leaf, which makes this test
        assert_pairs_of_kd_tree(*scan)

    @pytest.mark.parametrize("eps", [0.25, 0.6, 1.0, 0.1])
    def test_pair_test_equals_kd_tree_on_the_eps_sphere(self, eps):
        # a centre and points eps from it along the directions (a, b, c),
        # |a|, |b|, |c| <= 3: their squared distances round to either side
        # of eps * eps, and summed in another order some round differently
        dirs = np.array([d for d in itertools.product(range(-3, 4), repeat=3)
                         if any(d)], dtype=float)
        sphere = eps * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        k = _SCALAR_MAX - 1
        for offset in (0.0, 12.3, 1e6):
            for start in range(0, len(sphere), k):
                pts = np.vstack([np.zeros((1, 3)), sphere[start:start + k]])
                assert_pairs_of_kd_tree(pts + offset, eps)

    @pytest.mark.parametrize("n", [_SCALAR_MAX - 1, _SCALAR_MAX,
                                   _SCALAR_MAX + 1])
    def test_matches_reference_across_the_pairwise_limit(self, n):
        # the labels come from the scalar branch up to the limit and from
        # the k-d tree's pairs above it
        rng = np.random.default_rng(n)
        for k in range(40):
            eps = float(rng.choice([0.25, 0.5, 0.6]))
            pts = (rng.integers(-2, 3, size=(n, 3)) * eps if k % 2
                   else rng.uniform(-1.5, 1.5, size=(n, 3)))
            for mp in (1, 2, 3, 5):
                got = dbscan(pts, eps, mp)
                want = reference_dbscan(pts, eps, mp)
                assert got.sizes.tolist() == [len(w) for w in want]
                assert got.rows.tobytes() == (
                    np.vstack(want) if want else np.zeros((0, 3))).tobytes()

    @pytest.mark.parametrize("n", [1, _SCALAR_MAX + 1])
    def test_non_finite_points_rejected(self, n):
        # one ValidationError on both sides of the k-d tree's size limit
        pts = np.zeros((n, 3))
        for bad in (np.nan, np.inf):
            pts[-1, 0] = bad
            with pytest.raises(ValidationError,
                               match="points must hold finite numbers"):
                dbscan(pts, eps=0.5, min_pts=1)

    def test_density_chaining(self):
        pts = np.array([[0, 0, 0], [0.3, 0, 0], [0.6, 0, 0]])
        clusters = dbscan(pts, eps=0.4, min_pts=2)
        assert len(clusters) == 1 and len(clusters[0]) == 3

    def test_isolated_cores_minpts1(self):
        pts = np.array([[0, 0, 0], [10.0, 0, 0]])
        clusters = dbscan(pts, eps=0.5, min_pts=1)
        assert len(clusters) == 2
        assert all(len(c) == 1 for c in clusters)

    def test_all_noise_minpts2(self):
        pts = np.array([[0, 0, 0], [10.0, 0, 0]])
        assert dbscan(pts, eps=0.5, min_pts=2) == []

    def test_matches_reference_on_random_clouds(self):
        rng = np.random.default_rng(42)
        for k in range(120):
            n = int(rng.integers(0, 80))
            if k % 2:
                # integer grid at spacing eps, with repeated points: many
                # pairs lie exactly eps apart (dyadic spacings) or coincide
                eps = float(rng.choice([0.25, 0.5, 0.3, 0.7]))
                pts = rng.integers(-3, 4, size=(n, 3)) * eps
            else:
                eps = float(rng.uniform(0.3, 1.2))
                pts = rng.uniform(-3, 3, size=(n, 3))
            mp = int(rng.integers(1, 5))
            got = dbscan(pts, eps, mp)
            want = reference_dbscan(pts, eps, mp)
            # same clusters in the same order, points in the same order
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            # each cluster is its block of the clustered rows
            assert got.sizes.tolist() == [len(w) for w in want]
            assert np.array_equal(got.rows, np.zeros((0, 3)) if not want
                                  else np.vstack(want))

    def test_exact_eps_boundary_included(self):
        pts = np.array([[0, 0, 0], [0.5, 0, 0], [0.5, 0, 0], [1.0, 0, 0]])
        clusters = dbscan(pts, eps=0.5, min_pts=4)
        assert [len(c) for c in clusters] == [4]

    def test_large_scan_is_fast(self):
        # 10^4 points; a dense n x n distance matrix would need ~2.4 GB
        pts = np.random.default_rng(5).uniform(-10, 10, size=(10_000, 3))
        t0 = time.perf_counter()
        clusters = dbscan(pts, eps=0.6, min_pts=1)
        assert time.perf_counter() - t0 < 2.0
        # min_pts=1: every point is a core point of exactly one cluster
        out = np.vstack(clusters)
        assert np.array_equal(np.unique(out, axis=0), np.unique(pts, axis=0))
        assert len(out) == len(pts)

    def test_partition_permutation_invariant(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2, 2, size=(50, 3))
        base = partition(dbscan(pts, 0.8, 2))
        for _ in range(5):
            perm = rng.permutation(len(pts))
            assert partition(dbscan(pts[perm], 0.8, 2)) == base

    @settings(max_examples=300, deadline=None)
    @given(dbscan_clouds())
    def test_matches_reference_exactly(self, cloud):
        pts, eps, mp = cloud
        got = dbscan(pts, eps, mp)
        want = reference_dbscan(pts, eps, mp)
        assert got.sizes.tolist() == [len(w) for w in want]
        want_rows = np.vstack(want) if want else np.zeros((0, 3))
        assert got.rows.shape == want_rows.shape
        assert got.rows.tobytes() == want_rows.tobytes()

    def test_border_between_two_clusters_joins_the_first(self):
        # row 0 is eps from the cores at rows 1 and 4, whose two leaves each
        # lie eps/2 beyond them; at min_pts 4 row 0 is a border point
        pts = np.array([[0, 0, 0], [2, 0, 0], [3, 0, 0], [3, 0, 0],
                        [-2, 0, 0], [-3, 0, 0], [-3, 0, 0]]) * 0.25
        clusters = dbscan(pts, 0.5, 4)
        assert clusters.sizes.tolist() == [4, 3]
        assert np.array_equal(clusters.rows, pts)

    @pytest.mark.parametrize("min_pts", [2, 300])
    def test_dense_plane_matches_reference(self, min_pts):
        # up to 441 neighbours a point; at min_pts 300 the 504 points near
        # the plane's edges are border points
        g = np.arange(40) * 0.05
        pts = np.array([(x, y, 2.0) for x in g[:30] for y in g])
        got = dbscan(pts, 0.6, min_pts)
        want = reference_dbscan(pts, 0.6, min_pts)
        assert got.sizes.tolist() == [len(w) for w in want]
        assert np.array_equal(got.rows, np.vstack(want))

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            dbscan(np.zeros((1, 3)), eps=0.0, min_pts=1)
        with pytest.raises(ValidationError):
            dbscan(np.zeros((1, 3)), eps=0.5, min_pts=0)
        # NaN passes an `eps <= 0` test; inf would ask for all n^2 pairs
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                dbscan(np.zeros((1, 3)), eps=eps, min_pts=1)


class TestTemporalHistory:
    @staticmethod
    def brute_nearest(hist, pos):
        """Index of the first entry with the least per-entry norm, and it."""
        dists = [np.linalg.norm(pos - e) for e in hist.pos]
        k = int(np.argmin(dists))
        return k, dists[k]

    def assert_matches_brute(self, hist, queries):
        idx, dist, table = hist.nearest(queries)
        assert idx.shape == dist.shape == (len(queries),)
        assert table.shape == (len(queries), len(hist))
        for q, k, d, row in zip(queries, idx, dist, table):
            want_k, want_d = self.brute_nearest(hist, q)
            assert k == want_k and d.tobytes() == want_d.tobytes()
            assert row.tobytes() == np.array(
                [np.linalg.norm(q - e) for e in hist.pos]).tobytes()

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            K = int(rng.integers(1, 8))
            hist = TemporalHistory(K)
            idx, dist, table = hist.nearest(np.zeros((2, 3)))
            assert idx.tolist() == [-1, -1] and dist.tolist() == [np.inf] * 2
            assert table.shape == (2, 0)
            t = 0.0
            for _ in range(int(rng.integers(1, 3 * K + 2))):
                t += float(rng.uniform(0.0, 0.2))
                # 0 to 3 rows a scan; evicts once full
                hist.push(rng.uniform(-5, 5, (rng.integers(0, 4), 3)), t)
                assert len(hist) <= K
                if len(hist):
                    self.assert_matches_brute(
                        hist, rng.uniform(-6, 6, size=(3, 3)))
        # offsets that permute one vector are equally far in exact
        # arithmetic, so the choice rests on how each distance rounds
        for _ in range(40):
            q, v = rng.uniform(-5, 5, size=(2, 3))
            hist = TemporalHistory(6)
            hist.push(np.array([q + v[list(perm)] for perm
                                in itertools.permutations(range(3))]), 0.0)
            self.assert_matches_brute(hist, np.stack([q, q + 1e-3 * v]))

    def test_tie_returns_earliest(self):
        hist = TemporalHistory(4)
        for x, t in ((9.0, 0.0), (1.0, 0.1), (-1.0, 0.2), (1.0, 0.3), (9.0, 0.4)):
            hist.push(np.array([[x, 0.0, 0.0]]), t)
        # (9, 0, 0) at t=0 was evicted; three entries are 1 m from the origin
        idx, dist, _ = hist.nearest(np.array([[0.0, 0.0, 0.0],
                                              [1.0, 0.0, 0.0]]))
        assert hist.t[idx].tolist() == [0.1, 0.1]
        assert dist.tolist() == [1.0, 0.0]

    def test_push_keeps_last_k_rows(self):
        hist = TemporalHistory(3)
        rows = np.arange(15.0).reshape(5, 3)
        hist.push(rows, 1.0)             # one push of more than K rows
        assert np.array_equal(hist.pos, rows[2:])
        assert hist.t.tolist() == [1.0, 1.0, 1.0]
        hist.push(rows[:1] + 100.0, 2.0)
        hist.push(np.zeros((0, 3)), 2.5)
        assert np.array_equal(hist.pos, np.vstack([rows[3:], rows[:1] + 100]))
        assert hist.t.tolist() == [1.0, 1.0, 2.0]
        hist.push(-rows[:2], 3.0)        # evicts the two oldest rows
        assert np.array_equal(hist.pos, np.vstack([rows[:1] + 100, -rows[:2]]))
        assert hist.t.tolist() == [2.0, 3.0, 3.0]
        with pytest.raises(ValidationError, match="monotone"):
            hist.push(rows[:1], 2.0)
        with pytest.raises(ValidationError):
            TemporalHistory(0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_push_rejects_non_finite_time(self, t):
        # a NaN would pass every later monotone test: 5.0, nan, 1.0
        hist = TemporalHistory(4)
        hist.push(np.zeros((1, 3)), 5.0)
        with pytest.raises(ValidationError, match="must be finite"):
            hist.push(np.ones((1, 3)), t)
        with pytest.raises(ValidationError, match="monotone"):
            hist.push(np.ones((1, 3)), 1.0)
        assert hist.t.tolist() == [5.0] and hist.pos.tolist() == [[0.0] * 3]

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (1, 4), (2, 1)])
    def test_points_not_n_by_3(self, shape):
        # a (2, 1) query would broadcast as two points (x, x, x)
        hist = TemporalHistory(4)
        with pytest.raises(ValidationError, match=r"expected an \(N, 3\)"):
            hist.push(np.zeros(shape), 1.0)
        assert len(hist) == 0
        with pytest.raises(ValidationError, match=r"expected an \(N, 3\)"):
            hist.nearest(np.zeros(shape))
        hist.push([], 1.0)  # an empty input is no rows
        hist.push([[1, 2, 3]], 2.0)
        assert hist.pos.tolist() == [[1.0, 2.0, 3.0]]
        assert hist.t.tolist() == [2.0]


class TestValidationLayers:
    cfg = DetectorConfig(n_min=2, n_max=10, e_max=1.0)

    def test_count_above_nmax_rejected(self):
        pts = np.zeros((self.cfg.n_max + 1, 3))
        assert not validate_geometric(pts, self.cfg)

    def test_extent_at_emax_rejected(self):
        pts = np.array([[0, 0, 0], [self.cfg.e_max, 0, 0]])
        assert not validate_geometric(pts, self.cfg)

    def test_minimal_cluster_accepted(self):
        pts = np.zeros((self.cfg.n_min, 3))
        assert validate_geometric(pts, self.cfg)

    def test_jump_bound(self):
        cfg = DetectorConfig(tau_min=0.5, v_max=10.0)
        assert validate_jump(0.9, 0.1, cfg)
        assert not validate_jump(1.1, 0.1, cfg)
        assert validate_jump(0.5, 0.01, cfg)   # the hover floor tau_min

    @staticmethod
    def temporal(z, t, hist, cfg):
        """Layer 3 for candidate z at time t, from its row of the history's
        distance table."""
        _, _, table = hist.nearest(np.reshape(z, (1, 3)))
        return validate_temporal(table[0], t - hist.t, cfg)

    def test_temporal_m_of_k(self):
        cfg = DetectorConfig(K=3, M=2, d_cons=1.0, T_cons=1.0)
        hist = TemporalHistory(cfg.K)
        hist.push(np.array([[0.1, 0, 0]]), 0.0)
        hist.push(np.array([[0.0, 0.1, 0]]), 0.1)
        assert self.temporal(np.zeros(3), 0.2, hist, cfg)

    def test_temporal_empty_history_rejects(self):
        cfg = DetectorConfig(K=3, M=2)
        assert not self.temporal(np.zeros(3), 0.0, TemporalHistory(cfg.K),
                                 cfg)

    def test_temporal_stale_entries_reject(self):
        cfg = DetectorConfig(K=3, M=2, d_cons=1.0, T_cons=1.0)
        hist = TemporalHistory(cfg.K)
        hist.push(np.zeros((1, 3)), 0.0)
        hist.push(np.zeros((1, 3)), 0.1)
        assert not self.temporal(np.zeros(3), 5.0, hist, cfg)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_temporal_matches_reference_loop(self, data):
        # Entries sit 0, d/2, d, -d or 3d/2 from z along an axis and are 0,
        # T/2, T or 3T/2 old, all exact on a dyadic grid, so the strict
        # bounds d_cons and T_cons are hit exactly; others sit at random
        # offsets.
        K = data.draw(st.integers(1, 6))
        cfg = DetectorConfig(
            K=K, M=data.draw(st.integers(1, K)),
            d_cons=data.draw(st.sampled_from((0.5, 1.0, 1.25))),
            T_cons=data.draw(st.sampled_from((0.25, 0.5, 1.0))))
        z = 0.5 * np.array(data.draw(st.tuples(*[st.integers(-8, 8)] * 3)),
                           dtype=float)
        t = 4.0
        entries = []
        for _ in range(data.draw(st.integers(0, 2 * K))):
            if data.draw(st.booleans()):
                off = np.zeros(3)
                off[data.draw(st.integers(0, 2))] = cfg.d_cons * data.draw(
                    st.sampled_from((0.0, 0.5, 1.0, 1.5, -1.0)))
            else:
                off = np.array(data.draw(st.tuples(
                    *[st.floats(-2.0, 2.0, allow_nan=False)] * 3)))
            age = cfg.T_cons * data.draw(st.sampled_from((0.0, 0.5, 1.0, 1.5)))
            entries.append((z + off, t - age))
        entries.sort(key=lambda e: e[1])
        hist = TemporalHistory(K)
        for tp, group in itertools.groupby(entries, key=lambda e: e[1]):
            hist.push(np.array([p for p, _ in group]), tp)
        want = reference_temporal(z, t, deque(entries, maxlen=K), cfg)
        got = self.temporal(z, t, hist, cfg)
        assert type(got) is bool and got == want


class TestCentroid:
    def test_median_robust(self):
        pts = np.array([[0, 0, 0], [1.0, 0, 0], [100.0, 0, 0]])
        c = estimate_centroid(pts, [3])
        assert c.shape == (1, 3)
        assert c[0, 0] == pytest.approx(1.0)

    def test_mean_branch(self):
        pts = np.array([[0, 0, 0], [2.0, 0, 0]])
        c = estimate_centroid(pts, [2])
        assert np.allclose(c[0], (1.0, 0, 0))

    def test_single_point(self):
        pts = np.array([[3.0, 1.0, 2.0]])
        assert np.allclose(estimate_centroid(pts, [1])[0], pts[0])

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_reference_per_cluster(self, data):
        # small integers tie often; signed zeros and subnormals test the
        # sign np.median gives a zero
        sizes = data.draw(st.lists(st.integers(1, 8), min_size=1,
                                   max_size=8))
        value = (st.integers(-3, 3).map(float)
                 | st.sampled_from((0.0, -0.0, 5e-324, -5e-324))
                 | st.floats(-1e3, 1e3))
        pts = np.array(data.draw(st.lists(
            st.tuples(value, value, value), min_size=sum(sizes),
            max_size=sum(sizes))), dtype=float)
        want = [reference_centroid(c)
                for c in np.split(pts, np.cumsum(sizes)[:-1])]
        got = estimate_centroid(pts, sizes)
        assert got.shape == (len(sizes), 3)
        assert got.tobytes() == np.array(want).tobytes()

    def test_every_size_one_to_eight(self):
        rng = np.random.default_rng(4)
        sizes = np.repeat(np.arange(1, 9), 5)
        rng.shuffle(sizes)
        pts = rng.integers(-2, 3, size=(sizes.sum(), 3)) * rng.choice(
            [1.0, 0.1, -0.0], size=(sizes.sum(), 3))
        want = [reference_centroid(c)
                for c in np.split(pts, np.cumsum(sizes)[:-1])]
        assert estimate_centroid(pts, sizes).tobytes() == np.array(
            want).tobytes()

    @pytest.mark.parametrize("singles, multi", [
        # (number of 1-point clusters, sizes of the others): all rows on
        # the scalar branch; the rest on the array branch, with few or many
        # multi-point rows, every cluster one point, none, or clusters at
        # the default n_max (111 multi-point rows)
        (6, [2, 3, 4]), (40, [2, 3, 4, 7]), (40, [2, 3, 4, 5, 6, 9]),
        (3 * _SCALAR_MAX, []), (0, [2, 3, 5, 8]), (40, [50, 49, 2, 3, 7])])
    def test_singletons_among_larger_clusters(self, singles, multi):
        # each cluster's centroid is the reference's, signed zeros included:
        # np.median's, but a 1-point cluster's -0.0 stays -0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sizes = rng.permutation([1] * singles + multi)
            pool = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, 0.1, 2.5])
            pts = rng.choice(pool, size=(sizes.sum(), 3))
            pts[rng.random(pts.shape) < 0.3] = rng.uniform(-5, 5)
            want = [reference_centroid(c)
                    for c in np.split(pts, np.cumsum(sizes)[:-1])]
            got = estimate_centroid(pts, sizes)
            assert got.tobytes() == np.array(want).tobytes()
            assert_same_array(*on_both_branches(estimate_centroid, pts,
                                                sizes))

    @pytest.mark.parametrize("n, sizes", [
        (3, [1, 1]), (40, [20, 21]), (3, [2, 2]), (3, [0, 3]),
        (40, [0, 40]), (3, [-1, 4]), (40, [-1, 41]), (3, [1.0, 2.0]),
        (40, [True] * 40), (3, [[1, 2]]), (3, 3), (3, []), (0, [1]),
        (40, np.array([2**64 - 1, 41], dtype=np.uint64)),
        (40, [2**62] * 4 + [40])])
    def test_sizes_must_cover_the_rows(self, n, sizes):
        # on both branches, whatever the row count
        pts = np.arange(3.0 * n).reshape(n, 3)
        got = on_both_branches(estimate_centroid, pts, sizes)
        assert got[0] == got[1]
        assert got[0].startswith("ValidationError: cluster sizes must")


class TestPresets:
    def test_real_preset_parameters(self):
        table = {"O": (0.60, 2, 0.05), "A": (0.45, 3, 0.04),
                 "B": (0.70, 2, 0.06), "C": (0.60, 2, 0.04),
                 "D": (0.55, 2, 0.05), "S1": (0.80, 1, 0.06),
                 "S4": (0.50, 4, 0.04), "MR": (0.80, 2, 0.07)}
        for name, (eps0, mp, vox) in table.items():
            cfg = get_preset(name)
            assert (cfg.eps0, cfg.min_pts, cfg.voxel) == (eps0, mp, vox)
        for name in ("S1", "S4", "MR"):
            assert get_preset(name).layer3_enabled
        assert get_preset("C").alpha > 0 and get_preset("D").alpha > 0

    def test_sim_preset_parameters(self):
        table = {"A_s": (0.50, 3), "B_s": (0.40, 2), "C_s": (0.45, 3)}
        for name, (eps0, mp) in table.items():
            cfg = get_preset(name)
            assert (cfg.eps0, cfg.min_pts) == (eps0, mp)

    def test_unknown_preset(self):
        for name in ("nope", ["O"], None, {"O": 1}):
            with pytest.raises(ValidationError, match="unknown preset"):
                get_preset(name)

    def test_registry_is_union(self):
        assert set(PRESETS) == set(REAL_PRESETS) | set(SIM_PRESETS)


class TestDetectorPipeline:
    def test_tight_blob_yields_centroid(self):
        # five points on distinct voxels, all within eps, above h_min
        blob = np.array([
            [5.00, 0.00, 2.00],
            [5.10, 0.00, 2.00],
            [5.00, 0.10, 2.00],
            [5.00, 0.00, 2.10],
            [5.10, 0.10, 2.10],
        ])
        det = Detector(DetectorConfig(min_pts=2))
        out = det.detect(scan_of(blob))
        assert len(out) == 1
        assert out[0].support == 5
        assert np.allclose(out[0].position, np.median(blob, axis=0), atol=1e-9)

    def test_ground_returns_filtered(self):
        ground = np.array([[3.0, 1.0, 0.05], [3.1, 1.0, 0.02]])
        det = Detector(DetectorConfig(min_pts=1))
        assert det.detect(scan_of(ground)) == []

    def test_layer3_cold_start(self):
        cfg = DetectorConfig(min_pts=1, layer3_enabled=True, K=6, M=2,
                             d_cons=1.0, T_cons=1.0)
        det = Detector(cfg)
        point = np.array([[4.0, 0.0, 2.0]])
        results = [det.detect(scan_of(point, t=0.1 * k)) for k in range(4)]
        assert results[0] == [] and results[1] == []
        assert len(results[cfg.M]) == 1  # frame M+1 (0-indexed M)

    def test_detection_count_monotone_in_min_pts(self):
        rng = np.random.default_rng(3)
        scans = []
        for k in range(30):
            target = np.array([6.0, 1.0, 3.0])
            n = int(rng.integers(1, 5))
            pts = target + 0.08 * rng.standard_normal((n, 3))
            clutter = rng.uniform(-10, 10, size=(2, 3)) + [0, 0, 12.0]
            scans.append(scan_of(np.vstack([pts, clutter]), t=0.1 * k))
        counts = []
        for mp in (1, 2, 3, 4):
            det = Detector(DetectorConfig(min_pts=mp, voxel=0.01))
            counts.append(sum(len(det.detect(s)) for s in scans))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_out_of_order_scan_rejected(self):
        det = Detector(DetectorConfig())
        det.detect(scan_of([[5.0, 0, 2.0]], t=1.0))
        with pytest.raises(ValidationError):
            det.detect(scan_of([[5.0, 0, 2.0]], t=0.5))

    def test_new_source_far_from_history_accepted(self):
        cfg = DetectorConfig(min_pts=1, tau_min=0.5, v_max=10.0)
        det = Detector(cfg)
        first = det.detect(scan_of([[5.0, 0.0, 2.0]], t=0.0))
        assert len(first) == 1
        # 20 m away: far beyond the jump bound but beyond d_new_source too
        second = det.detect(scan_of([[5.0, 0.0, 2.0], [25.0, 0.0, 2.0]], t=0.1))
        assert len(second) == 2

    def test_implausible_jump_rejected(self):
        cfg = DetectorConfig(min_pts=1, tau_min=0.5, v_max=10.0,
                             d_new_source=5.0)
        det = Detector(cfg)
        det.detect(scan_of([[5.0, 0.0, 2.0]], t=0.0))
        # 3 m in 0.1 s: inside d_new_source but above max(0.5, 1.0)
        out = det.detect(scan_of([[8.0, 0.0, 2.0]], t=0.1))
        assert out == []

    def test_measurements_checked_once_per_scan(self):
        # the detector builds its measurements without the per-object
        # check, so they must come out as that check would have them
        from sparsetrack.simulator import Scenario, run_scenario
        scans, _ = run_scenario(Scenario(kind="crossings", n_frames=200,
                                         seed=3))
        for cfg in (get_preset("A_s"), get_preset("S1")):
            det = Detector(cfg)
            out = [m for s in scans for m in det.detect(s)]
            assert len(out) > 50
            for m in out:
                assert type(m) is Measurement and type(m.support) is int
                assert m.position.dtype == np.float64
                assert m.position.shape == (3,)
                assert np.isfinite(m.position).all() and m.support >= 1
        for bad in (dict(position=np.array([np.nan, 0.0, 0.0]), support=1),
                    dict(position=np.zeros(2), support=1),
                    dict(position=np.zeros(3), support=0)):
            with pytest.raises(ValidationError):
                Measurement(**bad)

    def test_non_finite_candidate_rejected(self, monkeypatch):
        # a candidate that maps to a non-finite global point fails the scan
        # before it reaches the history, as a Measurement of it would
        monkeypatch.setattr(detector_module, "to_global",
                            lambda p, pose: np.where(p > 4.0, np.inf, p))
        det = Detector(DetectorConfig(min_pts=1))
        with pytest.raises(ValidationError,
                           match="points must hold finite numbers"):
            det.detect(scan_of([[1.0, 1.0, 2.0], [5.0, 0.0, 2.0]]))
        assert len(det.history) == 0

    def test_failed_scan_changes_nothing(self, monkeypatch):
        # a scan that raises neither moves the clock nor reaches the
        # history, so retrying it reports its own error again
        det = Detector(DetectorConfig(min_pts=1))
        det.detect(scan_of([[5.0, 0.0, 2.0]], t=0.0))
        pos, t = det.history.pos.copy(), det.history.t.copy()
        monkeypatch.setattr(detector_module, "to_global",
                            lambda p, pose: np.full_like(p, np.inf))
        bad = scan_of([[5.1, 0.0, 2.0]], t=0.1)
        for _ in range(2):
            with pytest.raises(ValidationError,
                               match="points must hold finite numbers"):
                det.detect(bad)
            assert np.array_equal(det.history.pos, pos)
            assert np.array_equal(det.history.t, t)
        monkeypatch.undo()
        assert len(det.detect(bad)) == 1

    def test_voxel_index_error_repeats_on_retry(self):
        # it used to advance the clock, so the retry reported "scan
        # timestamps must be strictly increasing" instead
        det = Detector(DetectorConfig(min_pts=1, voxel=1e-300))
        scan = scan_of([[5.0, 0.0, 2.0]], t=0.0)
        for _ in range(2):
            with pytest.raises(ValidationError, match="int64"):
                det.detect(scan)
            assert len(det.history) == 0

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            DetectorConfig(eps0=0.0)
        with pytest.raises(ValidationError):
            DetectorConfig(min_pts=0)
        with pytest.raises(ValidationError):
            DetectorConfig(n_min=5, n_max=2)
        with pytest.raises(ValidationError):
            DetectorConfig(M=4, K=3)
        with pytest.raises(ValidationError, match="must be finite"):
            DetectorConfig(alpha=1e308)


# Exact streams: anchors on a dyadic grid under one signed-permutation pose,
# so centroid distances are exact and can land on a decision boundary.
# Object offsets between scans have norms 0.5, 1.25, 2.5 and 5.0
# (= d_new_source); scan steps of 1/16, 1/8 and 1/4 s give jump bounds
# max(0.5, 10 dt) of 0.625, 1.25 and 2.5.
OFFSETS = ((0.5, 0.0), (0.75, 1.0), (1.5, 2.0), (3.0, 4.0))
DTS = (0.0625, 0.125, 0.25)
# z offsets of 1 to 4 points whose mean (2 points) or median is 0, so a
# cluster's centroid is its anchor
SHAPES = ([0.0], [-0.125, 0.125], [-0.125, 0.0, 0.125],
          [-0.1875, -0.0625, 0.0625, 0.1875])
PROPER_SIGNED_PERMUTATIONS = [
    R for R in (np.diag(s)[list(p)] for p in itertools.permutations(range(3))
                for s in itertools.product((1.0, -1.0), repeat=3))
    if np.linalg.det(R) > 0]


def object_points(anchor, size):
    return np.array([anchor]) + np.outer(SHAPES[size - 1], [0.0, 0.0, 1.0])


@st.composite
def streams(draw):
    """(cfg, scans): objects that appear fresh, follow an object of the last
    scan by an offset above, or sit midway between two of them."""
    cfg = DetectorConfig(eps0=0.3, voxel=0.05,
                         min_pts=draw(st.integers(1, 3)),
                         n_min=draw(st.integers(1, 2)),
                         layer3_enabled=draw(st.booleans()),
                         K=draw(st.integers(2, 6)), M=draw(st.integers(1, 2)))
    exact = draw(st.booleans())
    if exact:
        pose = Pose(0.5 * np.array(draw(st.tuples(*[st.integers(-8, 8)] * 3)),
                                   dtype=float),
                    draw(st.sampled_from(PROPER_SIGNED_PERMUTATIONS)))
    t, prev, scans = 0.0, [], []
    for _ in range(draw(st.integers(1, 6))):
        t += draw(st.sampled_from(DTS))
        anchors = []
        for _ in range(draw(st.integers(0, 5))):
            how = draw(st.sampled_from(("fresh", "follow", "midway")))
            if how == "follow" and prev:
                a = draw(st.sampled_from(prev))
                dx, dy = draw(st.sampled_from(OFFSETS))
                if draw(st.booleans()):
                    dx, dy = dy, dx
                sx, sy = draw(st.sampled_from(((1, 1), (1, -1), (-1, 1),
                                               (-1, -1))))
                anchors.append((a[0] + sx * dx, a[1] + sy * dy, a[2]))
            elif how == "midway" and len(prev) >= 2:
                a, b = draw(st.permutations(prev))[:2]
                anchors.append(tuple((p + q) / 2 for p, q in zip(a, b)))
            else:
                anchors.append((8.0 + 0.5 * draw(st.integers(-8, 8)),
                                0.5 * draw(st.integers(-8, 8)),
                                2.0 + 0.5 * draw(st.integers(0, 4))))
        pts = [object_points(a, draw(st.integers(1, 4))) for a in anchors]
        if not exact:
            # jitter the points too, so centroids round
            seed = draw(st.integers(0, 2**32 - 1))
            rng = np.random.default_rng(seed)
            pts = [p + rng.normal(scale=0.01, size=p.shape) for p in pts]
            pose = Pose(rng.normal(scale=20.0, size=3),
                        Rotation.random(random_state=seed).as_matrix())
        scans.append(Scan(t=t, points=np.vstack(pts) if pts
                          else np.zeros((0, 3)), pose=pose))
        prev = anchors
    return cfg, scans


def assert_detect_matches_reference(cfg, scans):
    """Run `Detector.detect` and `reference_detect`; return the latter's
    counts after requiring byte-equal output and history on every scan."""
    want, counts = reference_detect(cfg, scans)
    det = Detector(cfg)
    for scan, (want_ms, want_hist) in zip(scans, want):
        got = det.detect(scan)
        assert [(m.support, m.position.tobytes()) for m in got] == [
            (m.support, m.position.tobytes()) for m in want_ms]
        assert [(t, p.tobytes()) for p, t in zip(det.history.pos,
                                                  det.history.t)] == [
            (t, p.tobytes()) for p, t in want_hist]
    return counts


class TestBatchedDetect:
    """`Detector.detect` against the per-cluster `reference_detect`."""

    @settings(max_examples=200, deadline=None)
    @given(streams())
    def test_matches_reference(self, stream):
        assert_detect_matches_reference(*stream)

    def test_boundaries_reached(self):
        # One exact stream. Scan 2: C is 5 m (= d_new_source) from A, so
        # layer 2 checks and rejects it; D is 1.25 m from B, the jump bound
        # of a 1/8 s step, and passes. Scan 3: E is midway between A and D.
        cfg = DetectorConfig(eps0=0.3, voxel=0.05, min_pts=1)
        pose = Pose(np.array([1.0, -2.0, 0.5]), PROPER_SIGNED_PERMUTATIONS[5])
        frames = [[(8.0, 0.0, 2.0), (8.0, -4.0, 2.0)],          # A, B
                  [(11.0, 4.0, 2.0), (8.75, -3.0, 2.0)],        # C, D
                  [(8.375, -1.5, 2.0)]]                         # E
        scans = [Scan(t=0.125 * (k + 1), pose=pose, points=np.vstack(
            [object_points(a, 1 + k) for a in anchors]))
            for k, anchors in enumerate(frames)]
        counts = assert_detect_matches_reference(cfg, scans)
        assert counts["at_new_source"] == 1
        assert counts["at_jump_bound"] == 1
        assert counts["nearest_tie"] == 1
        assert counts["layer2_reject"] == 1
        assert counts["measurements"] == 4


SIZES = st.sampled_from([0, 1, _SCALAR_MAX - 1, _SCALAR_MAX, _SCALAR_MAX + 1])


def on_both_branches(fn, *args):
    """fn(*args) with every input on the scalar branch, then with every
    input on the array branch; an error is returned as its type and text."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for limit in (10**9, -1):
            mp.setattr(detector_module, "_SCALAR_MAX", limit)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    out.append(fn(*args))
            except ValidationError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
    return out


def assert_same_array(got, want):
    assert type(got) is type(want)
    if isinstance(got, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


class TestScalarBranch:
    """Each stage's scalar branch against its array branch, bit for bit, on
    inputs of the sizes around `_SCALAR_MAX` and on decision boundaries."""

    @settings(max_examples=300, deadline=None)
    @given(SIZES, st.data())
    def test_roi_filter(self, n, data):
        # points with z on h_min, or whose range or radius is r_max or
        # r_excl, and far points whose squares overflow
        coord = st.floats(-20.0, 20.0) | st.sampled_from((0.0, -0.0, 1.0))
        far = st.floats(-1e200, 1e200) | st.sampled_from((1e155, -1e160))
        rows = data.draw(st.lists(st.tuples(coord, coord, coord | far)
                                  | st.tuples(far, coord, coord),
                                  min_size=n, max_size=n))
        pts = np.array(rows, dtype=float).reshape(-1, 3)
        near = [p for p in pts if np.abs(p).max() <= 20.0]
        cfg = DetectorConfig()
        if near:
            pick = st.sampled_from(near)
            cfg = DetectorConfig(
                h_min=float(data.draw(pick)[2]),
                r_max=float(np.linalg.norm(data.draw(pick))) or 1.0,
                r_excl=float(np.linalg.norm(data.draw(pick)[:2])) or 1.0)
        assert_same_array(*on_both_branches(roi_filter, scan_of(pts), cfg))

    @settings(max_examples=400, deadline=None)
    @given(SIZES, st.data())
    def test_voxel_downsample(self, n, data):
        # coordinates on voxel faces, signed zeros, repeated rows, and
        # indices just inside and beyond the int64 range, inf and NaN
        v = data.draw(st.sampled_from((0.05, 0.25, 1.0, 0.3)))
        coord = (st.integers(-12, 12).map(lambda k: k * v / 4)
                 | st.sampled_from((0.0, -0.0, 5e-324))
                 | st.floats(-3.0, 3.0))
        edge = st.sampled_from((-2.0**63 * v, 2.0**63 * v, 1e300, -1e21,
                                np.inf, np.nan))
        pool = data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1,
                                  max_size=n or 1))
        rows = data.draw(st.lists(st.sampled_from(pool), min_size=n,
                                  max_size=n))
        if n and data.draw(st.integers(0, 4)) == 0:
            rows[data.draw(st.integers(0, n - 1))] = (
                data.draw(edge), 0.0, data.draw(coord))
        pts = np.array(rows, dtype=float).reshape(-1, 3)
        assert_same_array(*on_both_branches(voxel_downsample, pts, v))

    @settings(max_examples=400, deadline=None)
    @given(SIZES, st.data())
    def test_dbscan(self, n, data):
        # Lattice points eps apart or coincident, points on the eps sphere
        # around the origin, whose squared distances round to either side
        # of eps * eps, and free points, all sometimes moved far from the
        # origin, where differences round. Or the first rows are, apart
        # from the rest, a border point eps from two cores, each with two
        # leaves eps/2 beyond it.
        eps = data.draw(st.sampled_from((0.25, 0.5, 0.6, 1.0)))
        lattice = st.tuples(*[st.integers(-2, 2).map(lambda k: k * eps)] * 3)
        sphere = st.tuples(*[st.integers(-3, 3)] * 3).filter(any).map(
            lambda d: tuple(eps * np.array(d) / np.linalg.norm(d)))
        free = st.tuples(*[st.floats(-1.0, 1.0)] * 3)
        pool = [(0.0, 0.0, 0.0)] + data.draw(st.lists(
            lattice | sphere | free, max_size=n))
        rows = data.draw(st.lists(st.sampled_from(pool), min_size=n,
                                  max_size=n))
        if n >= 7 and data.draw(st.booleans()):
            rows[:7] = [(x * eps / 2, 10.0, 0.0)
                        for x in (0, 2, 3, 3, -2, -3, -3)]
        offset = data.draw(st.sampled_from((0.0, 12.3, 1e6)))
        pts = np.array(rows, dtype=float).reshape(-1, 3) + offset
        got, want = on_both_branches(dbscan, pts, eps,
                                     data.draw(st.integers(1, 5)))
        assert len(got) == len(want)
        assert_same_array(got.rows, want.rows)
        assert_same_array(got.sizes, want.sizes)

    @settings(max_examples=300, deadline=None)
    @given(SIZES.filter(bool), st.data())
    def test_validate_geometric(self, n, data):
        # e_max is one of the cluster's own extents, or a nearby value
        value = st.integers(-4, 4).map(lambda k: k / 8) | st.floats(-2.0, 2.0)
        pts = np.array(data.draw(st.lists(st.tuples(value, value, value),
                                          min_size=n, max_size=n)))
        extent = float(np.ptp(pts[:, data.draw(st.integers(0, 2))]))
        e_max = data.draw(st.sampled_from(
            (extent, float(np.nextafter(extent, 9.0)), 0.5))) or 0.5
        cfg = DetectorConfig(e_max=e_max, n_min=1, n_max=_SCALAR_MAX + 1)
        # one path for every size, against the extent np.ptp gives
        got = validate_geometric(pts, cfg)
        assert type(got) is bool and got == (np.ptp(pts, axis=0).max() < e_max)

    @settings(max_examples=400, deadline=None)
    @given(SIZES.filter(bool), st.data())
    def test_estimate_centroid(self, n, data):
        # odd and even clusters of small integers and signed zeros, whose
        # medians tie
        ends = sorted(data.draw(st.sets(st.integers(1, n))) | {n})
        sizes = np.diff([0, *ends]).tolist()
        value = (st.integers(-2, 2).map(float)
                 | st.sampled_from((0.0, -0.0, 5e-324)) | st.floats(-1e3, 1e3))
        pts = np.array(data.draw(st.lists(st.tuples(value, value, value),
                                          min_size=n, max_size=n)))
        for s in (sizes, np.array(sizes)):
            assert_same_array(*on_both_branches(estimate_centroid, pts, s))

    @pytest.mark.parametrize("n", [1, _SCALAR_MAX, _SCALAR_MAX + 1])
    def test_non_finite_points(self, n):
        # the same ValidationError from either branch of voxel_downsample
        # and of dbscan, for NaN and for inf
        for bad in (np.nan, np.inf, -np.inf):
            pts = np.zeros((n, 3))
            pts[-1, 1] = bad
            for fn, args, text in (
                    (voxel_downsample, (0.05,), "points must hold finite"),
                    (dbscan, (0.5, 1), "points must hold finite")):
                got = on_both_branches(fn, pts, *args)
                assert got[0] == got[1] and text in got[0]

    @pytest.mark.parametrize("shape", [
        (3, 2), (6,), (2, 2), (20, 2), (2, 3, 3), (_SCALAR_MAX + 1, 6)])
    def test_points_not_n_by_3(self, shape):
        # never reshaped into 3-D points: the same ValidationError from
        # either branch, a list of rows included
        pts = np.arange(float(np.prod(shape))).reshape(shape)
        for fn, args in ((voxel_downsample, (0.5,)), (dbscan, (0.5, 1)),
                         (estimate_centroid, ([1] * len(pts),))):
            for given_pts in (pts, pts.tolist()):
                got = on_both_branches(fn, given_pts, *args)
                assert got[0] == got[1] == (
                    f"ValidationError: expected an (N, 3) array, got shape "
                    f"{shape}")

    @pytest.mark.parametrize("kind, preset, clutter", [
        ("crossings", "A_s", 1.0), ("occlusion", "A_s", 1.0),
        ("moderate", "MR", 10.0)])
    def test_detect_streams(self, kind, preset, clutter):
        # a whole stream through Detector.detect on each branch gives the
        # same measurements and history after every scan; with clutter the
        # scans lie on both sides of the limit
        from sparsetrack.simulator import TRACKING_SENSOR, Scenario, run_scenario
        sensor = dataclasses.replace(TRACKING_SENSOR, clutter_rate=clutter)
        scans, _ = run_scenario(Scenario(kind=kind, seed=3, sensor=sensor,
                                         n_frames=None if clutter == 1.0
                                         else 300))

        def stream():
            det, out = Detector(get_preset(preset)), []
            for scan in scans:
                out.append(([(m.support, m.position.tobytes())
                             for m in det.detect(scan)],
                            det.history.pos.tobytes(),
                            det.history.t.tobytes()))
            return out

        scalar, array = on_both_branches(stream)
        assert scalar == array
        assert sum(len(ms) for ms, _, _ in scalar) > 100
        if clutter > 1.0:
            sizes = [len(s) for s in scans]
            assert min(sizes) <= _SCALAR_MAX < max(sizes)
