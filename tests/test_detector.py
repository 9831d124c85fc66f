import itertools
import time

import numpy as np
import pytest

from sparsetrack.core import Pose, Scan, ValidationError
from sparsetrack.detector import (Cluster, Detector, DetectorConfig, PRESETS,
                                  REAL_PRESETS, SIM_PRESETS, TemporalHistory,
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
        frozenset(map(tuple, np.round(c.points, 9))) for c in clusters)


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
    return [Cluster.from_points(pts[sorted(m)]) for m in members]


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
        with pytest.raises(ValidationError):
            voxel_downsample(np.zeros((1, 3)), 0.0)


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


class TestDbscan:
    def test_density_chaining(self):
        pts = np.array([[0, 0, 0], [0.3, 0, 0], [0.6, 0, 0]])
        clusters = dbscan(pts, eps=0.4, min_pts=2)
        assert len(clusters) == 1 and clusters[0].count == 3

    def test_isolated_cores_minpts1(self):
        pts = np.array([[0, 0, 0], [10.0, 0, 0]])
        clusters = dbscan(pts, eps=0.5, min_pts=1)
        assert len(clusters) == 2
        assert all(c.count == 1 for c in clusters)

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
                assert np.array_equal(g.points, w.points)
                assert (g.extents, g.count) == (w.extents, w.count)

    def test_exact_eps_boundary_included(self):
        pts = np.array([[0, 0, 0], [0.5, 0, 0], [0.5, 0, 0], [1.0, 0, 0]])
        clusters = dbscan(pts, eps=0.5, min_pts=4)
        assert [c.count for c in clusters] == [4]

    def test_large_scan_is_fast(self):
        # 10^4 points; a dense n x n distance matrix would need ~2.4 GB
        pts = np.random.default_rng(5).uniform(-10, 10, size=(10_000, 3))
        t0 = time.perf_counter()
        clusters = dbscan(pts, eps=0.6, min_pts=1)
        assert time.perf_counter() - t0 < 2.0
        # min_pts=1: every point is a core point of exactly one cluster
        out = np.vstack([c.points for c in clusters])
        assert np.array_equal(np.unique(out, axis=0), np.unique(pts, axis=0))
        assert len(out) == len(pts)

    def test_partition_permutation_invariant(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2, 2, size=(50, 3))
        base = partition(dbscan(pts, 0.8, 2))
        for _ in range(5):
            perm = rng.permutation(len(pts))
            assert partition(dbscan(pts[perm], 0.8, 2)) == base

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            dbscan(np.zeros((1, 3)), eps=0.0, min_pts=1)
        with pytest.raises(ValidationError):
            dbscan(np.zeros((1, 3)), eps=0.5, min_pts=0)


class TestTemporalHistory:
    @staticmethod
    def brute_nearest(hist, pos):
        entries = hist.entries()
        dists = [np.linalg.norm(pos - e[0]) for e in entries]
        return entries[int(np.argmin(dists))]

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            K = int(rng.integers(1, 8))
            hist = TemporalHistory(K)
            assert hist.nearest(np.zeros(3)) is None
            t = 0.0
            for _ in range(int(rng.integers(1, 3 * K + 2))):
                t += float(rng.uniform(0.0, 0.2))
                hist.push(rng.uniform(-5, 5, 3), t)  # evicts once full
                assert len(hist) <= K
                for q in rng.uniform(-6, 6, size=(3, 3)):
                    assert hist.nearest(q) is self.brute_nearest(hist, q)
        # offsets that permute one vector are equally far in exact
        # arithmetic, so the choice rests on how each distance rounds
        for _ in range(40):
            q, v = rng.uniform(-5, 5, size=(2, 3))
            hist = TemporalHistory(6)
            for perm in itertools.permutations(range(3)):
                hist.push(q + v[list(perm)], 0.0)
            assert hist.nearest(q) is self.brute_nearest(hist, q)

    def test_tie_returns_earliest(self):
        hist = TemporalHistory(4)
        for x, t in ((9.0, 0.0), (1.0, 0.1), (-1.0, 0.2), (1.0, 0.3), (9.0, 0.4)):
            hist.push(np.array([x, 0.0, 0.0]), t)
        # (9, 0, 0) at t=0 was evicted; three entries are 1 m from the origin
        assert hist.nearest(np.zeros(3))[1] == 0.1
        assert hist.nearest(np.array([1.0, 0.0, 0.0]))[1] == 0.1


class TestValidationLayers:
    cfg = DetectorConfig(n_min=2, n_max=10, e_max=1.0)

    def test_count_above_nmax_rejected(self):
        c = Cluster.from_points(np.zeros((self.cfg.n_max + 1, 3)))
        assert not validate_geometric(c, self.cfg)

    def test_extent_at_emax_rejected(self):
        pts = np.array([[0, 0, 0], [self.cfg.e_max, 0, 0]])
        assert not validate_geometric(Cluster.from_points(pts), self.cfg)

    def test_minimal_cluster_accepted(self):
        pts = np.zeros((self.cfg.n_min, 3))
        assert validate_geometric(Cluster.from_points(pts), self.cfg)

    def test_jump_no_history_accepts(self):
        assert validate_jump(np.zeros(3), None, 0.1, self.cfg)

    def test_jump_bound(self):
        cfg = DetectorConfig(tau_min=0.5, v_max=10.0)
        prev = np.zeros(3)
        assert validate_jump(np.array([0.9, 0, 0]), prev, 0.1, cfg)
        assert not validate_jump(np.array([1.1, 0, 0]), prev, 0.1, cfg)

    def test_temporal_m_of_k(self):
        cfg = DetectorConfig(K=3, M=2, d_cons=1.0, T_cons=1.0)
        hist = TemporalHistory(cfg.K)
        hist.push(np.array([0.1, 0, 0]), 0.0)
        hist.push(np.array([0.0, 0.1, 0]), 0.1)
        assert validate_temporal(np.zeros(3), 0.2, hist, cfg)

    def test_temporal_empty_history_rejects(self):
        cfg = DetectorConfig(K=3, M=2)
        assert not validate_temporal(np.zeros(3), 0.0,
                                     TemporalHistory(cfg.K), cfg)

    def test_temporal_stale_entries_reject(self):
        cfg = DetectorConfig(K=3, M=2, d_cons=1.0, T_cons=1.0)
        hist = TemporalHistory(cfg.K)
        hist.push(np.zeros(3), 0.0)
        hist.push(np.zeros(3), 0.1)
        assert not validate_temporal(np.zeros(3), 5.0, hist, cfg)


class TestCentroid:
    def test_median_robust(self):
        pts = np.array([[0, 0, 0], [1.0, 0, 0], [100.0, 0, 0]])
        c = estimate_centroid(Cluster.from_points(pts))
        assert c[0] == pytest.approx(1.0)

    def test_mean_branch(self):
        pts = np.array([[0, 0, 0], [2.0, 0, 0]])
        c = estimate_centroid(Cluster.from_points(pts))
        assert np.allclose(c, (1.0, 0, 0))

    def test_single_point(self):
        pts = np.array([[3.0, 1.0, 2.0]])
        assert np.allclose(estimate_centroid(Cluster.from_points(pts)), pts[0])


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
        with pytest.raises(ValidationError):
            get_preset("nope")

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

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            DetectorConfig(eps0=0.0)
        with pytest.raises(ValidationError):
            DetectorConfig(min_pts=0)
        with pytest.raises(ValidationError):
            DetectorConfig(n_min=5, n_max=2)
        with pytest.raises(ValidationError):
            DetectorConfig(M=4, K=3)
