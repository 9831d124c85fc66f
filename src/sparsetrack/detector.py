"""Unsupervised sparse-target detector.

Pipeline per scan: ROI filter -> voxel downsample -> range-adaptive DBSCAN
-> three validation layers (geometric, spatial jump, temporal consistency)
-> robust centroid -> global-frame measurement.

A `Detector` instance carries the cross-frame candidate history and must
process one scan stream sequentially.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import (Measurement, Scan, ValidationError, check_field_types,
                   to_global)


@dataclass(frozen=True)
class DetectorConfig:
    eps0: float = 0.60          # base DBSCAN radius (m)
    alpha: float = 0.0          # radius growth per meter beyond r_ref
    r_ref: float = 10.0         # range where adaptive growth starts (m)
    min_pts: int = 2            # DBSCAN core threshold (neighborhood incl. self)
    voxel: float = 0.05         # voxel edge length (m)
    h_min: float = 0.3          # minimum height above sensor (m)
    r_max: float = 40.0         # maximum range (m)
    r_excl: float = 0.5         # self-return exclusion cylinder radius (m)
    n_min: int = 1              # layer 1: minimum cluster point count
    n_max: int = 50             # layer 1: maximum cluster point count
    e_max: float = 1.5          # layer 1: maximum axis-aligned extent (m)
    tau_min: float = 0.5        # layer 2: hover displacement floor (m)
    v_max: float = 10.0         # layer 2: maximum plausible speed (m/s)
    d_new_source: float = 5.0   # layer 2: farther than this from all history = new source
    layer3_enabled: bool = False
    K: int = 6                  # layer 3: history window length
    M: int = 2                  # layer 3: required consistent entries
    d_cons: float = 1.0         # layer 3: spatial consistency radius (m)
    T_cons: float = 1.0         # layer 3: temporal consistency horizon (s)

    def __post_init__(self):
        check_field_types(self)
        if not self.alpha >= 0:
            raise ValidationError("alpha must be >= 0")
        if not self.n_min <= self.n_max:
            raise ValidationError("n_min must be <= n_max")
        if not 1 <= self.M <= self.K:
            raise ValidationError("M and K must satisfy 1 <= M <= K")
        for name in ("eps0", "min_pts", "voxel", "e_max", "tau_min", "d_cons",
                     "T_cons", "r_max", "r_excl", "d_new_source"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive")


# Named configurations from the real-world evaluation. Only eps0, min_pts,
# voxel, alpha and the layer-3 flag are specified per configuration; every
# other field is a repo default.
REAL_PRESETS: dict[str, DetectorConfig] = {
    "O": DetectorConfig(eps0=0.60, min_pts=2, voxel=0.05),
    "A": DetectorConfig(eps0=0.45, min_pts=3, voxel=0.04),
    "B": DetectorConfig(eps0=0.70, min_pts=2, voxel=0.06),
    "C": DetectorConfig(eps0=0.60, min_pts=2, voxel=0.04, alpha=0.02),
    "D": DetectorConfig(eps0=0.55, min_pts=2, voxel=0.05, alpha=0.02),
    "S1": DetectorConfig(eps0=0.80, min_pts=1, voxel=0.06, layer3_enabled=True),
    "S4": DetectorConfig(eps0=0.50, min_pts=4, voxel=0.04, layer3_enabled=True),
    "MR": DetectorConfig(eps0=0.80, min_pts=2, voxel=0.07, layer3_enabled=True),
}

# Simulation presets used by the tracking experiments. Voxel size is fixed
# by the simulated sensor; the tight layer-1 bounds reject merged two-target
# clusters during close proximity instead of emitting a midpoint measurement.
SIM_PRESETS: dict[str, DetectorConfig] = {
    "A_s": DetectorConfig(eps0=0.50, min_pts=3, voxel=0.05, e_max=0.6, n_max=5),
    "B_s": DetectorConfig(eps0=0.40, min_pts=2, voxel=0.05, e_max=0.6, n_max=5),
    "C_s": DetectorConfig(eps0=0.45, min_pts=3, voxel=0.05, e_max=0.6, n_max=5),
}

PRESETS: dict[str, DetectorConfig] = {**REAL_PRESETS, **SIM_PRESETS}


def get_preset(name: str) -> DetectorConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; known: {sorted(PRESETS)}") from None


class TemporalHistory:
    """The last K layer-1/2 survivors, oldest first: global positions
    `pos` (k, 3) and their scan times `t` (k,)."""

    def __init__(self, K: int):
        if K < 1:
            raise ValidationError("history length K must be >= 1")
        self.K = K
        self.pos = np.zeros((0, 3))
        self.t = np.zeros(0)

    def __len__(self) -> int:
        return len(self.t)

    def push(self, positions: np.ndarray, t: float) -> None:
        """Append one scan's candidates (n, 3) at time t; keep the last K."""
        if len(self.t) and t < self.t[-1]:
            raise ValidationError("history timestamps must be monotone")
        self.pos = np.concatenate([self.pos, positions])[-self.K:]
        self.t = np.concatenate([self.t, np.full(len(positions), t)])[-self.K:]

    def distances(self, points: np.ndarray) -> np.ndarray:
        """(N, k) distances from each row of `points` (N, 3) to each entry."""
        d = np.asarray(points, dtype=float)[:, None, :] - self.pos
        # (1, 3) @ (3, 1) is the dot product np.linalg.norm takes of one
        # vector, so distances round exactly as a per-entry norm would.
        return np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]

    def nearest(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each row of `points` (N, 3): the row of the spatially closest
        entry and its distance, or -1 and inf when the history is empty.

        Ties go to the earliest entry.
        """
        if not len(self.t):
            return np.full(len(points), -1), np.full(len(points), np.inf)
        d = self.distances(points)
        return d.argmin(axis=1), d.min(axis=1)


def roi_filter(scan: Scan, cfg: DetectorConfig) -> np.ndarray:
    """The scan's points (n, 3) above h_min, within r_max and outside the
    exclusion cylinder."""
    pts = scan.points
    r = np.linalg.norm(pts, axis=1)
    rho = np.linalg.norm(pts[:, :2], axis=1)
    keep = (pts[:, 2] >= cfg.h_min) & (r <= cfg.r_max) & (rho > cfg.r_excl)
    return pts[keep]


def voxel_downsample(points: np.ndarray, v: float) -> np.ndarray:
    """Replace each occupied voxel by the centroid of its points.

    Voxels are half-open cubes [i*v, (i+1)*v) anchored at the origin; output
    order follows first occurrence of each voxel in the input.
    """
    if v <= 0:
        raise ValidationError("voxel size must be positive")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        return pts
    idx = np.floor(pts / v).astype(np.int64)
    _, first, inverse = np.unique(idx, axis=0, return_index=True,
                                  return_inverse=True)
    n_vox = first.shape[0]
    sums = np.zeros((n_vox, 3))
    counts = np.zeros(n_vox)
    np.add.at(sums, inverse, pts)
    np.add.at(counts, inverse, 1.0)
    centroids = sums / counts[:, None]
    order = np.argsort(first, kind="stable")
    return centroids[order]


def adaptive_epsilon(r: float, cfg: DetectorConfig) -> float:
    """Range-adaptive DBSCAN radius: eps0 + alpha * max(r - r_ref, 0)."""
    if r < 0:
        raise ValidationError("range must be >= 0")
    return cfg.eps0 + cfg.alpha * max(r - cfg.r_ref, 0.0)


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> list[np.ndarray]:
    """Euclidean DBSCAN: one (k, 3) point array per cluster; noise points
    are discarded.

    Neighborhood counts include the query point, so min_pts=1 makes every
    point a core point. Border points join the first core cluster that
    reaches them in input order, making runs reproducible. Each point's
    neighbors within eps (boundary included) come from one k-d tree query,
    so memory is O(n + neighbor pairs) rather than O(n^2). Points inside a
    cluster keep their input order.
    """
    if eps <= 0 or min_pts < 1:
        raise ValidationError("dbscan requires eps > 0 and min_pts >= 1")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = pts.shape[0]
    if n == 0:
        return []
    nbrs = cKDTree(pts).query_ball_point(pts, eps, return_sorted=True)
    core = [len(nb) >= min_pts for nb in nbrs]
    labels = [-1] * n
    next_label = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = next_label
        frontier = deque([i])
        while frontier:
            for k in nbrs[frontier.popleft()]:
                if labels[k] == -1:
                    labels[k] = next_label
                    if core[k]:
                        frontier.append(k)
        next_label += 1
    if next_label == 0:
        return []
    # Group points by label in one stable sort. Noise (-1) sorts first;
    # cluster k is grouped[b[k]:b[k + 1]].
    lab = np.array(labels)
    grouped = pts[np.argsort(lab, kind="stable")]
    b = np.cumsum(np.bincount(lab + 1, minlength=next_label + 1)).tolist()
    return [grouped[b[k]:b[k + 1]] for k in range(next_label)]


def validate_geometric(points: np.ndarray, cfg: DetectorConfig) -> bool:
    """Layer 1: point-count band and strict axis-aligned extent bound."""
    n = len(points)
    # a single point has extent 0; most clusters of a sparse scan are one
    return cfg.n_min <= n <= cfg.n_max and (
        n == 1 or float((points.max(axis=0) - points.min(axis=0)).max())
        < cfg.e_max)


def validate_jump(z_now: np.ndarray, z_prev: np.ndarray, dt: float,
                  cfg: DetectorConfig) -> bool:
    """Layer 2: reject displacements beyond max(tau_min, v_max * dt)."""
    if dt <= 0:
        raise ValidationError("dt must be positive when a previous candidate exists")
    bound = max(cfg.tau_min, cfg.v_max * dt)
    return float(np.linalg.norm(np.asarray(z_now) - np.asarray(z_prev))) <= bound


def validate_temporal(z: np.ndarray, t: float, hist: TemporalHistory,
                      cfg: DetectorConfig) -> bool:
    """Layer 3: at least M of the last K candidates near z and recent."""
    near = hist.distances(np.reshape(z, (1, 3)))[0] < cfg.d_cons
    return int(np.count_nonzero(near & (t - hist.t < cfg.T_cons))) >= cfg.M


def estimate_centroid(points: np.ndarray) -> np.ndarray:
    """Component-wise median for 3 or more points, arithmetic mean otherwise."""
    if len(points) >= 3:
        return np.median(points, axis=0)
    return points.mean(axis=0)


class Detector:
    """Stateful per-stream detector composing all pipeline stages."""

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.history = TemporalHistory(cfg.K)
        self._last_t: float | None = None

    def reset(self) -> None:
        self.history = TemporalHistory(self.cfg.K)
        self._last_t = None

    def detect(self, scan: Scan) -> list[Measurement]:
        cfg = self.cfg
        if self._last_t is not None and scan.t <= self._last_t:
            raise ValidationError("scan timestamps must be strictly increasing")
        self._last_t = scan.t

        roi = roi_filter(scan, cfg)
        if len(roi) == 0:
            return []
        down = voxel_downsample(roi, cfg.voxel)
        r = float(np.linalg.norm(down, axis=1).mean())
        eps = adaptive_epsilon(r, cfg)
        clusters = dbscan(down, eps, cfg.min_pts)

        kept = [c for c in clusters if validate_geometric(c, cfg)]
        if not kept:
            return []
        # Centroids of all survivors in one (N, 3) array: a 1-point
        # cluster's point as it is, estimate_centroid for larger ones.
        local = np.concatenate([c[:1] for c in kept])
        for i, c in enumerate(kept):
            if len(c) > 1:
                local[i] = estimate_centroid(c)
        zs = to_global(local, scan.pose)

        hist = self.history
        idx, dist = hist.nearest(zs)
        measurements: list[Measurement] = []
        accepted: list[int] = []
        for i, (z, j, d) in enumerate(zip(zs, idx.tolist(), dist.tolist())):
            # Layer 2 is checked against the spatially nearest prior
            # candidate; candidates farther than d_new_source from
            # everything in the window are new sources, not implausible
            # jumps.
            if j >= 0 and d <= cfg.d_new_source and not validate_jump(
                    z, hist.pos[j], scan.t - hist.t[j], cfg):
                continue
            accepted.append(i)  # layer-3 rejects stay future candidates
            if cfg.layer3_enabled and not validate_temporal(z, scan.t, hist,
                                                            cfg):
                continue
            measurements.append(Measurement(t=scan.t, position=z,
                                            support=len(kept[i])))
        # History gets this frame's layer-1/2 survivors only after the whole
        # frame is processed, so same-frame candidates do not interact.
        hist.push(zs[accepted], scan.t)
        return measurements
