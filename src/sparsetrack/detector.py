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

from .core import Measurement, Scan, ValidationError, to_global


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
        if self.eps0 <= 0:
            raise ValidationError("eps0 must be positive")
        if self.min_pts < 1:
            raise ValidationError("min_pts must be >= 1")
        if self.alpha < 0:
            raise ValidationError("alpha must be >= 0")
        if self.n_min > self.n_max:
            raise ValidationError("n_min must be <= n_max")
        if self.M > self.K:
            raise ValidationError("M must be <= K")
        for name in ("voxel", "e_max", "tau_min", "d_cons", "T_cons",
                     "r_max", "r_excl", "d_new_source"):
            if getattr(self, name) <= 0:
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


@dataclass(frozen=True)
class Cluster:
    """A DBSCAN cluster in the local frame."""

    points: np.ndarray          # (n, 3)
    extents: tuple[float, float, float]
    count: int

    @staticmethod
    def from_points(points: np.ndarray) -> "Cluster":
        pts = np.asarray(points, dtype=float)
        ext = pts.max(axis=0) - pts.min(axis=0)
        return Cluster(points=pts, extents=tuple(float(e) for e in ext),
                       count=pts.shape[0])


class TemporalHistory:
    """Ring buffer of the last K accepted candidates (global position, time)."""

    def __init__(self, K: int):
        self._buf: deque[tuple[np.ndarray, float]] = deque(maxlen=K)
        self._pos: np.ndarray | None = None   # stacked positions, built lazily

    def __len__(self) -> int:
        return len(self._buf)

    def entries(self) -> list[tuple[np.ndarray, float]]:
        return list(self._buf)

    def push(self, position: np.ndarray, t: float) -> None:
        if self._buf and t < self._buf[-1][1]:
            raise ValidationError("history timestamps must be monotone")
        self._buf.append((np.asarray(position, dtype=float), t))
        self._pos = None

    def nearest(self, position: np.ndarray) -> tuple[np.ndarray, float] | None:
        """Entry spatially closest to `position`, or None when empty.

        Ties go to the earliest entry.
        """
        if not self._buf:
            return None
        if self._pos is None:
            self._pos = np.array([e[0] for e in self._buf])
        d = np.asarray(position, dtype=float) - self._pos
        # (1, 3) @ (3, 1) is the dot product np.linalg.norm takes of one
        # vector, so distances round exactly as a per-entry norm would.
        dists = np.sqrt(d[:, None, :] @ d[:, :, None])
        return self._buf[int(np.argmin(dists))]


def roi_filter(scan: Scan, cfg: DetectorConfig) -> Scan:
    """Keep points above h_min, within r_max, outside the exclusion cylinder."""
    pts = scan.points
    if len(scan) == 0:
        return scan
    r = np.linalg.norm(pts, axis=1)
    rho = np.linalg.norm(pts[:, :2], axis=1)
    keep = (pts[:, 2] >= cfg.h_min) & (r <= cfg.r_max) & (rho > cfg.r_excl)
    return Scan(t=scan.t, points=pts[keep], pose=scan.pose)


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


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> list[Cluster]:
    """Euclidean DBSCAN; noise points are discarded.

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
    # cluster k is grouped[bounds[k]:bounds[k + 1]].
    lab = np.array(labels)
    grouped = pts[np.argsort(lab, kind="stable")]
    bounds = np.cumsum(np.bincount(lab + 1, minlength=next_label + 1))
    ext = (np.maximum.reduceat(grouped, bounds[:-1])
           - np.minimum.reduceat(grouped, bounds[:-1]))
    b = bounds.tolist()
    return [Cluster(points=grouped[b[k]:b[k + 1]], extents=tuple(e),
                    count=b[k + 1] - b[k])
            for k, e in enumerate(ext.tolist())]


def validate_geometric(c: Cluster, cfg: DetectorConfig) -> bool:
    """Layer 1: point-count band and strict extent bound."""
    return (cfg.n_min <= c.count <= cfg.n_max
            and max(c.extents) < cfg.e_max)


def validate_jump(z_now: np.ndarray, z_prev: np.ndarray | None, dt: float,
                  cfg: DetectorConfig) -> bool:
    """Layer 2: reject displacements beyond max(tau_min, v_max * dt)."""
    if z_prev is None:
        return True
    if dt <= 0:
        raise ValidationError("dt must be positive when a previous candidate exists")
    bound = max(cfg.tau_min, cfg.v_max * dt)
    return float(np.linalg.norm(np.asarray(z_now) - np.asarray(z_prev))) <= bound


def validate_temporal(z: np.ndarray, t: float, hist: TemporalHistory,
                      cfg: DetectorConfig) -> bool:
    """Layer 3: at least M of the last K candidates near z and recent."""
    z = np.asarray(z, dtype=float)
    hits = 0
    for pos, tp in hist.entries():
        if (np.linalg.norm(z - pos) < cfg.d_cons) and (t - tp < cfg.T_cons):
            hits += 1
    return hits >= cfg.M


def estimate_centroid(c: Cluster) -> np.ndarray:
    """Component-wise median for count >= 3, arithmetic mean otherwise."""
    if c.count >= 3:
        return np.median(c.points, axis=0)
    return c.points.mean(axis=0)


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
        down = voxel_downsample(roi.points, cfg.voxel)
        r = float(np.linalg.norm(down, axis=1).mean())
        eps = adaptive_epsilon(r, cfg)
        clusters = dbscan(down, eps, cfg.min_pts)

        measurements: list[Measurement] = []
        accepted: list[np.ndarray] = []
        for c in clusters:
            if not validate_geometric(c, cfg):
                continue
            z_local = estimate_centroid(c)
            z = to_global(z_local, scan.pose)
            # Layer 2 is checked against the spatially nearest prior
            # candidate; candidates far from everything in the window are
            # treated as new sources rather than implausible jumps.
            prev = self.history.nearest(z)
            if prev is not None:
                dist = float(np.linalg.norm(z - prev[0]))
                if dist <= cfg.d_new_source:
                    dt = scan.t - prev[1]
                    if dt <= 0 or not validate_jump(z, prev[0], dt, cfg):
                        continue
            if cfg.layer3_enabled and not validate_temporal(z, scan.t,
                                                            self.history, cfg):
                accepted.append(z)  # still a candidate for future frames
                continue
            accepted.append(z)
            measurements.append(Measurement(t=scan.t, position=z, support=c.count))
        # History gets this frame's layer-1/2 survivors only after the whole
        # frame is processed, so same-frame candidates do not interact.
        for z in accepted:
            self.history.push(z, scan.t)
        return measurements
