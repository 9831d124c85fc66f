"""Unsupervised sparse-target detector.

Pipeline per scan: ROI filter -> voxel downsample -> range-adaptive DBSCAN
-> three validation layers (geometric, spatial jump, temporal consistency)
-> robust centroid -> global-frame measurement.

A `Detector` instance carries the cross-frame candidate history and must
process one scan stream sequentially.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import (Measurement, Scan, ValidationError, check_field_types,
                   to_global)


def adaptive_epsilon(r: float, cfg: DetectorConfig) -> float:
    """Range-adaptive DBSCAN radius: eps0 + alpha * max(r - r_ref, 0)."""
    if r < 0:
        raise ValidationError("range must be >= 0")
    return cfg.eps0 + cfg.alpha * max(r - cfg.r_ref, 0.0)


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
        # the radius grows with range, so it is largest at r_max
        if not np.isfinite(adaptive_epsilon(self.r_max, self)):
            raise ValidationError(
                "eps0 + alpha * (r_max - r_ref) must be finite")


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
    # Squares summed left to right round as np.linalg.norm's do. A square
    # beyond the float range is inf, a range above any r_max, and is no
    # cause for a warning.
    with np.errstate(over="ignore"):
        sq = pts * pts
        rho2 = sq[:, 0] + sq[:, 1]
        r = np.sqrt(rho2 + sq[:, 2])
    keep = (pts[:, 2] >= cfg.h_min) & (r <= cfg.r_max) & (
        np.sqrt(rho2) > cfg.r_excl)
    return pts[keep]


def voxel_downsample(points: np.ndarray, v: float) -> np.ndarray:
    """Replace each occupied voxel by the centroid of its points.

    Voxels are half-open cubes [i*v, (i+1)*v) anchored at the origin; output
    order follows first occurrence of each voxel in the input. A voxel index
    beyond the int64 range is a ValidationError.
    """
    if v <= 0:
        raise ValidationError("voxel size must be positive")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        return pts
    with np.errstate(over="ignore"):
        f = np.floor(pts / v)
    # floats in [-2**63, 2**63) convert exactly; others (inf too) would wrap
    if not ((f >= -2.0**63) & (f < 2.0**63)).all():
        raise ValidationError(
            f"voxel index out of the int64 range at voxel size {v}")
    idx = f.astype(np.int64)
    # Group equal index rows with one stable sort: a voxel's rows are
    # consecutive in `order`, its first input row first.
    order = np.lexsort(idx.T)
    grouped = idx[order]
    new = np.concatenate(([True], (grouped[1:] != grouped[:-1]).any(axis=1)))
    if new.all():
        return pts + 0.0  # each point is its voxel's sum, 0.0 + p, over 1
    label = np.empty(len(idx), dtype=np.intp)
    label[order] = np.cumsum(new) - 1
    # bincount adds each voxel's points to 0.0 in input order
    sums = np.stack([np.bincount(label, weights=c) for c in pts.T], axis=1)
    centroids = sums / np.bincount(label)[:, None]
    return centroids[np.argsort(order[new])]


class Clusters(list):
    """`dbscan`'s result: one (k, 3) point array per cluster, each a block
    of consecutive rows of `rows` (n, 3), the clustered points grouped by
    cluster; `sizes` (N,) holds the blocks' row counts."""

    def __init__(self, rows: np.ndarray, sizes: np.ndarray):
        ends = np.cumsum(sizes).tolist()
        super().__init__(rows[e - k:e] for k, e in zip(sizes.tolist(), ends))
        self.rows = rows
        self.sizes = sizes


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> Clusters:
    """Euclidean DBSCAN: a `Clusters` list of one (k, 3) point array per
    cluster; noise points are discarded.

    Neighborhood counts include the query point, so min_pts=1 makes every
    point a core point. Clusters come in order of their smallest core index,
    and a border point joins the first of them that reaches it, making runs
    reproducible. Points inside a cluster keep their input order. The pairs
    within eps (boundary included) come from one k-d tree query, so time and
    memory grow with n plus the number of pairs, which is n^2 / 2 when all
    points lie within eps of each other.
    """
    if not 0 < eps < np.inf or min_pts < 1:
        raise ValidationError("dbscan requires 0 < eps < inf and min_pts >= 1")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = pts.shape[0]
    pairs = cKDTree(pts).query_pairs(eps, output_type="ndarray")
    # each pair is one neighbour of both its points; the point itself is
    # the min_pts-th
    core = np.bincount(pairs.ravel(), minlength=n) >= min_pts - 1
    i, j = pairs[:, 0], pairs[:, 1]  # i < j
    ci, cj = core[i], core[j]
    # Core components by min-label hooking and pointer jumping (Shiloach and
    # Vishkin): every root hooks under the smallest root it shares an edge
    # with, then each edge is replaced by the edge between its ends' roots,
    # until no edge joins two roots. lab[p] <= p throughout, so a
    # component's root is its smallest core index.
    lab = np.arange(n)
    both = ci & cj
    lo, hi = i[both], j[both]
    while len(lo):
        np.minimum.at(lab, hi, lo)
        jumped = lab[lab]
        while np.count_nonzero(jumped != lab):
            lab, jumped = jumped, jumped[jumped]
        a, b = lab[lo], lab[hi]
        apart = a != b
        if not np.count_nonzero(apart):
            break
        lo, hi = np.minimum(a, b)[apart], np.maximum(a, b)[apart]
    # non-core points are noise, label n, unless they border a core point:
    # then they take the smallest root among their core neighbours
    lab[~core] = n
    border = ci != cj
    if np.count_nonzero(border):
        np.minimum.at(lab, np.where(ci, j, i)[border],
                      lab[np.where(ci, i, j)[border]])
    counts = np.bincount(lab, minlength=n + 1)
    order = lab.argsort(kind="stable")[:n - counts[n]]
    sizes = counts[:n]
    return Clusters(pts[order], sizes[sizes > 0])


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


_AXES = np.arange(3)


def estimate_centroid(points: np.ndarray, sizes) -> np.ndarray:
    """Component-wise median of each of N clusters: (N, 3).

    `points` (n, 3) holds the clusters' rows one cluster after another,
    `sizes[k]` rows for cluster k. The value is np.median's, bit for bit: the
    middle value of an odd cluster, the mean of the middle pair of an even
    one (for one or two points, the point or the mean).
    """
    sizes = np.asarray(sizes)
    ends = np.cumsum(sizes)
    # each column sorted within each cluster: by value, then stably by
    # cluster id, in the smallest integer type, which numpy radix-sorts
    order = points.argsort(axis=0)
    cluster = np.repeat(np.arange(len(sizes), dtype=np.min_scalar_type(
        len(sizes))), sizes)
    order = order[cluster[order].argsort(axis=0, kind="stable"), _AXES]
    ranked = points[order, _AXES]
    lo = ranked[ends - sizes // 2 - 1]
    hi = ranked[ends - (sizes + 1) // 2]
    odd = (sizes % 2 == 1)[:, None]
    # np.median sums the middle value or pair from +0.0 and divides by the
    # count. A 1-point cluster is its point as it is: its sum starts at
    # -0.0, which changes no value, not even the sign of a zero.
    start = np.where(sizes > 1, 0.0, -0.0)[:, None]
    return (start + lo + np.where(odd, -0.0, hi)) / (2 - odd)


class Detector:
    """Stateful per-stream detector composing all pipeline stages."""

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.history = TemporalHistory(cfg.K)
        self._last_t: float | None = None

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

        keep = [validate_geometric(c, cfg) for c in clusters]
        if not any(keep):
            return []
        rows, sizes = clusters.rows, clusters.sizes
        if not all(keep):
            rows, sizes = rows[np.repeat(keep, sizes)], sizes[keep]
        zs = to_global(estimate_centroid(rows, sizes), scan.pose)
        # the check each Measurement would make, once for the whole scan
        finite = np.isfinite(zs).all(axis=1)
        if not finite.all():
            raise ValidationError(f"non-finite point: {zs[finite.argmin()]}")

        hist = self.history
        idx, dist = hist.nearest(zs)
        # Layer 2 is checked against the spatially nearest prior candidate;
        # candidates farther than d_new_source from everything in the window
        # are new sources, not implausible jumps.
        near = ((idx >= 0) & (dist <= cfg.d_new_source)).tolist()
        accepted = [i for i, (j, n) in enumerate(zip(idx.tolist(), near))
                    if not n or validate_jump(zs[i], hist.pos[j],
                                              scan.t - hist.t[j], cfg)]
        emitted = accepted  # layer-3 rejects stay future candidates
        if cfg.layer3_enabled:
            emitted = [i for i in accepted
                       if validate_temporal(zs[i], scan.t, hist, cfg)]
        support = sizes.tolist()
        measurements = [Measurement.trusted(scan.t, zs[i], support[i])
                        for i in emitted]
        # History gets this frame's layer-1/2 survivors only after the whole
        # frame is processed, so same-frame candidates do not interact.
        hist.push(zs[accepted], scan.t)
        return measurements
