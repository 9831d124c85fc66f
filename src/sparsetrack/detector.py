"""Unsupervised sparse-target detector.

Pipeline per scan: ROI filter -> voxel downsample -> range-adaptive DBSCAN
-> three validation layers (geometric, spatial jump, temporal consistency)
-> robust centroid -> global-frame measurement.

A `Detector` instance carries the cross-frame candidate history and must
process one scan stream sequentially.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Measurement, Scan, ValidationError, as_points,
                   check_field_types, is_int, is_number, to_global)

# Largest input of a per-point stage (ROI, voxel grid, DBSCAN, extent check,
# centroid) that is processed point by point on Python floats, with the
# same bits as the array code used above it: on a handful of points numpy's
# per-call cost is most of a stage's time. For DBSCAN it is also the k-d
# tree's leaf size, so up to it the tree is a single leaf that makes the
# same pair test, and a scan this small never imports scipy.spatial.
_SCALAR_MAX = 16


def adaptive_epsilon(r: float, cfg: DetectorConfig) -> float:
    """Range-adaptive DBSCAN radius: eps0 + alpha * max(r - r_ref, 0)."""
    if not (is_number(r) and r >= 0):
        raise ValidationError(f"range must be a finite number >= 0, not {r!r}")
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
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValidationError(
            f"unknown preset {name!r}; known: {sorted(PRESETS)}") from None


class TemporalHistory:
    """The last K layer-1/2 survivors, oldest first: global positions
    `pos` (k, 3) and their scan times `t` (k,)."""

    def __init__(self, K: int):
        if not (is_int(K) and K >= 1):
            raise ValidationError("history length K must be an int >= 1")
        self.K = K
        self.pos = np.zeros((0, 3))
        self.t = np.zeros(0)

    def __len__(self) -> int:
        return len(self.t)

    def push(self, positions: np.ndarray, t: float) -> None:
        """Append one scan's candidates (n, 3) at time t; keep the last K."""
        if not is_number(t):
            raise ValidationError("history timestamps must be finite numbers")
        positions = as_points(positions)
        if len(self.t) and t < self.t[-1]:
            raise ValidationError("history timestamps must be monotone")
        self.pos = np.concatenate([self.pos, positions])[-self.K:]
        self.t = np.concatenate([self.t, np.full(len(positions), t)])[-self.K:]

    def nearest(self, points: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each row of `points` (N, 3): the row of the spatially closest
        entry and its distance, or -1 and inf when the history is empty,
        and the (N, k) table of distances to every entry.

        Ties go to the earliest entry.
        """
        d = as_points(points)[:, None, :] - self.pos
        # (1, 3) @ (3, 1) is the dot product np.linalg.norm takes of one
        # vector, so distances round exactly as a per-entry norm would.
        table = np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]
        if not len(self.t):
            return np.full(len(points), -1), np.full(len(points), np.inf), table
        return table.argmin(axis=1), table.min(axis=1), table


def roi_filter(scan: Scan, cfg: DetectorConfig) -> np.ndarray:
    """The scan's points (n, 3) above h_min, within r_max and outside the
    exclusion cylinder."""
    pts = scan.points
    # Squares summed left to right round as np.linalg.norm's do. A square
    # beyond the float range is inf, a range above any r_max, and is no
    # cause for a warning.
    if len(pts) <= _SCALAR_MAX:
        keep = []
        for i, (x, y, z) in enumerate(pts.tolist()):
            rho2 = x * x + y * y
            if (z >= cfg.h_min and math.sqrt(rho2 + z * z) <= cfg.r_max
                    and math.sqrt(rho2) > cfg.r_excl):
                keep.append(i)
        return pts[keep]
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
    order follows first occurrence of each voxel in the input. A voxel size
    outside (0, inf), points that `as_points` rejects, or a voxel index
    beyond the int64 range, is a ValidationError.
    """
    if not (is_number(v) and v > 0):
        raise ValidationError("voxel_downsample requires 0 < v < inf")
    pts = as_points(points)
    if pts.shape[0] == 0:
        return pts
    scalar = pts.shape[0] <= _SCALAR_MAX
    if scalar:
        rows = pts.tolist()
        try:
            keys = [(math.floor(x / v), math.floor(y / v), math.floor(z / v))
                    for x, y, z in rows]
            flat = list(itertools.chain.from_iterable(keys))
            in_range = -2**63 <= min(flat) and max(flat) < 2**63
        except OverflowError:  # an infinite index
            in_range = False
    else:
        # indices as rows (3, n): numpy reduces a contiguous row several
        # times faster than a column of an (n, 3) array
        with np.errstate(over="ignore"):
            f = np.ascontiguousarray(np.floor(pts / v).T)
        low = f.min(axis=1, keepdims=True)
        lo, hi = low.ravel().tolist(), f.max(axis=1).tolist()
        # floats in [-2**63, 2**63) convert exactly; others (inf too) wrap
        in_range = (all(-2.0**63 <= x for x in lo)
                    and all(x < 2.0**63 for x in hi))
    if not in_range:
        raise ValidationError(
            f"voxel index out of the int64 range at voxel size {v}")
    if scalar:
        voxels: dict[tuple, list] = {}  # in order of first occurrence
        for key, p in zip(keys, rows):
            voxels.setdefault(key, []).append(p)
        if len(voxels) == len(rows):
            return pts + 0.0  # each point is its voxel's sum, 0.0 + p, over 1
        centroids = []
        for members in voxels.values():
            sx = sy = sz = 0.0  # summed in input order, as bincount does
            for x, y, z in members:
                sx += x
                sy += y
                sz += z
            k = len(members)
            centroids.append([sx / k, sy / k, sz / k])
        return np.array(centroids)
    idx = f.astype(np.int64)
    # Group each voxel's points with one stable sort, its first input point
    # first; the output follows first occurrence, so any grouping order
    # will do. The key packs a point's indices, offset by their minima, into
    # one integer when the spans' product fits; the spans are Python ints,
    # as an int64 max - min + 1 wraps at 2**63. The offsets and keys are
    # below 2**63, and uint64 holds a span of 2**63 as a multiplier.
    _, ny, nz = spans = [int(b) - int(a) + 1 for a, b in zip(lo, hi)]
    if math.prod(spans) <= 2**63:
        d = (idx - low.astype(np.int64)).view(np.uint64)
        key = (d[0] * ny + d[1]) * nz + d[2]
        order = key.argsort(kind="stable")
        key = key[order]
        new = key[1:] != key[:-1]
    else:
        order = np.lexsort(idx)
        grouped = idx[:, order]
        new = (grouped[:, 1:] != grouped[:, :-1]).any(axis=0)
    new = np.concatenate(([True], new))
    if new.all():
        return pts + 0.0  # each point is its voxel's sum, 0.0 + p, over 1
    label = np.empty(len(pts), dtype=np.intp)
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
        counts = sizes.tolist()
        super().__init__(rows[e - k:e] for k, e in zip(
            counts, itertools.accumulate(counts)))
        self.rows = rows
        self.sizes = sizes


def _neighbours(rows: list, eps: float) -> list[list[int]]:
    """For each of `rows` (n 3-lists), the indices of the other rows at most
    eps apart, in increasing order.

    The test is cKDTree.query_pairs' within one leaf, bit for bit: the
    squared differences summed left to right, against eps * eps.
    """
    r2 = eps * eps
    nbrs: list[list[int]] = [[] for _ in rows]
    for i, (x, y, z) in enumerate(rows):
        for j, (u, v, w) in enumerate(rows[i + 1:], i + 1):
            dx, dy, dz = x - u, y - v, z - w
            if dx * dx + dy * dy + dz * dz <= r2:
                nbrs[i].append(j)
                nbrs[j].append(i)
    return nbrs


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> Clusters:
    """Euclidean DBSCAN: a `Clusters` list of one (k, 3) point array per
    cluster; noise points are discarded.

    Neighborhood counts include the query point, so min_pts=1 makes every
    point a core point. Clusters come in order of their smallest core index,
    and a border point joins the first of them that reaches it, making runs
    reproducible. Points inside a cluster keep their input order. The pairs
    within eps (boundary included) of a scan of up to `_SCALAR_MAX` points
    are found by testing every pair, and of a larger one by one k-d tree
    query, so time and memory grow with n plus the number of pairs, which
    is n^2 / 2 when all points lie within eps of each other.
    """
    if not (is_number(eps) and eps > 0 and is_int(min_pts) and min_pts >= 1):
        raise ValidationError("dbscan requires 0 < eps < inf and an int "
                              "min_pts >= 1")
    pts = as_points(points)
    n = pts.shape[0]
    if n <= _SCALAR_MAX:
        nbrs = _neighbours(pts.tolist(), float(eps))
        core = [len(nb) >= min_pts - 1 for nb in nbrs]
        # each component is labelled from its smallest core index, the
        # first of its cores the scan reaches
        lab = [n] * n
        for p in range(n):
            if core[p] and lab[p] == n:
                lab[p] = p
                stack = [p]
                while stack:
                    for q in nbrs[stack.pop()]:
                        if core[q] and lab[q] == n:
                            lab[q] = p
                            stack.append(q)
        members: list[list[int]] = [[] for _ in range(n + 1)]
        for p in range(n):
            # a non-core point joins the smallest root among its core
            # neighbours, or is noise, label n
            if not core[p]:
                lab[p] = min([lab[q] for q in nbrs[p] if core[q]], default=n)
            members[lab[p]].append(p)
        order = [p for m in members[:n] for p in m]
        sizes = [len(m) for m in members[:n] if m]
        return Clusters(pts[order], np.array(sizes, dtype=np.intp))
    from scipy.spatial import cKDTree  # imported only for large scans
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
    if not cfg.n_min <= n <= cfg.n_max:
        return False
    if n == 1:  # extent 0; most clusters of a sparse scan are one point
        return True
    return max(max(c) - min(c) for c in zip(*points.tolist())) < cfg.e_max


def validate_jump(dist: float, dt: float, cfg: DetectorConfig) -> bool:
    """Layer 2: reject a displacement `dist` over `dt` seconds beyond
    max(tau_min, v_max * dt)."""
    return dist <= max(cfg.tau_min, cfg.v_max * dt)


def validate_temporal(dists, ages, cfg: DetectorConfig) -> bool:
    """Layer 3: at least M history entries within d_cons of the candidate
    and younger than T_cons, from the candidate's `dists` to each entry
    and the entries' `ages`."""
    return sum(1 for d, a in zip(dists, ages)
               if d < cfg.d_cons and a < cfg.T_cons) >= cfg.M


def estimate_centroid(points: np.ndarray, sizes) -> np.ndarray:
    """Component-wise median of each of N clusters: (N, 3).

    `points` (n, 3) holds the clusters' rows one cluster after another,
    `sizes[k]` rows for cluster k; points that `as_points` rejects (a
    non-finite point among them, which has no median), or sizes that are
    not ints >= 1 summing to n, are a ValidationError. The value is
    np.median's, bit for bit: the middle value of an odd cluster, the mean
    of the middle pair of an even one (for two points, the mean). np.median
    sums the middle value or pair from +0.0 and divides by the count. A
    1-point cluster is its point as it is, where np.median would turn a
    -0.0 into 0.0.
    """
    sizes = np.asarray(sizes)
    if sizes.ndim != 1 or sizes.size and sizes.dtype.kind not in "iu":
        raise ValidationError("cluster sizes must be a 1-D array of ints")
    points = as_points(points)
    n = len(points)
    if n <= _SCALAR_MAX:
        return np.array(_scalar_medians(points.tolist(), sizes.tolist())
                        ).reshape(-1, 3)
    # a uint64 size beyond the intp range turns negative and fails below
    sizes = sizes.astype(np.intp, copy=False)
    ends = np.cumsum(sizes)
    # sizes in [1, n] sum far below the int64 range
    if not (len(sizes) and sizes.min() >= 1 and sizes.max() <= n
            and ends[-1] == n):
        raise _size_error(n)
    # A 1-point cluster's median is its point, and at minPts 1-2 nearly
    # every cluster of a dense scan is one point: take each cluster's last
    # row, then overwrite the larger clusters' rows with their medians.
    out = points.take(ends - 1, axis=0)
    big = sizes > 1
    medians = _scalar_medians(points[np.repeat(big, sizes)].tolist(),
                              sizes[big].tolist())
    out[big] = np.array(medians).reshape(-1, 3)
    return out


def _size_error(n: int) -> ValidationError:
    return ValidationError(f"cluster sizes must be >= 1 and sum to {n} rows")


def _scalar_medians(rows: list, counts: list) -> list:
    """`estimate_centroid` on Python floats: `rows` (n 3-lists) in clusters
    of `counts[k]` rows, which must be >= 1 and sum to n."""
    n = len(rows)
    out, end = [], 0
    for k in counts:
        end += k
        if k < 1 or end > n:
            raise _size_error(n)
        if k == 1:
            out.append(rows[end - 1])
            continue
        h = k // 2
        cols = [sorted(c) for c in zip(*rows[end - k:end])]
        out.append([0.0 + c[h] if k % 2 else (0.0 + c[h - 1] + c[h]) / 2
                    for c in cols])
    if end != n:
        raise _size_error(n)
    return out


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
        # the clock moves only with a scan that succeeds, so a scan that
        # raises can be retried and reports its own error again
        roi = roi_filter(scan, cfg)
        if len(roi) == 0:
            self._last_t = scan.t
            return []
        down = voxel_downsample(roi, cfg.voxel)
        eps = cfg.eps0  # = eps0 + 0.0 * max(r - r_ref, 0), bit for bit
        if cfg.alpha != 0:
            ranges = np.sqrt(np.add.reduce(down * down, 1))  # np.linalg.norm's
            r = float(np.add.reduce(ranges) / len(ranges))  # .mean()'s bits
            eps = adaptive_epsilon(r, cfg)
        clusters = dbscan(down, eps, cfg.min_pts)

        keep = [validate_geometric(c, cfg) for c in clusters]
        if not any(keep):
            self._last_t = scan.t
            return []
        rows, sizes = clusters.rows, clusters.sizes
        if not all(keep):
            rows, sizes = rows[np.repeat(keep, sizes)], sizes[keep]
        zs = to_global(estimate_centroid(rows, sizes), scan.pose)

        hist = self.history
        # nearest makes the check each Measurement would make (a pose can
        # overflow a centroid to inf), once for the whole scan
        idx, dist, table = hist.nearest(zs)
        ages = (scan.t - hist.t).tolist()
        # Layer 2 is checked against the spatially nearest prior candidate;
        # candidates farther than d_new_source from everything in the window
        # (an empty one is inf away) are new sources, not implausible jumps.
        accepted = [i for i, (j, d) in enumerate(zip(idx.tolist(),
                                                     dist.tolist()))
                    if d > cfg.d_new_source or validate_jump(d, ages[j], cfg)]
        emitted = accepted  # layer-3 rejects stay future candidates
        if cfg.layer3_enabled:
            dists = table.tolist()
            emitted = [i for i in accepted
                       if validate_temporal(dists[i], ages, cfg)]
        support = sizes.tolist()
        measurements = [Measurement.trusted(zs[i], support[i])
                        for i in emitted]
        # History gets this frame's layer-1/2 survivors only after the whole
        # frame is processed, so same-frame candidates do not interact.
        hist.push(zs if len(accepted) == len(zs) else zs[accepted], scan.t)
        self._last_t = scan.t
        return measurements
