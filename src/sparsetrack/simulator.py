"""Two-target scenario generation and the sparse-return sensor model.

Each scenario kind is one row of `SCENARIOS`: its default frame count, the
x drift of the pair's centre and its offset law. Target 0 sits at the centre
plus the offset, target 1 at the centre minus it, both near 10 m altitude.
Trajectories are analytic (sums of sinusoids) so positions and velocities
are exact and C1-smooth; only the measurement statistics matter for the
association-ambiguity regimes. The observer is static at the origin by
default; tracking operates in the global frame regardless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .core import (Pose, Scan, ValidationError, check_field_types, is_int,
                   number_array)

OCCLUSION = "occlusion"
CROSSINGS = "crossings"
SEPARATED = "separated"
MODERATE = "moderate"


def _sinusoid(t: np.ndarray, amp: float, omega: float, phase: float = 0.0
              ) -> tuple[np.ndarray, np.ndarray]:
    """Position and exact velocity of amp*sin(omega*t + phase)."""
    return amp * np.sin(omega * t + phase), amp * omega * np.cos(omega * t + phase)


def _y_gap(gap: float, t, T) -> tuple:
    """A constant y gap of `gap` m."""
    return 0.0, 0.0, gap / 2, 0.0


def _x_swing(amp: float, min_omega: float, y_half: float, t, T) -> tuple:
    """An x gap of amp*sin(omega*t), at least 1.25 cycles per stream so the
    x order swaps twice, with a ±y_half split in y."""
    rel, vrel = _sinusoid(t, amp, max(min_omega, 2.5 * math.pi / T))
    return rel / 2, vrel / 2, y_half, 0.0


def _y_breathe(mean: float, amp: float, min_omega: float, t, T) -> tuple:
    """A y gap of mean + amp*cos(omega*t), one full cycle per stream."""
    omega = max(min_omega, 2.0 * math.pi / T)
    return (0.0, 0.0, (mean + amp * np.cos(omega * t)) / 2,
            -amp * omega * np.sin(omega * t) / 2)


class _Kind(NamedTuple):
    frames: int                  # default stream length
    drift: tuple[float, float]   # centre x drift: amplitude (m), omega (rad/s)
    # offset law: (times t, stream length T) -> target 0's offset (x, vx, y, vy)
    offset: Callable[[np.ndarray, float], tuple]


SCENARIOS = {
    OCCLUSION: _Kind(968, (3.0, 0.08), partial(_y_gap, 12.0)),
    CROSSINGS: _Kind(1708, (6.0, 0.12), partial(_x_swing, 2.5, 0.6, 0.15)),
    SEPARATED: _Kind(832, (8.0, 0.15), partial(_y_gap, 8.0)),
    MODERATE: _Kind(1305, (6.0, 0.1), partial(_y_breathe, 4.5, 2.6, 0.1)),
}
KINDS = tuple(SCENARIOS)


# Largest accepted clutter_rate (expected clutter returns per scan). At
# 1e8 returns a single scan already takes gigabytes, and numpy's Poisson
# sampler rejects rates near 1e19 with its own error.
MAX_CLUTTER_RATE = 1e8
# Largest accepted n_frames. A crossings frame takes about 660 B and 40 us
# (2-vCPU Xeon), so 10**6 frames is 0.66 GB and 40 s; a count near 2**63
# would fail in np.arange, or first try to allocate petabytes.
MAX_FRAMES = 10**6
# Shortest accepted stream, n_frames * dt in seconds. An offset law turns up
# to 1.25 cycles per stream, so its rate and velocity grow as 1/T; they
# overflowed to inf and NaN on streams shorter than about 1e-307 s.
MIN_STREAM_S = 1e-300


@dataclass(frozen=True)
class SensorModel:
    p_hit: float = 0.85
    # distribution over the number of returns given a hit; sparse by default
    n_return_dist: dict[int, float] = field(
        default_factory=lambda: {1: 0.6, 2: 0.4})
    sigma_meas: float = 0.08
    clutter_rate: float = 1.0
    clutter_volume: tuple[tuple[float, float], ...] = (
        (-20.0, 20.0), (-20.0, 20.0), (5.0, 15.0))
    occlusion_windows: tuple[tuple[float, float, int], ...] = ()

    def __post_init__(self):
        check_field_types(self)
        # each test is written so that NaN fails it
        if not (0.0 <= self.p_hit <= 1.0):
            raise ValidationError("p_hit must be in [0, 1]")
        if not (0.0 < self.sigma_meas < math.inf):
            raise ValidationError("sigma_meas must be finite and positive")
        if not (0.0 <= self.clutter_rate <= MAX_CLUTTER_RATE):
            raise ValidationError(
                f"clutter_rate must be in [0, {MAX_CLUTTER_RATE:g}] per scan")
        vol = number_array("clutter_volume", self.clutter_volume)
        if vol.shape != (3, 2) or not (vol[:, 0] <= vol[:, 1]).all():
            raise ValidationError("clutter_volume must be three finite "
                                  "(lo, hi) pairs with lo <= hi")
        dist = self.n_return_dist
        probs = (number_array("n_return_dist", list(dist.values()))
                 if isinstance(dist, dict) else np.zeros(0))
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):
            raise ValidationError("n_return_dist must be a dict of "
                                  "probabilities that sum to 1")
        if not all(is_int(k) and k >= 1 for k in dist):
            raise ValidationError("return counts must be integers >= 1")
        win = number_array("occlusion_windows", self.occlusion_windows)
        if not (win.shape == (0,) or win.ndim == 2 and win.shape[1] == 3
                and (win[:, 0] < win[:, 1]).all()
                and all(is_int(w[2]) and w[2] >= 0
                        for w in self.occlusion_windows)):
            raise ValidationError(
                "occlusion_windows must be (start, end, target) triples with "
                "finite start < end and an integer target >= 0")


# Sensor used by the tracking scenarios: the per-target return count can
# reach 4 so that the minPts=3 detection presets remain usable, while the
# default SensorModel above keeps the strict 1-2 return regime.
TRACKING_SENSOR = SensorModel(
    p_hit=0.85,
    n_return_dist={1: 0.15, 2: 0.25, 3: 0.35, 4: 0.25},
    sigma_meas=0.08,
    clutter_rate=1.0,
)


@dataclass(frozen=True)
class Scenario:
    kind: str
    n_frames: int | None = None  # None: the kind's default
    dt: float = 0.1
    seed: int = 0
    sensor: SensorModel = TRACKING_SENSOR

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in SCENARIOS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        n = SCENARIOS[self.kind].frames if self.n_frames is None else self.n_frames
        if not 0 < n <= MAX_FRAMES:
            raise ValidationError(f"n_frames must be 1..{MAX_FRAMES}, got {n}")
        if not (self.dt > 0 and MIN_STREAM_S <= n * self.dt < math.inf):
            raise ValidationError(
                f"dt must be positive with n_frames * dt finite and at least "
                f"{MIN_STREAM_S:g} s, got dt={self.dt!r}")
        object.__setattr__(self, "n_frames", n)


@dataclass(frozen=True)
class GroundTruth:
    """Aligned per-frame truth for N identity-labeled targets."""

    t: np.ndarray          # (F,)
    positions: np.ndarray  # (F, N, 3) global frame
    velocities: np.ndarray  # (F, N, 3)
    visible: np.ndarray    # (F, N) bool
    ids: tuple[int, ...] | None = None  # None: 0, 1, ..., N-1

    def __post_init__(self):
        n = self.positions.shape[1]
        if self.ids is None:
            object.__setattr__(self, "ids", tuple(range(n)))
        elif len(self.ids) != n:
            raise ValidationError(f"{len(self.ids)} ids for {n} targets")

    @property
    def n_frames(self) -> int:
        return len(self.t)


def _trajectories(sc: Scenario, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, velocities), each (F, 2, 3), at times t."""
    row = SCENARIOS[sc.kind]
    xc, vxc = _sinusoid(t, *row.drift)
    ox, vox, oy, voy = row.offset(t, sc.n_frames * sc.dt)
    pos = np.zeros((len(t), 2, 3))
    vel = np.zeros((len(t), 2, 3))
    pos[:, 0, 0], vel[:, 0, 0] = xc + ox, vxc + vox
    pos[:, 1, 0], vel[:, 1, 0] = xc - ox, vxc - vox
    pos[:, 0, 1], vel[:, 0, 1] = oy, voy
    # 0.0 - oy, not -oy: a zero offset or rate stays +0.0 on target 1
    pos[:, 1, 1], vel[:, 1, 1] = 0.0 - oy, 0.0 - voy
    # shared gentle altitude variation keeps trajectories 3D
    for i, phase in enumerate((0.0, 1.3)):
        z, vz = _sinusoid(t, 0.4, 0.07, phase)
        pos[:, i, 2], vel[:, i, 2] = 10.0 + z, vz
    return pos, vel


def _occlusion_windows(sc: Scenario, n_targets: int, rng: np.random.Generator
                       ) -> tuple[tuple[float, float, int], ...]:
    """One 3-5 s forced detection gap per target, clear of stream edges."""
    T = sc.n_frames * sc.dt
    if T < 4.0:
        raise ValidationError(
            "occlusion scenario needs at least 4 s of stream for a 3 s gap")
    windows = []
    for target in range(n_targets):
        dur = float(rng.uniform(3.0, min(5.0, 0.8 * T)))
        lo, hi = 0.1 * T, max(0.1 * T + sc.dt, 0.9 * T - dur)
        start = float(rng.uniform(lo, hi))
        windows.append((start, start + dur, target))
    return tuple(windows)


def gen_trajectories(sc: Scenario,
                     rng: np.random.Generator | None = None) -> GroundTruth:
    """Ground-truth trajectories honoring the scenario separation contract."""
    if rng is None:
        rng = np.random.default_rng(sc.seed)
    t = np.arange(sc.n_frames) * sc.dt
    pos, vel = _trajectories(sc, t)
    visible = np.ones(pos.shape[:2], dtype=bool)
    windows = sc.sensor.occlusion_windows
    if sc.kind == OCCLUSION and not windows:
        windows = _occlusion_windows(sc, pos.shape[1], rng)
    for (start, end, target) in windows:
        if target >= pos.shape[1]:
            raise ValidationError(f"occlusion window target {target} is out "
                                  f"of range for {pos.shape[1]} targets")
        visible[(t >= start) & (t < end), target] = False
    gt = GroundTruth(t=t, positions=pos, velocities=vel, visible=visible)
    _check_contract(sc, gt)
    return gt


def _check_contract(sc: Scenario, gt: GroundTruth) -> None:
    sep = np.linalg.norm(gt.positions[:, 0] - gt.positions[:, 1], axis=1)
    if sc.kind == SEPARATED and sep.min() <= 5.0:
        raise ValidationError("separated scenario violates the >5 m contract")
    if sc.kind == CROSSINGS:
        rel_x = gt.positions[:, 0, 0] - gt.positions[:, 1, 0]
        crossings = int(np.sum(np.diff(np.sign(rel_x)) != 0))
        if sep.min() >= 3.0 or crossings < 2:
            raise ValidationError("crossings scenario contract violated")
    if sc.kind == MODERATE and (sep.min() >= 3.0 or sep.max() <= 5.0):
        raise ValidationError("moderate scenario needs close and far phases")
    if sc.kind == OCCLUSION:
        for vis in gt.visible.T:
            runs = _longest_false_run(vis)
            if runs * sc.dt < 3.0 - 1e-9:
                raise ValidationError("occlusion gap shorter than 3 s")


def _longest_false_run(vis: np.ndarray) -> int:
    best = cur = 0
    for v in vis:
        cur = 0 if v else cur + 1
        best = max(best, cur)
    return best


def _sample_scans(t: np.ndarray, positions: np.ndarray, visible: np.ndarray,
                  sensor: SensorModel, rng: np.random.Generator,
                  observer: Pose | None) -> list[Scan]:
    """One scan per frame k of `t`, drawn from `rng` in this order: for each
    visible target, the hit, then on a hit the return count and its noise;
    then the clutter count and the clutter points. The observer's inverse,
    the return-count CDF and the clutter box are built once per stream."""
    if observer is None:
        observer = Pose.identity()
    inv = observer.inverse()
    counts = np.array(sorted(sensor.n_return_dist), dtype=int)
    # the CDF and the one uniform draw that Generator.choice(counts, p=...)
    # makes, without its per-call checks of p
    cdf = np.array([sensor.n_return_dist[k] for k in counts.tolist()],
                   dtype=float).cumsum()
    cdf /= cdf[-1]
    lo, hi = np.array(sensor.clutter_volume, dtype=float).T
    scans = []
    for tk, pos, vis in zip(t.tolist(), positions, visible.tolist()):
        pts = []
        for p, seen in zip(pos, vis):
            if seen and rng.random() < sensor.p_hit:
                n = counts[cdf.searchsorted(rng.random(), side="right")]
                pts.append(p + sensor.sigma_meas * rng.standard_normal((n, 3)))
        n_clutter = int(rng.poisson(sensor.clutter_rate))
        if n_clutter:
            pts.append(lo + (hi - lo) * rng.random((n_clutter, 3)))
        pts_global = np.concatenate(pts) if pts else np.zeros((0, 3))
        scans.append(Scan(t=tk, pose=observer,
                          points=pts_global @ inv.rotation.T + inv.translation))
    return scans


def sample_scan(positions: np.ndarray, visible: np.ndarray, t: float,
                sensor: SensorModel, rng: np.random.Generator,
                observer: Pose | None = None) -> Scan:
    """One scan: sparse target returns plus Poisson clutter, local frame.
    The one-frame case of `run_scenario`'s sampling loop."""
    return _sample_scans(np.array([t], dtype=float), np.asarray(positions)[None],
                         np.asarray(visible)[None], sensor, rng, observer)[0]


def run_scenario(sc: Scenario,
                 observer: Pose | None = None) -> tuple[list[Scan], GroundTruth]:
    """Generate the aligned (scans, ground truth) pair, deterministically."""
    rng = np.random.default_rng(sc.seed)
    gt = gen_trajectories(sc, rng)
    return _sample_scans(gt.t, gt.positions, gt.visible, sc.sensor, rng,
                         observer), gt
