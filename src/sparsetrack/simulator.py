"""Two-target scenario generation and the sparse-return sensor model.

Trajectories are analytic (sums of sinusoids) so positions and velocities
are exact and C1-smooth; only the measurement statistics matter for the
association-ambiguity regimes. The observer is static at the origin by
default; tracking operates in the global frame regardless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Pose, Scan, ValidationError

OCCLUSION = "occlusion"
CROSSINGS = "crossings"
SEPARATED = "separated"
MODERATE = "moderate"

KINDS = (OCCLUSION, CROSSINGS, SEPARATED, MODERATE)

# Default frame counts per scenario kind.
DEFAULT_FRAMES = {
    OCCLUSION: 968,
    CROSSINGS: 1708,
    SEPARATED: 832,
    MODERATE: 1305,
}


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
        if not (0.0 <= self.p_hit <= 1.0):
            raise ValidationError("p_hit must be in [0, 1]")
        if self.sigma_meas <= 0:
            raise ValidationError("sigma_meas must be positive")
        probs = np.array(list(self.n_return_dist.values()), dtype=float)
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValidationError("n_return_dist must be a distribution")
        if any(int(k) < 1 for k in self.n_return_dist):
            raise ValidationError("return counts must be >= 1")


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
    n_frames: int | None = None
    dt: float = 0.1
    seed: int = 0
    sensor: SensorModel | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        n = self.n_frames if self.n_frames is not None else DEFAULT_FRAMES[self.kind]
        if n <= 0:
            raise ValidationError("n_frames must be positive")
        object.__setattr__(self, "n_frames", n)
        if self.sensor is None:
            object.__setattr__(self, "sensor", TRACKING_SENSOR)


@dataclass(frozen=True)
class GroundTruth:
    """Aligned per-frame truth for two identity-labeled targets."""

    t: np.ndarray          # (F,)
    positions: np.ndarray  # (F, 2, 3) global frame
    velocities: np.ndarray  # (F, 2, 3)
    visible: np.ndarray    # (F, 2) bool
    ids: tuple[int, int] = (0, 1)

    @property
    def n_frames(self) -> int:
        return len(self.t)


def _sinusoid(t: np.ndarray, amp: float, omega: float, phase: float = 0.0
              ) -> tuple[np.ndarray, np.ndarray]:
    """Position and exact velocity of amp*sin(omega*t + phase)."""
    return amp * np.sin(omega * t + phase), amp * omega * np.cos(omega * t + phase)


def _trajectories(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """(positions, velocities), each (F, 2, 3)."""
    t = np.arange(sc.n_frames) * sc.dt
    T = sc.n_frames * sc.dt
    p = sc.params
    z0 = p.get("altitude", 10.0)
    pos = np.zeros((sc.n_frames, 2, 3))
    vel = np.zeros((sc.n_frames, 2, 3))

    # shared gentle altitude variation keeps trajectories 3D
    za, zv = _sinusoid(t, 0.4, 0.07)
    zb, zvb = _sinusoid(t, 0.4, 0.07, phase=1.3)

    if sc.kind == SEPARATED:
        xc, vxc = _sinusoid(t, p.get("drift_amp", 8.0), p.get("drift_omega", 0.15))
        gap = p.get("y_gap", 8.0)
        for i, (ys, zz, zzv) in enumerate(((gap / 2, za, zv),
                                           (-gap / 2, zb, zvb))):
            pos[:, i, 0], vel[:, i, 0] = xc, vxc
            pos[:, i, 1] = ys
            pos[:, i, 2], vel[:, i, 2] = z0 + zz, zzv
    elif sc.kind == CROSSINGS:
        xc, vxc = _sinusoid(t, p.get("drift_amp", 6.0), p.get("drift_omega", 0.12))
        # the default rate guarantees >= 2 x-order swaps on short streams
        rel, vrel = _sinusoid(t, p.get("cross_amp", 2.5),
                              p.get("cross_omega",
                                    max(0.6, 2.5 * math.pi / T)))
        y_half = p.get("y_half", 0.15)
        pos[:, 0, 0], vel[:, 0, 0] = xc + rel / 2, vxc + vrel / 2
        pos[:, 1, 0], vel[:, 1, 0] = xc - rel / 2, vxc - vrel / 2
        pos[:, 0, 1], pos[:, 1, 1] = y_half, -y_half
        pos[:, 0, 2], vel[:, 0, 2] = z0 + za, zv
        pos[:, 1, 2], vel[:, 1, 2] = z0 + zb, zvb
    elif sc.kind == MODERATE:
        xc, vxc = _sinusoid(t, p.get("drift_amp", 6.0), p.get("drift_omega", 0.1))
        mean_sep = p.get("mean_sep", 4.5)
        sep_amp = p.get("sep_amp", 2.6)
        # a full separation cycle always fits in the stream
        omega = p.get("sep_omega", max(0.1, 2.0 * math.pi / T))
        sep = mean_sep + sep_amp * np.cos(omega * t)
        dsep = -sep_amp * omega * np.sin(omega * t)
        pos[:, 0, 0], vel[:, 0, 0] = xc, vxc
        pos[:, 1, 0], vel[:, 1, 0] = xc, vxc
        pos[:, 0, 1], vel[:, 0, 1] = sep / 2, dsep / 2
        pos[:, 1, 1], vel[:, 1, 1] = -sep / 2, -dsep / 2
        pos[:, 0, 2], vel[:, 0, 2] = z0 + za, zv
        pos[:, 1, 2], vel[:, 1, 2] = z0 + zb, zvb
    else:  # OCCLUSION: well-separated slow targets
        xc, vxc = _sinusoid(t, p.get("drift_amp", 3.0), p.get("drift_omega", 0.08))
        gap = p.get("y_gap", 12.0)
        for i, (ys, zz, zzv) in enumerate(((gap / 2, za, zv),
                                           (-gap / 2, zb, zvb))):
            pos[:, i, 0], vel[:, i, 0] = xc, vxc
            pos[:, i, 1] = ys
            pos[:, i, 2], vel[:, i, 2] = z0 + zz, zzv
    return pos, vel


def _occlusion_windows(sc: Scenario, rng: np.random.Generator
                       ) -> tuple[tuple[float, float, int], ...]:
    """One 3-5 s forced detection gap per target, clear of stream edges."""
    T = sc.n_frames * sc.dt
    if T < 4.0:
        raise ValidationError(
            "occlusion scenario needs at least 4 s of stream for a 3 s gap")
    windows = []
    for target in (0, 1):
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
    pos, vel = _trajectories(sc)
    t = np.arange(sc.n_frames) * sc.dt
    visible = np.ones((sc.n_frames, 2), dtype=bool)
    windows = sc.sensor.occlusion_windows
    if sc.kind == OCCLUSION and not windows:
        windows = _occlusion_windows(sc, rng)
    for (start, end, target) in windows:
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
        for target in (0, 1):
            vis = gt.visible[:, target]
            runs = _longest_false_run(vis)
            if runs * sc.dt < 3.0 - 1e-9:
                raise ValidationError("occlusion gap shorter than 3 s")


def _longest_false_run(vis: np.ndarray) -> int:
    best = cur = 0
    for v in vis:
        cur = 0 if v else cur + 1
        best = max(best, cur)
    return best


def sample_scan(positions: np.ndarray, visible: np.ndarray, t: float,
                sensor: SensorModel, rng: np.random.Generator,
                observer: Pose | None = None) -> Scan:
    """One scan: sparse target returns plus Poisson clutter, local frame."""
    if observer is None:
        observer = Pose.identity()
    counts = np.array(sorted(sensor.n_return_dist), dtype=int)
    probs = np.array([sensor.n_return_dist[int(k)] for k in counts])
    pts = []
    for i in range(positions.shape[0]):
        if not visible[i]:
            continue
        if rng.random() < sensor.p_hit:
            n = int(rng.choice(counts, p=probs))
            pts.append(positions[i] + sensor.sigma_meas * rng.standard_normal((n, 3)))
    n_clutter = int(rng.poisson(sensor.clutter_rate))
    if n_clutter:
        lo = np.array([b[0] for b in sensor.clutter_volume])
        hi = np.array([b[1] for b in sensor.clutter_volume])
        pts.append(lo + (hi - lo) * rng.random((n_clutter, 3)))
    pts_global = np.vstack(pts) if pts else np.zeros((0, 3))
    inv = observer.inverse()
    pts_local = pts_global @ inv.rotation.T + inv.translation
    return Scan(t=t, points=pts_local, pose=observer)


def run_scenario(sc: Scenario,
                 observer: Pose | None = None) -> tuple[list[Scan], GroundTruth]:
    """Generate the aligned (scans, ground truth) pair, deterministically."""
    rng = np.random.default_rng(sc.seed)
    gt = gen_trajectories(sc, rng)
    scans = [
        sample_scan(gt.positions[k], gt.visible[k], float(gt.t[k]),
                    sc.sensor, rng, observer)
        for k in range(sc.n_frames)
    ]
    return scans, gt
