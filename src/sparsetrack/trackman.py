"""Track lifecycle and the per-frame tracker step.

Composes gating, Hungarian/JPDA association, and IMM filtering into a
sequential state machine over one measurement stream. Dormant tracks are
frozen at their last fused state and can be resurrected by a nearby
unassigned measurement, keeping their original id.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Measurement, ValidationError
from . import association as assoc
from .association import JpdaParams, TrackView
from .filter import (FilterConfig, IMMState, imm_init, imm_predict,
                     imm_correct, imm_correct_pda, _sym)

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
DORMANT = "dormant"
DELETED = "deleted"

HUNGARIAN = "hungarian"
JPDA = "jpda"


@dataclass(frozen=True)
class TrackerConfig:
    confirm_hits: int = 3
    max_misses_active: int = 15
    max_misses_dormant: int = 50
    init_min_separation: float = 1.0
    resurrect_radius: float = 4.0
    filter: FilterConfig = field(default_factory=FilterConfig)
    jpda: JpdaParams = field(default_factory=JpdaParams)
    association_mode: str = HUNGARIAN
    cost_weights: tuple[float, float, float] = (1.0, 0.3, 0.3)
    jpda_miss_threshold: float = 0.5

    def __post_init__(self):
        if self.confirm_hits < 1:
            raise ValidationError("confirm_hits must be >= 1")
        if self.init_min_separation <= 0 or self.resurrect_radius <= 0:
            raise ValidationError("separations must be positive")
        if self.association_mode not in (HUNGARIAN, JPDA):
            raise ValidationError(
                f"unknown association mode {self.association_mode!r}")


@dataclass
class Track:
    id: int
    imm: IMMState
    status: str
    misses: int = 0
    consec_hits: int = 0
    last_confident: tuple[np.ndarray, float] | None = None

    @property
    def position(self) -> np.ndarray:
        return self.imm.fused.x[:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.imm.fused.x[3:]


@dataclass
class FrameRecord:
    """Per-frame log entry consumed by the metrics module and the CLI."""

    t: float
    tracks: list[dict]            # id, status, position, velocity, mu
    assignments: list[tuple[int, int]]   # (track id, measurement index)
    beta_summary: list[dict] | None      # JPDA: per track id, beta0 and argmax
    spawned: list[int]
    deleted: list[int]
    resurrected: list[int]


def lifecycle_advance(track: Track, hit: bool, cfg: TrackerConfig) -> str:
    """Advance hit/miss counters and return the new status."""
    if track.status == DELETED:
        raise ValidationError("cannot advance a deleted track")
    if hit:
        track.consec_hits += 1
        track.misses = 0
        if track.status == TENTATIVE and track.consec_hits >= cfg.confirm_hits:
            track.status = CONFIRMED
    else:
        track.consec_hits = 0
        track.misses += 1
        if track.status == TENTATIVE and track.misses > cfg.max_misses_active:
            track.status = DELETED
        elif track.status == CONFIRMED and track.misses > cfg.max_misses_active:
            track.status = DORMANT
            track.misses = 0
        elif track.status == DORMANT and track.misses > cfg.max_misses_dormant:
            track.status = DELETED
    return track.status


class Tracker:
    """Sequential multi-target tracker over one measurement stream."""

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.tracks: list[Track] = []
        self._next_id = 0
        self._last_t: float | None = None

    # -- internals ---------------------------------------------------------

    def _new_track(self, position: np.ndarray) -> Track:
        tr = Track(id=self._next_id, imm=imm_init(position, self.cfg.filter),
                   status=TENTATIVE)
        self._next_id += 1
        return tr

    def _views(self, tracks: list[Track]) -> list[TrackView]:
        R = self.cfg.filter.R
        views = []
        for tr in tracks:
            f = tr.imm.fused
            views.append(TrackView(
                z_pred=f.x[:3], S=_sym(f.P[:3, :3] + R),
                velocity=f.x[3:], last_confident=tr.last_confident,
                dormant=(tr.status == DORMANT)))
        return views

    def _imm_correct_pda(self, pred: IMMState, dets: np.ndarray,
                         beta_row: np.ndarray) -> IMMState:
        """JPDA update of one track; perfbench times it under this name."""
        return imm_correct_pda(pred, dets, beta_row, self.cfg.filter)

    # -- public API --------------------------------------------------------

    def step(self, measurements: list[Measurement], t: float) -> FrameRecord:
        cfg = self.cfg
        if self._last_t is not None and t <= self._last_t:
            raise ValidationError(
                f"out-of-order frame: t={t} after t={self._last_t}")
        dt = None if self._last_t is None else t - self._last_t
        self._last_t = t

        dets = (np.stack([m.position for m in measurements])
                if measurements else np.zeros((0, 3)))

        active = [tr for tr in self.tracks if tr.status in (TENTATIVE, CONFIRMED)]
        dormant = [tr for tr in self.tracks if tr.status == DORMANT]

        # 1. predict active tracks (dormant tracks stay frozen)
        if dt is not None:
            for tr in active:
                tr.imm = imm_predict(tr.imm, dt, cfg.filter)

        # 2-4. gate, associate, update
        assignments: list[tuple[int, int]] = []
        beta_summary: list[dict] | None = None
        hit_flags = {tr.id: False for tr in active}
        used_dets: set[int] = set()

        if active and len(dets):
            views = self._views(active)
            g = assoc.gate(views, dets, cfg.jpda)
            if cfg.association_mode == HUNGARIAN:
                cost = assoc.build_cost(views, dets, g, cfg.cost_weights, t_now=t)
                pairs, _, _ = assoc.hungarian(cost)
                for i, j in pairs:
                    tr = active[i]
                    tr.imm = imm_correct(tr.imm, dets[j], cfg.filter)
                    tr.last_confident = (dets[j].copy(), t)
                    hit_flags[tr.id] = True
                    assignments.append((tr.id, j))
                    used_dets.add(j)
            else:
                beta = assoc.jpda(views, dets, g, cfg.jpda)
                beta_summary = []
                for i, tr in enumerate(active):
                    row = beta[i]
                    if row[0] < 1.0 - 1e-12:
                        tr.imm = self._imm_correct_pda(tr.imm, dets, row)
                    hit = row[0] <= cfg.jpda_miss_threshold
                    hit_flags[tr.id] = hit
                    j_best = int(np.argmax(row[1:])) if len(dets) else -1
                    if hit and j_best >= 0:
                        tr.last_confident = (dets[j_best].copy(), t)
                        assignments.append((tr.id, j_best))
                    beta_summary.append({"id": tr.id, "beta0": float(row[0]),
                                         "best": j_best if hit else -1})
                # detections inside any active gate are not initiation sources
                for j in range(len(dets)):
                    if np.any(g.feasible[:, j]):
                        used_dets.add(j)

        # 5. lifecycle
        deleted: list[int] = []
        for tr in active:
            before = tr.status
            after = lifecycle_advance(tr, hit_flags[tr.id], cfg)
            if after == DELETED and before != DELETED:
                deleted.append(tr.id)
        for tr in dormant:
            if lifecycle_advance(tr, False, cfg) == DELETED:
                deleted.append(tr.id)

        leftover = [j for j in range(len(dets)) if j not in used_dets]

        # 7. resurrection of dormant tracks near leftover measurements
        resurrected: list[int] = []
        for tr in dormant:
            if tr.status != DORMANT:
                continue
            best_j, best_d = -1, cfg.resurrect_radius
            for j in leftover:
                d = float(np.linalg.norm(dets[j] - tr.position))
                if d <= best_d:
                    best_j, best_d = j, d
            if best_j >= 0:
                tr.imm = imm_init(dets[best_j], cfg.filter)
                tr.status = CONFIRMED
                tr.misses = 0
                tr.consec_hits = 1
                tr.last_confident = (dets[best_j].copy(), t)
                resurrected.append(tr.id)
                assignments.append((tr.id, best_j))
                leftover.remove(best_j)

        # 6. initiation with the minimum-separation constraint
        spawned: list[int] = []
        live_positions = [tr.position for tr in self.tracks
                          if tr.status != DELETED]
        for j in leftover:
            p = dets[j]
            if any(np.linalg.norm(p - q) < cfg.init_min_separation
                   for q in live_positions):
                continue
            tr = self._new_track(p)
            self.tracks.append(tr)
            live_positions.append(tr.position)
            spawned.append(tr.id)

        self.tracks = [tr for tr in self.tracks if tr.status != DELETED]

        snapshot = [{
            "id": tr.id, "status": tr.status,
            "position": tr.position.copy(), "velocity": tr.velocity.copy(),
            "mu": tr.imm.mu.copy(),
        } for tr in self.tracks]
        return FrameRecord(t=t, tracks=snapshot, assignments=assignments,
                           beta_summary=beta_summary, spawned=spawned,
                           deleted=deleted, resurrected=resurrected)


def run_tracker(measurement_frames: list[tuple[float, list[Measurement]]],
                cfg: TrackerConfig) -> list[FrameRecord]:
    """Run a tracker over (t, measurements) frames and return the log."""
    tracker = Tracker(cfg)
    return [tracker.step(ms, t) for t, ms in measurement_frames]
