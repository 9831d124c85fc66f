"""Track lifecycle and the per-frame tracker step.

Composes gating, Hungarian/JPDA association, and IMM filtering into a
sequential state machine over one measurement stream. The filter state of
all tracks is one track-batched model bank, so each stage runs once per
frame whatever the track count. Dormant tracks are frozen at their last
fused state and can be resurrected by a nearby unassigned measurement,
keeping their original id.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (Measurement, ValidationError, check_field_types,
                   is_number, number_array)
from . import association as assoc
from .association import JpdaParams
from .filter import (FilterConfig, IMMState, Innovation, _pda_update,
                     imm_init, imm_predict, imm_correct)

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
        check_field_types(self)
        if not (self.confirm_hits >= 1 and self.max_misses_active >= 0
                and self.max_misses_dormant >= 0):
            raise ValidationError("confirm_hits must be >= 1, miss limits >= 0")
        if not (self.init_min_separation > 0 and self.resurrect_radius > 0):
            raise ValidationError("separations must be positive")
        if not 0.0 <= self.jpda_miss_threshold < 1.0:
            raise ValidationError("jpda_miss_threshold must be in [0, 1)")
        w = number_array("cost_weights", self.cost_weights)
        if not (w.shape == (3,) and (w >= 0).all()):
            raise ValidationError("cost_weights must be 3 finite weights >= 0")
        if self.association_mode not in (HUNGARIAN, JPDA):
            raise ValidationError(
                f"unknown association mode {self.association_mode!r}")


@dataclass
class Track:
    """Lifecycle state of one track; its filter state is its row of
    `Tracker.bank`. `anchor` is the position of its last confident
    detection and `anchor_t` that detection's time, both NaN until its
    first hit; Hungarian costs read them."""

    id: int
    status: str
    misses: int = 0
    consec_hits: int = 0
    anchor: np.ndarray = field(default_factory=lambda: np.full(3, np.nan))
    anchor_t: float = np.nan


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
    """Sequential multi-target tracker over one measurement stream.

    `bank` holds the IMM model banks of all tracks, row i for `tracks[i]`,
    so each filter stage runs once per frame for every track.
    """

    def __init__(self, cfg: TrackerConfig):
        self.cfg = cfg
        self.tracks: list[Track] = []
        m = cfg.filter.n_models
        self.bank = IMMState._of(np.zeros((0, m, 6)), np.zeros((0, m, 6, 6)),
                                 np.zeros((0, m)))
        self._next_id = 0
        self._last_t: float | None = None

    # -- internals ---------------------------------------------------------

    def _imm_correct_pda(self, pred: IMMState, dets: np.ndarray,
                         beta: np.ndarray, inn: Innovation) -> IMMState:
        """JPDA update of the tracks in `pred` from checked arrays and the
        gate's per-model innovation terms, one call per frame; perfbench
        times it under this name."""
        return _pda_update(pred, dets, beta, self.cfg.filter, inn)

    # -- public API --------------------------------------------------------

    def step(self, measurements: list[Measurement], t: float) -> FrameRecord:
        cfg = self.cfg
        if not is_number(t):
            raise ValidationError(
                f"frame time must be a finite number, got t={t!r}")
        if self._last_t is not None and t <= self._last_t:
            raise ValidationError(
                f"out-of-order frame: t={t} after t={self._last_t}")
        dt = None if self._last_t is None else t - self._last_t

        dets = (np.array([m.position for m in measurements])
                if measurements else np.zeros((0, 3)))

        tracks = self.tracks
        act = [i for i, tr in enumerate(tracks)
               if tr.status in (TENTATIVE, CONFIRMED)]
        dorm = [i for i, tr in enumerate(tracks) if tr.status == DORMANT]
        active = [tracks[i] for i in act]
        # the active tracks' banks; dormant rows stay frozen
        pred = self.bank.rows(act)

        # the detection each active track takes, or -1
        assigned = [-1] * len(act)
        beta_summary: list[dict] | None = None
        # detections neither assigned to nor (JPDA) inside the gate of an
        # active track
        leftover = list(range(len(dets)))

        # a non-finite filter result raises NumericalError, so numpy's
        # overflow warnings would only repeat it
        with np.errstate(all="ignore"):
            # 1. predict active tracks
            if dt is not None and act:
                pred = imm_predict(pred, dt, cfg.filter)

            # 2-4. gate, associate, update
            if act and len(dets):
                # one innovation pass: the fused gate and every model's
                # terms for the update
                g = assoc.gate(*pred.measurement_stack(cfg.filter.R), dets,
                               cfg.jpda)
                if cfg.association_mode == HUNGARIAN:
                    cost = assoc.build_cost(
                        dets, g, np.array([tr.anchor for tr in active]),
                        np.array([tr.anchor_t for tr in active]),
                        pred.fused_x[:, 3:], cfg.cost_weights, t)
                    hit = assoc.hungarian(cost)
                    pred = imm_correct(pred, dets, hit, cfg.filter, g.rest)
                    assigned = hit.tolist()
                    leftover = sorted(set(leftover).difference(assigned))
                else:
                    beta = assoc.jpda(g, cfg.jpda)
                    pred = self._imm_correct_pda(pred, dets, beta, g.rest)
                    rows = beta.tolist()
                    # a hit takes the first most probable detection, as
                    # argmax does
                    assigned = [r.index(max(r[1:]), 1) - 1
                                if r[0] <= cfg.jpda_miss_threshold else -1
                                for r in rows]
                    beta_summary = [
                        {"id": tr.id, "beta0": r[0], "best": j}
                        for tr, r, j in zip(active, rows, assigned)]
                    # detections inside any active gate are not initiation
                    # sources
                    leftover = [j for j, gated in enumerate(
                        g.feasible.any(axis=0).tolist()) if not gated]

        # 5. hits and lifecycle
        assignments: list[tuple[int, int]] = []
        deleted: list[int] = []
        for tr, j in zip(active, assigned):
            if j >= 0:
                tr.anchor, tr.anchor_t = dets[j].copy(), t
                assignments.append((tr.id, j))
            if lifecycle_advance(tr, j >= 0, cfg) == DELETED:
                deleted.append(tr.id)

        # where each live track is: updated, frozen, or where it came back
        fused = pred.fused_x
        live = [p for tr, p in zip(active, fused[:, :3])
                if tr.status != DELETED]
        born: dict[int, int] = {}  # id -> detection: resurrections, spawns

        # 6. dormant tracks miss, or come back at a nearby leftover detection
        for i, pos in zip(dorm, self.bank.fused_x[dorm, :3] if dorm else ()):
            tr = tracks[i]
            if lifecycle_advance(tr, False, cfg) == DELETED:
                deleted.append(tr.id)
                continue
            best_j, best_d = -1, cfg.resurrect_radius
            for j in leftover:
                d = float(np.linalg.norm(dets[j] - pos))
                if d <= best_d:
                    best_j, best_d = j, d
            if best_j >= 0:
                tr.status = CONFIRMED
                tr.misses = 0
                tr.consec_hits = 1
                tr.anchor, tr.anchor_t = dets[best_j].copy(), t
                assignments.append((tr.id, best_j))
                leftover.remove(best_j)
                born[tr.id] = best_j
                pos = dets[best_j]
            live.append(pos)
        resurrected = list(born)

        # 7. initiation with the minimum-separation constraint
        spawned: list[Track] = []
        next_id = self._next_id
        for j in leftover:
            p = dets[j]
            if any(np.linalg.norm(p - q) < cfg.init_min_separation
                   for q in live):
                continue
            live.append(p)
            born[next_id] = j
            spawned.append(Track(id=next_id, status=TENTATIVE))
            next_id += 1

        # 8. the next bank, gathered once in track order from the frozen
        # bank, the active tracks' updated rows and one fresh row per birth;
        # a track's later row replaces its earlier one
        tracks = [tr for tr in tracks if tr.status != DELETED] + spawned
        bank = pred
        if dorm or born or deleted:
            sources = [pred]
            if born:
                sources.append(imm_init(dets[list(born.values())], cfg.filter))
            row = {tid: i for i, tid in enumerate(
                [tr.id for tr in self.tracks + active] + list(born))}
            bank = self.bank.append(*sources).rows(
                [row[tr.id] for tr in tracks])
            fused = bank.fused_x
        # commit the frame: the tracks and their banks are replaced together,
        # and a filter or association failure, which is raised before any
        # track is touched, leaves the clock and every track as they were
        self.tracks, self.bank = tracks, bank
        self._next_id, self._last_t = next_id, t

        snapshot = [{
            "id": tr.id, "status": tr.status,
            "position": x[:3], "velocity": x[3:], "mu": mu,
        } for tr, x, mu in zip(self.tracks, fused, bank.mu.copy())]
        return FrameRecord(t=t, tracks=snapshot, assignments=assignments,
                           beta_summary=beta_summary,
                           spawned=[tr.id for tr in spawned],
                           deleted=deleted, resurrected=resurrected)


def run_tracker(measurement_frames: list[tuple[float, list[Measurement]]],
                cfg: TrackerConfig) -> list[FrameRecord]:
    """Run a tracker over (t, measurements) frames and return the log."""
    tracker = Tracker(cfg)
    return [tracker.step(ms, t) for t, ms in measurement_frames]
