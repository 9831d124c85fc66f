"""Detection and CLEAR-MOT evaluation against simulator ground truth.

Matching is distance-based and one-to-one in every frame. For MOT each
truth first keeps its previous track while it stays within the match
radius and no other truth of the frame has taken it (continuity); the
rest are matched greedily. Identity switches are counted per ground-truth
identity whenever its matched track id changes between consecutive
matched frames.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .core import Measurement, ValidationError, is_number
from .simulator import GroundTruth
from .trackman import CONFIRMED, FrameRecord


@dataclass(frozen=True)
class DetectionReport:
    tp: int
    fp: int
    fn: int
    precision: float | None
    recall: float | None
    f1: float | None
    rmse: float | None
    det_pct: float | None   # percent of visible frames with >= 1 detection

    @staticmethod
    def from_counts(tp: int, fp: int, fn: int, rmse: float | None = None,
                    det_pct: float | None = None) -> "DetectionReport":
        precision = tp / (tp + fp) if tp + fp > 0 else None
        recall = tp / (tp + fn) if tp + fn > 0 else None
        f1 = None
        if precision is not None and recall is not None and precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        return DetectionReport(tp=tp, fp=fp, fn=fn, precision=precision,
                               recall=recall, f1=f1, rmse=rmse, det_pct=det_pct)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MotReport:
    mota: float
    rmse: float | None
    id_switches: int
    fp: int
    fn: int
    gt_total: int

    def to_dict(self) -> dict:
        return asdict(self)


def _sq_dist(u: list, v: list) -> float:
    """Squared distance of 3-vectors, summed in `np.sum(d ** 2)`'s order."""
    dx, dy, dz = u[0] - v[0], u[1] - v[1], u[2] - v[2]
    return (dx * dx + dy * dy) + dz * dz


def _within(u: list, v: list, radius: float) -> bool:
    """Whether `np.linalg.norm(u - v) <= radius`. The 1-D norm is a BLAS
    dot that may round the last bit unlike `_sq_dist`, so numpy decides a
    distance within rounding of `radius` (or one that overflowed)."""
    d = math.sqrt(_sq_dist(u, v))
    if abs(d - radius) <= 1e-12 * radius + 1e-300 / radius or d == math.inf:
        d = float(np.linalg.norm([a - b for a, b in zip(u, v)]))
    return d <= radius


def _greedy_match(dets: list, truths: list, radius: float
                  ) -> list[tuple[int, int]]:
    """Nearest-first one-to-one matching of 3-vectors within `radius`.

    Pairs come in the order repeated `np.argmin` over the distance table
    (`np.linalg.norm(axis=-1)`, equal to `sqrt(_sq_dist)`) would pick
    them: by distance, ties to the first in row-major order.
    """
    # |dx| > reach >= 1e-150 squares without underflow, and sqrt(dx*dx)
    # is |dx|, so such a pair is farther than `radius`
    reach = radius + 1e-150
    cands = []
    for j, (a, b, c) in enumerate(truths):
        for i, (x, y, z) in enumerate(dets):
            dx = x - a
            if -reach <= dx <= reach:
                dy, dz = y - b, z - c
                d = math.sqrt((dx * dx + dy * dy) + dz * dz)  # as _sq_dist
                if d <= radius:
                    cands.append((d, i, j))
    cands.sort()
    pairs, rows, cols = [], set(), set()
    for _, i, j in cands:
        if i not in rows and j not in cols:
            pairs.append((i, j))
            rows.add(i)
            cols.add(j)
    return pairs


def check_frame_times(times: list[float], gt: GroundTruth) -> None:
    """Raise `ValidationError` unless there is one time per truth frame and
    time k is within 1e-9 of `gt.t[k]` (a NaN time is misaligned)."""
    if len(times) != gt.n_frames:
        raise ValidationError(
            f"frame count mismatch: {len(times)} frames vs {gt.n_frames} truth")
    for k, (t, g) in enumerate(zip(times, gt.t.tolist())):
        if not abs(t - g) <= 1e-9:
            raise ValidationError(
                f"timestamp misalignment at frame {k}: {t} vs {g}")


def _check_radius(match_radius: float) -> None:
    if not (is_number(match_radius) and match_radius > 0):
        raise ValidationError(
            f"match_radius must be finite and > 0, got {match_radius!r}")


def eval_detection(detections_per_frame: list[list[Measurement]],
                   gt: GroundTruth, match_radius: float = 1.0
                   ) -> DetectionReport:
    """Frame-wise greedy matching of detections to visible targets."""
    _check_radius(match_radius)
    if len(detections_per_frame) != gt.n_frames:
        raise ValidationError("detections and ground truth are misaligned")
    tp = fp = fn = 0
    sq_err = []
    visible_frames = 0
    detected_frames = 0
    for ms, pos, vis in zip(detections_per_frame, gt.positions, gt.visible):
        truths = [p for p, seen in zip(pos.tolist(), vis.tolist()) if seen]
        dets = [m.position.tolist() for m in ms]
        if truths:
            visible_frames += 1
            if dets:
                detected_frames += 1
        pairs = _greedy_match(dets, truths, match_radius)
        tp += len(pairs)
        fp += len(dets) - len(pairs)
        fn += len(truths) - len(pairs)
        for i, j in pairs:
            sq_err.append(_sq_dist(dets[i], truths[j]))
    rmse = float(np.sqrt(np.mean(sq_err))) if sq_err else None
    det_pct = (100.0 * detected_frames / visible_frames
               if visible_frames else None)
    return DetectionReport.from_counts(tp, fp, fn, rmse=rmse, det_pct=det_pct)


def eval_mot(frame_log: list[FrameRecord], gt: GroundTruth,
             match_radius: float = 1.0) -> MotReport:
    """CLEAR-MOT over confirmed-track outputs.

    Record k is scored against truth frame k, so their times must agree
    within 1e-9. Prior-frame correspondences are kept while both sides
    persist within the match radius, one truth per track (the first
    visible one keeps it); the remainder is matched greedily by distance.
    """
    _check_radius(match_radius)
    check_frame_times([rec.t for rec in frame_log], gt)
    fp = fn = idsw = 0
    gt_total = 0
    sq_err = []
    corr: dict[int, int] = {}   # gt index -> track id at last matched frame
    for rec, pos, vis in zip(frame_log, gt.positions, gt.visible):
        pos, vis = pos.tolist(), vis.tolist()   # per frame: no stream copy
        hyps = [(tr["id"], np.asarray(tr["position"]).tolist())
                for tr in rec.tracks if tr["status"] == CONFIRMED]
        vis_idx = [gi for gi, seen in enumerate(vis) if seen]
        gt_total += len(vis_idx)
        pos_by_id = dict(hyps)
        matched_gt: dict[int, int] = {}
        used_tracks: set[int] = set()
        # continuity: keep existing correspondences that still hold
        for gi in vis_idx:
            tid = corr.get(gi)
            if (tid is not None and tid in pos_by_id
                    and tid not in used_tracks
                    and _within(pos_by_id[tid], pos[gi], match_radius)):
                matched_gt[gi] = tid
                used_tracks.add(tid)
        # greedy matching for the rest
        rem_gt = [gi for gi in vis_idx if gi not in matched_gt]
        rem_tracks = [(tid, p) for tid, p in hyps if tid not in used_tracks]
        if rem_gt and rem_tracks:
            for i, j in _greedy_match([p for _, p in rem_tracks],
                                      [pos[gi] for gi in rem_gt],
                                      match_radius):
                tid = rem_tracks[i][0]
                matched_gt[rem_gt[j]] = tid
                used_tracks.add(tid)
        for gi, tid in matched_gt.items():
            prev = corr.get(gi)
            if prev is not None and prev != tid:
                idsw += 1
            corr[gi] = tid
            sq_err.append(_sq_dist(pos_by_id[tid], pos[gi]))
        fn += len(vis_idx) - len(matched_gt)
        fp += len(hyps) - len(used_tracks)
    if gt_total == 0:
        raise ValidationError("ground truth has no visible targets")
    mota = 1.0 - (fp + fn + idsw) / gt_total
    rmse = float(np.sqrt(np.mean(sq_err))) if sq_err else None
    return MotReport(mota=mota, rmse=rmse, id_switches=idsw, fp=fp, fn=fn,
                     gt_total=gt_total)
