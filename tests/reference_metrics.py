"""Array-based scorers the tests compare `sparsetrack.metrics` against.

`greedy_match`, `eval_detection` and `eval_mot` score with numpy
arrays: `np.linalg.norm(axis=-1)` and `np.argmin` for the greedy
matching, a 1-D `np.linalg.norm` for the continuity check and
`np.sum(v ** 2)` for each squared error. The library computes the same
reports on Python floats and must give them bit for bit.
"""
from __future__ import annotations

import numpy as np

from sparsetrack.core import Measurement, ValidationError
from sparsetrack.metrics import (DetectionReport, MotReport, _check_radius,
                                 check_frame_times)
from sparsetrack.simulator import GroundTruth
from sparsetrack.trackman import CONFIRMED, FrameRecord


def greedy_match(dets: np.ndarray, truths: np.ndarray, radius: float
                 ) -> list[tuple[int, int]]:
    """Nearest-first one-to-one matching within `radius`."""
    pairs = []
    if len(dets) == 0 or len(truths) == 0:
        return pairs
    d = np.linalg.norm(dets[:, None, :] - truths[None, :, :], axis=-1)
    while True:
        i, j = np.unravel_index(np.argmin(d), d.shape)
        if d[i, j] > radius:
            break
        pairs.append((int(i), int(j)))
        d[i, :] = np.inf
        d[:, j] = np.inf
        if np.all(np.isinf(d)):
            break
    return pairs


def eval_detection(detections_per_frame: list[list[Measurement]],
                   gt: GroundTruth, match_radius: float = 1.0
                   ) -> DetectionReport:
    _check_radius(match_radius)
    if len(detections_per_frame) != gt.n_frames:
        raise ValidationError("detections and ground truth are misaligned")
    tp = fp = fn = 0
    sq_err = []
    visible_frames = 0
    detected_frames = 0
    for k in range(gt.n_frames):
        vis_idx = np.flatnonzero(gt.visible[k])
        truths = gt.positions[k][vis_idx]
        dets = np.array([m.position for m in detections_per_frame[k]]
                        ).reshape(-1, 3)
        if len(vis_idx):
            visible_frames += 1
            if len(dets):
                detected_frames += 1
        pairs = greedy_match(dets, truths, match_radius)
        tp += len(pairs)
        fp += len(dets) - len(pairs)
        fn += len(truths) - len(pairs)
        for i, j in pairs:
            sq_err.append(float(np.sum((dets[i] - truths[j]) ** 2)))
    rmse = float(np.sqrt(np.mean(sq_err))) if sq_err else None
    det_pct = (100.0 * detected_frames / visible_frames
               if visible_frames else None)
    return DetectionReport.from_counts(tp, fp, fn, rmse=rmse, det_pct=det_pct)


def eval_mot(frame_log: list[FrameRecord], gt: GroundTruth,
             match_radius: float = 1.0) -> MotReport:
    _check_radius(match_radius)
    check_frame_times([rec.t for rec in frame_log], gt)
    fp = fn = idsw = 0
    gt_total = 0
    sq_err = []
    corr: dict[int, int] = {}
    for k in range(gt.n_frames):
        rec = frame_log[k]
        hyps = [(tr["id"], np.asarray(tr["position"]))
                for tr in rec.tracks if tr["status"] == CONFIRMED]
        vis_idx = [int(i) for i in np.flatnonzero(gt.visible[k])]
        gt_total += len(vis_idx)
        pos_by_id = dict(hyps)
        matched_gt: dict[int, int] = {}
        used_tracks: set[int] = set()
        for gi in vis_idx:
            tid = corr.get(gi)
            if tid is not None and tid in pos_by_id and tid not in used_tracks:
                d = float(np.linalg.norm(pos_by_id[tid] - gt.positions[k][gi]))
                if d <= match_radius:
                    matched_gt[gi] = tid
                    used_tracks.add(tid)
        rem_gt = [gi for gi in vis_idx if gi not in matched_gt]
        rem_tracks = [(tid, p) for tid, p in hyps if tid not in used_tracks]
        if rem_gt and rem_tracks:
            dets = np.stack([p for _, p in rem_tracks])
            truths = gt.positions[k][rem_gt]
            for i, j in greedy_match(dets, truths, match_radius):
                tid = rem_tracks[i][0]
                matched_gt[rem_gt[j]] = tid
                used_tracks.add(tid)
        for gi, tid in matched_gt.items():
            prev = corr.get(gi)
            if prev is not None and prev != tid:
                idsw += 1
            corr[gi] = tid
            sq_err.append(float(np.sum(
                (pos_by_id[tid] - gt.positions[k][gi]) ** 2)))
        fn += len(vis_idx) - len(matched_gt)
        fp += len(hyps) - len(used_tracks)
    if gt_total == 0:
        raise ValidationError("ground truth has no visible targets")
    mota = 1.0 - (fp + fn + idsw) / gt_total
    rmse = float(np.sqrt(np.mean(sq_err))) if sq_err else None
    return MotReport(mota=mota, rmse=rmse, id_switches=idsw, fp=fp, fn=fn,
                     gt_total=gt_total)
