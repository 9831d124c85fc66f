import numpy as np
import pytest

from sparsetrack.core import Measurement, ValidationError
from sparsetrack.metrics import (DetectionReport, MotReport,
                                 check_frame_times, eval_detection, eval_mot)
from sparsetrack.simulator import GroundTruth
from sparsetrack.trackman import FrameRecord


def make_gt(positions, visible=None, dt=0.1):
    positions = np.asarray(positions, dtype=float)
    F = positions.shape[0]
    if visible is None:
        visible = np.ones(positions.shape[:2], dtype=bool)
    return GroundTruth(t=np.arange(F) * dt, positions=positions,
                       velocities=np.zeros_like(positions),
                       visible=np.asarray(visible, dtype=bool))


def frame(t, tracks):
    """tracks: list of (id, position) confirmed-track tuples."""
    return FrameRecord(
        t=t,
        tracks=[{"id": i, "status": "confirmed",
                 "position": np.asarray(p, float),
                 "velocity": np.zeros(3), "mu": np.ones(3) / 3}
                for i, p in tracks],
        assignments=[], beta_summary=None, spawned=[], deleted=[],
        resurrected=[])


def meas(pos):
    return Measurement(position=np.asarray(pos, float), support=1)


A = np.array([0.0, 0.0, 10.0])
B = np.array([10.0, 0.0, 10.0])


class TestDetectionReport:
    def test_table_row_consistency(self):
        rep = DetectionReport.from_counts(46, 1, 582)
        assert round(rep.precision, 3) == 0.979
        assert round(rep.recall, 3) == 0.073

    def test_zero_detections(self):
        gt = make_gt(np.stack([np.stack([A, B])] * 3))
        rep = eval_detection([[], [], []], gt)
        assert rep.precision is None
        assert rep.recall == 0.0
        assert rep.det_pct == 0.0

    def test_perfect_detections_zero_rmse(self):
        gt = make_gt(np.stack([np.stack([A, B])] * 3))
        frames = [[meas(A), meas(B)] for _ in range(3)]
        rep = eval_detection(frames, gt)
        assert rep.tp == 6 and rep.fp == 0 and rep.fn == 0
        assert rep.rmse == pytest.approx(0.0)
        assert rep.det_pct == pytest.approx(100.0)

    def test_tp_plus_fn_is_visible_total(self):
        rng = np.random.default_rng(0)
        gt = make_gt(np.stack([np.stack([A, B])] * 10),
                     visible=rng.random((10, 2)) < 0.7)
        frames = []
        for k in range(10):
            ms = []
            if rng.random() < 0.6:
                ms.append(meas(A + rng.normal(0, 0.2, 3)))
            frames.append(ms)
        rep = eval_detection(frames, gt)
        assert rep.tp + rep.fn == int(gt.visible.sum())

    def test_misaligned_rejected(self):
        gt = make_gt(np.stack([np.stack([A, B])] * 3))
        with pytest.raises(ValidationError):
            eval_detection([[], []], gt)


class TestEvalMot:
    def test_hand_computed_mota(self):
        # 5 frames x 2 visible targets: gt_total = 10.
        # FP = 1 (extra track frame 0), FN = 2 (B unmatched frames 3-4),
        # IDSW = 1 (A's track id changes at frame 2). MOTA = 1 - 4/10 = 0.6.
        gt = make_gt(np.stack([np.stack([A, B])] * 5))
        log = [
            frame(0.0, [(1, A), (2, B), (9, (50.0, 0, 0))]),
            frame(0.1, [(1, A), (2, B)]),
            frame(0.2, [(3, A), (2, B)]),
            frame(0.3, [(3, A)]),
            frame(0.4, [(3, A)]),
        ]
        rep = eval_mot(log, gt)
        assert (rep.fp, rep.fn, rep.id_switches) == (1, 2, 1)
        assert rep.gt_total == 10
        assert rep.mota == pytest.approx(0.6)

    def test_perfect_single_track(self):
        gt = make_gt(np.stack([A[None, :]] * 4))
        log = [frame(0.1 * k, [(7, A)]) for k in range(4)]
        rep = eval_mot(log, gt)
        assert rep.mota == pytest.approx(1.0)
        assert rep.id_switches == 0
        assert rep.rmse == pytest.approx(0.0)

    def test_permanent_swap_counts_two_switches(self):
        gt = make_gt(np.stack([np.stack([A, B])] * 4))
        log = [
            frame(0.0, [(1, A), (2, B)]),
            frame(0.1, [(1, A), (2, B)]),
            frame(0.2, [(2, A), (1, B)]),   # ids swap permanently
            frame(0.3, [(2, A), (1, B)]),
        ]
        rep = eval_mot(log, gt)
        assert rep.id_switches == 2
        assert rep.fp == 0 and rep.fn == 0
        assert rep.mota == pytest.approx(1.0 - 2 / 8)

    def test_gap_without_id_change_is_not_a_switch(self):
        gt = make_gt(np.stack([A[None, :]] * 4))
        log = [
            frame(0.0, [(1, A)]),
            frame(0.1, []),
            frame(0.2, [(1, A)]),
            frame(0.3, [(1, A)]),
        ]
        rep = eval_mot(log, gt)
        assert rep.id_switches == 0
        assert rep.fn == 1

    def test_relabeling_invariance(self):
        gt = make_gt(np.stack([np.stack([A, B])] * 4))
        log = [
            frame(0.0, [(1, A), (2, B)]),
            frame(0.1, [(3, A), (2, B)]),
            frame(0.2, [(3, A), (2, B), (8, (50.0, 0, 0))]),
            frame(0.3, [(3, A)]),
        ]
        relabel = {1: 11, 2: 22, 3: 33, 8: 88}
        log2 = [frame(r.t, [(relabel[tr["id"]], tr["position"])
                            for tr in r.tracks]) for r in log]
        r1, r2 = eval_mot(log, gt), eval_mot(log2, gt)
        assert r1.id_switches == r2.id_switches
        assert r1.mota == pytest.approx(r2.mota)

    def test_mota_recomputable_from_fields(self):
        gt = make_gt(np.stack([np.stack([A, B])] * 4))
        log = [
            frame(0.0, [(1, A)]),
            frame(0.1, [(1, A), (2, B)]),
            frame(0.2, [(4, A), (2, B)]),
            frame(0.3, [(4, A), (2, B), (9, (40.0, 0, 0))]),
        ]
        rep = eval_mot(log, gt)
        assert rep.mota == pytest.approx(
            1.0 - (rep.fp + rep.fn + rep.id_switches) / rep.gt_total)

    def test_tentative_tracks_ignored(self):
        gt = make_gt(np.stack([A[None, :]] * 2))
        rec = frame(0.0, [])
        rec.tracks.append({"id": 5, "status": "tentative",
                           "position": A, "velocity": np.zeros(3),
                           "mu": np.ones(3) / 3})
        log = [rec, frame(0.1, [(5, A)])]
        rep = eval_mot(log, gt)
        assert rep.fn == 1  # the tentative hypothesis does not count

    def test_misaligned_times_rejected(self):
        # record k is scored against truth frame k: a log half a frame off,
        # or with a NaN time, used to be scored as if aligned
        gt = make_gt(np.stack([A[None, :]] * 4))
        log = [frame(0.1 * k + 0.05, [(1, A)]) for k in range(4)]
        with pytest.raises(ValidationError,
                           match="timestamp misalignment at frame 0"):
            eval_mot(log, gt)
        log = [frame(0.1 * k, [(1, A)]) for k in range(4)]
        log[2] = frame(np.nan, [(1, A)])
        with pytest.raises(ValidationError,
                           match="timestamp misalignment at frame 2"):
            eval_mot(log, gt)
        log[2] = frame(0.2 + 1e-10, [(1, A)])
        assert eval_mot(log, gt).mota == pytest.approx(1.0)
        with pytest.raises(ValidationError, match="frame count mismatch"):
            eval_mot(log[:3], gt)

    def test_empty_truth_rejected(self):
        gt = make_gt(np.zeros((1, 2, 3)), visible=np.zeros((1, 2), dtype=bool))
        with pytest.raises(ValidationError):
            eval_mot([frame(0.0, [])], gt)

    def test_same_message_as_frame_time_check(self):
        gt = make_gt(np.stack([A[None, :]] * 2))
        with pytest.raises(ValidationError, match="frame 1: 0.3 vs 0.1"):
            check_frame_times([0.0, 0.3], gt)
        with pytest.raises(ValidationError, match="frame 1: 0.3 vs 0.1"):
            eval_mot([frame(0.0, []), frame(0.3, [])], gt)

    def test_report_roundtrip_dict(self):
        rep = MotReport(mota=0.5, rmse=0.1, id_switches=2, fp=1, fn=2,
                        gt_total=10)
        d = rep.to_dict()
        assert d["mota"] == 0.5 and d["id_switches"] == 2


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
def test_match_radius_must_be_finite_and_positive(radius):
    # a NaN or infinite radius matched every pair, so a detection or a
    # track 164 m off its truth was scored as a match
    gt = make_gt(np.stack([A[None, :]] * 2))
    far = A + (164.0, 0.0, 0.0)
    with pytest.raises(ValidationError, match="match_radius"):
        eval_detection([[meas(far)]] * 2, gt, radius)
    with pytest.raises(ValidationError, match="match_radius"):
        eval_mot([frame(0.1 * k, [(1, far)]) for k in range(2)], gt, radius)
