import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_metrics
from sparsetrack.core import Measurement, ValidationError
from sparsetrack.metrics import (DetectionReport, MotReport, _greedy_match,
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

    def test_continuity_is_one_to_one(self):
        # track 5 follows truth 0, then truth 1 while truth 0 is hidden;
        # when both are visible it covers only the first, and one is missed
        gt = make_gt([[[0.0, 0.0, 10.0], [0.6, 0.0, 10.0]]] * 3,
                     visible=[[True, False], [False, True], [True, True]])
        log = [frame(0.1 * k, [(5, [0.3, 0.0, 10.0])]) for k in range(3)]
        for score in (eval_mot, reference_metrics.eval_mot):
            rep = score(log, gt)
            assert (rep.fn, rep.fp, rep.id_switches) == (1, 0, 0)
            assert rep.mota == pytest.approx(1.0 - 1 / 4)

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


@pytest.mark.parametrize("radius", ["1", None, True, 10**400],
                         ids=["str", "None", "True", "10**400"])
def test_match_radius_must_be_a_number(radius):
    # "1" and None raised TypeError; True and 10**400 were accepted
    gt = make_gt(np.stack([A[None, :]] * 2))
    with pytest.raises(ValidationError, match="match_radius"):
        eval_detection([[meas(A)]] * 2, gt, radius)
    with pytest.raises(ValidationError, match="match_radius"):
        eval_mot([frame(0.1 * k, [(1, A)]) for k in range(2)], gt, radius)


# -- the scorers on Python floats give the array scorers' reports ----------

# a coarse grid gives tied and exactly-equal distances; -0.0 is on it
COORD = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0, 2.5]),
                  st.floats(-4.0, 4.0))


def vec3():
    return st.tuples(COORD, COORD, COORD).map(lambda v: np.array(v))


def outcome(score, *args):
    """The report, or the message of the ValidationError raised."""
    try:
        return score(*args)
    except ValidationError as exc:
        return str(exc)


@st.composite
def scored_streams(draw):
    """(truth, frame log, detections, match radius) of a few frames.

    Each track id keeps one offset from the truth it follows, so a
    distance recurs from frame to frame, and the radius is often one such
    distance, or one ulp either side of it: that exercises the continuity
    check's 1-D norm.
    """
    f, n = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    pos = draw(hnp.arrays(np.float64, (f, n, 3), elements=COORD))
    gt = GroundTruth(t=np.arange(f) * 0.1, positions=pos,
                     velocities=np.zeros_like(pos),
                     visible=draw(hnp.arrays(bool, (f, n))))
    offsets = draw(st.lists(vec3(), min_size=1, max_size=4))

    def near(k):
        """A point at an offset from one of frame k's truths, or anywhere."""
        i = draw(st.integers(0, len(offsets) - 1))
        if n and draw(st.booleans()):
            return i, pos[k][draw(st.integers(0, n - 1))] + offsets[i]
        return i, draw(vec3())

    log, dets = [], []
    for k in range(f):
        tracks = {}
        for _ in range(draw(st.integers(0, 4))):
            i, p = near(k)
            tracks[i] = p
        rec = frame(0.1 * k, list(tracks.items()))
        for tr in rec.tracks:
            tr["status"] = draw(st.sampled_from(["confirmed", "tentative"]))
        log.append(rec)
        dets.append([meas(near(k)[1]) for _ in range(draw(st.integers(0, 4)))])
    # distances as the table's norm and the continuity check's 1-D norm
    dists = [float(np.linalg.norm(a - b, **axis))
             for axis in ({}, {"axis": -1})
             for rec, ms, ps in zip(log, dets, pos) for b in ps
             for a in [tr["position"] for tr in rec.tracks]
             + [m.position for m in ms]]
    radius = draw(st.sampled_from([0.5, 1.0, 3.0] + dists))
    radius = draw(st.sampled_from([radius, math.nextafter(radius, 0.0),
                                   math.nextafter(radius, math.inf)]))
    return gt, log, dets, radius if radius > 0 else 1.0


@settings(max_examples=300, deadline=None)
@given(scored_streams())
def test_scores_equal_the_array_scorers(stream):
    gt, log, dets, radius = stream
    assert (outcome(eval_mot, log, gt, radius)
            == outcome(reference_metrics.eval_mot, log, gt, radius))
    assert (eval_detection(dets, gt, radius)
            == reference_metrics.eval_detection(dets, gt, radius))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dense_frames_score_as_the_array_scorer(seed):
    # frames of 100+ detections, as dense-sweep's minPts=1 sweep gives,
    # some on a truth, some at one distance from it, some repeated
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-5.0, 5.0, (3, 2, 3))
    gt = make_gt(pos, visible=rng.random((3, 2)) < 0.8)
    frames = []
    for k in range(3):
        pts = rng.uniform(-20.0, 20.0, (rng.integers(100, 130), 3))
        pts[:4] = pos[k][rng.integers(0, 2, 4)] + rng.normal(0, 0.5, (4, 3))
        pts[4:6] = pts[0]
        pts[6] = pos[k][0] + (0.6, 0.0, -0.8)
        frames.append([meas(p) for p in rng.permutation(pts)])
    for radius in (1.0, 0.5, 3.0):
        assert (eval_detection(frames, gt, radius)
                == reference_metrics.eval_detection(frames, gt, radius))


def test_continuity_radius_is_decided_as_the_1d_norm():
    # The 1-D norm is a BLAS dot, which rounds some distances unlike the
    # Python sum (or the table's norm). Track 1 matches the truth in frame
    # 0, then moves to such a distance d from it. Where the continuity
    # check keeps it, the closer track 2 is a false positive; where the
    # check drops it, track 2 takes the truth with an identity switch.
    rng = np.random.default_rng(7)
    for offset in rng.standard_normal((2000, 3)):
        x, y, z = offset.tolist()
        d = float(np.linalg.norm(offset))
        d_sum = math.sqrt((x * x + y * y) + z * z)
        if d != d_sum:
            break
    else:
        pytest.skip("this BLAS rounds every norm as the Python sum does")
    gt = make_gt(np.zeros((3, 1, 3)))
    log = [frame(0.0, [(1, offset / 4)])] + [
        frame(0.1 * k, [(1, offset), (2, offset / 2)]) for k in (1, 2)]
    for radius in (d, d_sum):
        assert (eval_mot(log, gt, radius)
                == reference_metrics.eval_mot(log, gt, radius))


@settings(max_examples=300, deadline=None)
@given(st.lists(vec3(), max_size=6), st.lists(vec3(), max_size=4),
       st.sampled_from([0.5, 1.0, 1.5, 3.0]))
def test_greedy_match_picks_the_array_pairs_in_order(dets, truths, radius):
    # on the grid many distances tie: they go to the first in row-major order
    assert _greedy_match([p.tolist() for p in dets],
                         [p.tolist() for p in truths], radius) == \
        reference_metrics.greedy_match(np.array(dets).reshape(-1, 3),
                                       np.array(truths).reshape(-1, 3),
                                       radius)


def test_radius_edge_is_decided_as_the_table_norm():
    # a detection exactly at the radius, or one ulp either side, where
    # another order of the squared sum would round the distance differently
    rng = np.random.default_rng(3)
    for offset in rng.standard_normal((2000, 3)):
        x, y, z = offset.tolist()
        sums = (x * x + y * y) + z * z, x * x + (y * y + z * z)
        if math.sqrt(sums[0]) != math.sqrt(sums[1]):
            break
    gt = make_gt(np.zeros((1, 1, 3)))
    d = float(np.linalg.norm(offset[None, None], axis=-1)[0, 0])
    for radius in (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
        assert (eval_detection([[meas(offset)]], gt, radius)
                == reference_metrics.eval_detection([[meas(offset)]], gt,
                                                    radius))


def test_underflowing_distances_match_as_the_array_scorer():
    # 1e-165 squares to 0.0, so this detection is at distance 0 from its
    # truth, inside a radius of 1e-170 that its x offset alone exceeds
    gt = make_gt(np.stack([A[None, :]] * 2))
    near = [[meas(A + (1e-165, 0.0, 0.0))], [meas(A + (0.0, -3e-170, 0.0))]]
    for radius in (1e-170, 2e-170, 5e-324):
        assert (eval_detection(near, gt, radius)
                == reference_metrics.eval_detection(near, gt, radius))
        assert eval_detection(near, gt, radius).tp == 2
