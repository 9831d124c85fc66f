from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrack import association, trackman
from sparsetrack.association import (AssociationComplexityError,
                                     JpdaParams, jpda)
from sparsetrack.core import Measurement, NumericalError, ValidationError
from sparsetrack.filter import imm_init, imm_predict
from sparsetrack.trackman import (CONFIRMED, DELETED, DORMANT, TENTATIVE,
                                  Track, Tracker, TrackerConfig,
                                  lifecycle_advance, run_tracker)


def meas(pos):
    return Measurement(position=np.asarray(pos, float), support=1)


def make_track(status=TENTATIVE):
    return Track(id=0, status=status)


class TestLifecycle:
    cfg = TrackerConfig()

    def test_confirmation_after_consecutive_hits(self):
        tr = make_track()
        for _ in range(self.cfg.confirm_hits):
            lifecycle_advance(tr, True, self.cfg)
        assert tr.status == CONFIRMED

    def test_broken_streak_delays_confirmation(self):
        tr = make_track()
        lifecycle_advance(tr, True, self.cfg)
        lifecycle_advance(tr, False, self.cfg)
        lifecycle_advance(tr, True, self.cfg)
        lifecycle_advance(tr, True, self.cfg)
        assert tr.status == TENTATIVE

    def test_confirmed_to_dormant(self):
        tr = make_track(CONFIRMED)
        for _ in range(self.cfg.max_misses_active + 1):
            lifecycle_advance(tr, False, self.cfg)
        assert tr.status == DORMANT

    def test_dormant_expiry(self):
        tr = make_track(DORMANT)
        for _ in range(self.cfg.max_misses_dormant + 1):
            lifecycle_advance(tr, False, self.cfg)
        assert tr.status == DELETED

    def test_miss_then_hit_stays_confirmed(self):
        tr = make_track(CONFIRMED)
        lifecycle_advance(tr, False, self.cfg)
        assert tr.status == CONFIRMED and tr.misses == 1
        lifecycle_advance(tr, True, self.cfg)
        assert tr.status == CONFIRMED and tr.misses == 0

    def test_tentative_expiry_deletes(self):
        tr = make_track(TENTATIVE)
        for _ in range(self.cfg.max_misses_active + 1):
            lifecycle_advance(tr, False, self.cfg)
        assert tr.status == DELETED

    def test_deleted_cannot_advance(self):
        tr = make_track(DELETED)
        with pytest.raises(ValidationError):
            lifecycle_advance(tr, True, self.cfg)


def cv_stream(n_frames, velocity=(1.0, 0.0, 0.0), start=(0.0, 0.0, 5.0),
              dt=0.1):
    v = np.asarray(velocity, float)
    p0 = np.asarray(start, float)
    return [(dt * k, [meas(p0 + v * dt * k)]) for k in range(n_frames)]


class TestTrackerStep:
    def test_min_separation_initiation(self):
        tracker = Tracker(TrackerConfig())
        rec = tracker.step([meas((0, 0, 5)), meas((0.1, 0, 5))], 0.0)
        assert len(rec.spawned) == 1
        assert len(tracker.tracks) == 1

    def test_ids_never_reused(self):
        cfg = TrackerConfig(max_misses_active=1)
        tracker = Tracker(cfg)
        tracker.step([meas((0, 0, 5))], 0.0)
        # starve the tentative track until deletion, then spawn a new one
        tracker.step([], 0.1)
        tracker.step([], 0.2)
        rec = tracker.step([meas((0, 0, 5))], 0.3)
        assert rec.spawned == [1]

    def test_out_of_order_frame_rejected(self):
        tracker = Tracker(TrackerConfig())
        tracker.step([], 1.0)
        with pytest.raises(ValidationError):
            tracker.step([], 0.5)

    @pytest.mark.parametrize("t_bad", [np.nan, np.inf, -np.inf, True, "1",
                                       None, 10**400, np.True_])
    def test_non_finite_time_changes_nothing(self, t_bad):
        # NaN used to be accepted and fail every later frame as a
        # non-finite filter state; inf made every later frame out of order;
        # a bool time was logged as `true`, which the log reader rejects
        cfg = TrackerConfig()
        tracker = Tracker(cfg)
        for t, ms in cv_stream(5):
            tracker.step(ms, t)
        bank, tracks = tracker.bank, list(tracker.tracks)
        state = [(tr.id, tr.status, tr.misses, tr.consec_hits,
                  tr.anchor.tolist(), tr.anchor_t) for tr in tracks]
        with pytest.raises(ValidationError, match="finite"):
            tracker.step([meas((0.5, 0, 5))], t_bad)
        assert tracker.bank is bank and tracker.tracks == tracks
        assert [(tr.id, tr.status, tr.misses, tr.consec_hits,
                 tr.anchor.tolist(), tr.anchor_t)
                for tr in tracker.tracks] == state
        assert tracker._last_t == t
        rec = tracker.step([meas((0.5, 0, 5))], 0.5)
        assert rec.assignments == [(tracks[0].id, 0)]

    @pytest.mark.parametrize("t", [1, np.float64(1.0), np.float32(1.0),
                                   np.int64(1)])
    def test_accepts_real_number_time(self, t):
        tracker = Tracker(TrackerConfig())
        tracker.step([meas((0, 0, 5))], 0.5)
        assert tracker.step([meas((0, 0, 5))], t).t == t

    @pytest.mark.parametrize("mode, target, name, error", [
        ("jpda", association, "jpda", AssociationComplexityError),
        ("hungarian", trackman, "imm_correct", NumericalError),
    ])
    def test_failed_frame_changes_nothing(self, mode, target, name, error):
        cfg = TrackerConfig(association_mode=mode)
        tracker = Tracker(cfg)
        for t, ms in cv_stream(5):
            tracker.step(ms, t)
        t_ok = t
        bank, tracks = tracker.bank, list(tracker.tracks)
        statuses = [(tr.id, tr.status, tr.misses, tr.consec_hits)
                    for tr in tracks]

        def failing(*args, **kwargs):
            raise error("forced failure")

        with mock.patch.object(target, name, failing):
            with pytest.raises(error):
                tracker.step([meas((0.5, 0, 5)),
                              meas((9.0, 0, 5))], 0.5)
        assert tracker.bank is bank and tracker.tracks == tracks
        assert [(tr.id, tr.status, tr.misses, tr.consec_hits)
                for tr in tracker.tracks] == statuses
        # the next frame predicts over the whole interval since the last
        # frame that went through
        tracker.step([], 0.6)
        expected = imm_predict(bank, 0.6 - t_ok, cfg.filter)
        assert np.array_equal(tracker.bank.fused_x, expected.fused_x)
        assert np.array_equal(tracker.bank.P, expected.P)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_jpda_weight_overflow_changes_nothing(self):
        # two tracks, each with a pair weight near 1e300, overflow JPDA's
        # event total on their first update
        cfg = TrackerConfig(association_mode="jpda",
                            jpda=JpdaParams(lambda_c=1e-300))
        tracker = Tracker(cfg)
        points = [(0.0, 0, 10), (5.0, 0, 10)]
        tracker.step([meas(p) for p in points], 0.0)
        bank, tracks = tracker.bank, list(tracker.tracks)
        statuses = [(tr.id, tr.status, tr.misses, tr.consec_hits)
                    for tr in tracks]
        with pytest.raises(NumericalError, match="JPDA"):
            tracker.step([meas(p) for p in points], 0.1)
        assert tracker.bank is bank and tracker.tracks == tracks
        assert [(tr.id, tr.status, tr.misses, tr.consec_hits)
                for tr in tracker.tracks] == statuses
        assert tracker._last_t == 0.0

    def test_hungarian_one_to_one(self):
        frames = [
            (0.1 * k,
             [meas((0.1 * k, 0, 5)),
              meas((0.1 * k, 3.0, 5))])
            for k in range(30)
        ]
        log = run_tracker(frames, TrackerConfig(association_mode="hungarian"))
        for rec in log:
            dets_used = [j for _, j in rec.assignments]
            assert len(dets_used) == len(set(dets_used))
            ids_used = [i for i, _ in rec.assignments]
            assert len(ids_used) == len(set(ids_used))

    @pytest.mark.parametrize("mode", ["hungarian", "jpda"])
    def test_noiseless_cv_single_confirmed_track(self, mode):
        frames = cv_stream(60)
        log = run_tracker(frames, TrackerConfig(association_mode=mode))
        final = log[-1].tracks
        assert len(final) == 1
        assert final[0]["status"] == CONFIRMED
        ids = {tr["id"] for rec in log for tr in rec.tracks}
        assert ids == {0}

    @pytest.mark.parametrize("mode", ["hungarian", "jpda"])
    def test_deterministic_replay(self, mode):
        rng = np.random.default_rng(11)
        frames = []
        for k in range(50):
            t = 0.1 * k
            ms = [meas((0.5 * t + rng.normal(0, 0.05), 0, 5))]
            if rng.random() < 0.3:
                ms.append(meas(rng.uniform(-5, 5, 3) + (0, 0, 10)))
            frames.append((t, ms))
        cfg = TrackerConfig(association_mode=mode)
        log1 = run_tracker(frames, cfg)
        log2 = run_tracker(frames, cfg)
        for a, b in zip(log1, log2):
            assert a.assignments == b.assignments
            for ta, tb in zip(a.tracks, b.tracks):
                assert ta["id"] == tb["id"] and ta["status"] == tb["status"]
                assert np.array_equal(ta["position"], tb["position"])
                assert np.array_equal(ta["mu"], tb["mu"])


class TestDormancyAndResurrection:
    def make_confirmed(self, tracker, n=5):
        for k in range(n):
            tracker.step([meas((0, 0, 5))], 0.1 * k)
        return 0.1 * n

    def test_confirmed_goes_dormant_then_resurrects_same_id(self):
        cfg = TrackerConfig(max_misses_active=3)
        tracker = Tracker(cfg)
        t = self.make_confirmed(tracker)
        assert tracker.tracks[0].status == CONFIRMED
        tid = tracker.tracks[0].id
        for _ in range(cfg.max_misses_active + 1):
            tracker.step([], t)
            t += 0.1
        assert tracker.tracks[0].status == DORMANT
        rec = tracker.step([meas((0.5, 0, 5))], t)
        assert rec.resurrected == [tid]
        assert tracker.tracks[0].status == CONFIRMED
        assert tracker.tracks[0].id == tid

    def test_resurrection_requires_proximity(self):
        cfg = TrackerConfig(max_misses_active=3, resurrect_radius=4.0)
        tracker = Tracker(cfg)
        t = self.make_confirmed(tracker)
        for _ in range(cfg.max_misses_active + 1):
            tracker.step([], t)
            t += 0.1
        rec = tracker.step([meas((20.0, 0, 5))], t)
        assert rec.resurrected == []
        assert tracker.tracks[0].status == DORMANT

    def test_dormant_track_is_frozen(self):
        cfg = TrackerConfig(max_misses_active=3)
        tracker = Tracker(cfg)
        t = self.make_confirmed(tracker)
        for _ in range(cfg.max_misses_active + 1):
            tracker.step([], t)
            t += 0.1
        frozen = tracker.bank.fused_x[0].copy()
        for _ in range(5):
            tracker.step([], t)
            t += 0.1
        assert np.array_equal(tracker.bank.fused_x[0], frozen)

    @pytest.mark.parametrize("mode", ["hungarian", "jpda"])
    def test_resurrection_spawn_and_deletion_in_one_frame(self, mode):
        # Tracks 0 and 2 go dormant while track 1 keeps its hits; tentative
        # track 3 is starved. On the last frame track 0 comes back, track 3
        # is deleted and track 4 is spawned, while track 1 is updated and
        # track 2 stays dormant.
        cfg = TrackerConfig(association_mode=mode, max_misses_active=3)
        tracker = Tracker(cfg)
        a, b, c = (0.0, 0, 5), (20.0, 0, 5), (40.0, 0, 5)
        frames = [[a, b, c]] * 5 + [[b]] * 4 + [[b, (60.0, 0, 5)]] \
            + [[b]] * 3
        for k, points in enumerate(frames):
            tracker.step([meas(p) for p in points], 0.1 * k)
        assert [(tr.id, tr.status) for tr in tracker.tracks] == [
            (0, DORMANT), (1, CONFIRMED), (2, DORMANT), (3, TENTATIVE)]
        before = tracker.bank
        updated = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                updated.append(fn(*args, **kwargs))
                return updated[-1]
            return wrapped

        t = 0.1 * len(frames)
        back, new = (0.5, 0, 5), (-30.0, 0, 5)
        with mock.patch.object(trackman, "imm_correct", recording(
                trackman.imm_correct)), \
            mock.patch.object(Tracker, "_imm_correct_pda", recording(
                Tracker._imm_correct_pda)):
            rec = tracker.step([meas(p) for p in (b, back, new)], t)
        assert rec.resurrected == [0]
        assert rec.spawned == [4]
        assert rec.deleted == [3]
        assert [(tr.id, tr.status) for tr in tracker.tracks] == [
            (0, CONFIRMED), (1, CONFIRMED), (2, DORMANT), (4, TENTATIVE)]
        assert [tr["id"] for tr in rec.tracks] == [0, 1, 2, 4]
        # the active tracks were 1 and 3, in that order
        assert len(updated) == 1 and len(updated[0]) == 2
        want = [imm_init([back], cfg.filter), updated[0].rows([0]),
                before.rows([2]), imm_init([new], cfg.filter)]
        assert len(tracker.bank) == len(want)
        for i, row in enumerate(want):
            for name in ("x", "P", "mu", "fused_x", "fused_P"):
                assert np.array_equal(getattr(tracker.bank, name)[i],
                                      getattr(row, name)[0]), (i, name)


class TestBatchedStages:
    """Each filter stage runs once per frame for all tracks."""

    @pytest.mark.parametrize("mode", ["hungarian", "jpda"])
    def test_filter_stages_run_at_most_once_per_frame(self, mode):
        # Six targets 20 m apart, each seen on every frame with a small
        # jitter, give six confirmed tracks.
        rng = np.random.default_rng(14)
        starts = np.array([[20.0 * i, 0.0, 10.0] for i in range(6)])
        v = np.array([1.0, 0.5, 0.0])
        frames = []
        for k in range(40):
            t = 0.1 * k
            pos = starts + v * t + rng.normal(scale=0.02, size=(6, 3))
            frames.append((t, [meas(p) for p in pos]))
        counts = {"imm_predict": 0, "imm_correct": 0, "pda": 0,
                  "imm_init": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        tracker = Tracker(TrackerConfig(association_mode=mode))
        with mock.patch.object(trackman, "imm_predict", counting(
                "imm_predict", trackman.imm_predict)), \
            mock.patch.object(trackman, "imm_correct", counting(
                "imm_correct", trackman.imm_correct)), \
            mock.patch.object(trackman, "imm_init", counting(
                "imm_init", trackman.imm_init)), \
            mock.patch.object(Tracker, "_imm_correct_pda", counting(
                "pda", Tracker._imm_correct_pda)):
            for t, ms in frames:
                before = dict(counts)
                rec = tracker.step(ms, t)
                for name in counts:
                    assert counts[name] - before[name] <= 1, (name, t)
        assert len(rec.tracks) == 6
        assert all(tr["status"] == CONFIRMED for tr in rec.tracks)
        assert counts["imm_predict"] == len(frames) - 1
        # the six tracks are born together on the first frame
        assert counts["imm_init"] == 1
        updates = counts["imm_correct" if mode == "hungarian" else "pda"]
        assert updates == len(frames) - 1


class TestConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValidationError):
            TrackerConfig(association_mode="greedy")

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValidationError):
            TrackerConfig(confirm_hits=0)
        with pytest.raises(ValidationError):
            TrackerConfig(init_min_separation=0.0)

    @pytest.mark.parametrize("field, value", [
        ("jpda_miss_threshold", np.nan), ("jpda_miss_threshold", 2.0),
        ("jpda_miss_threshold", -0.1), ("resurrect_radius", np.nan),
        ("init_min_separation", np.nan), ("init_min_separation", np.inf),
        ("cost_weights", (1.0, np.nan, 0.3)), ("cost_weights", (1.0, -0.3, 0.3)),
        ("cost_weights", (1.0, 0.3)), ("cost_weights", (True, 0.3, 0.3)),
        ("cost_weights", (1.0, "0.3", 0.3)), ("cost_weights", 5),
        ("cost_weights", (1.0, None, 0.3)), ("max_misses_active", -1),
        ("max_misses_dormant", -1), ("max_misses_dormant", 2.0),
        ("confirm_hits", 1.5), ("confirm_hits", True),
        ("confirm_hits", 2**63), ("association_mode", ["jpda"]),
        ("association_mode", None),
    ])
    def test_rejects_non_finite_or_mistyped(self, field, value):
        with pytest.raises(ValidationError):
            TrackerConfig(**{field: value})


# Measurement streams: points either anywhere in a 40 m box or on a coarse
# grid, so gates overlap, tracks share detections and JPDA splits beta.
_coord = st.floats(-20.0, 20.0, allow_nan=False)
_point = st.one_of(st.tuples(_coord, _coord, _coord),
                   st.tuples(*[st.sampled_from((-1.0, 0.0, 0.5, 1.0))] * 3))
_streams = st.lists(st.tuples(st.sampled_from((0.05, 0.1, 0.5)),
                              st.lists(_point, max_size=4)),
                    min_size=1, max_size=30)


class TestTrackerStreams:
    """Random streams through both modes keep the tracker's invariants."""

    @pytest.mark.parametrize("mode", ["hungarian", "jpda"])
    @settings(max_examples=60, deadline=None)
    @given(stream=_streams, confirm=st.integers(1, 3),
           misses=st.integers(1, 4), dormant=st.integers(1, 4))
    def test_invariants(self, mode, stream, confirm, misses, dormant):
        cfg = TrackerConfig(association_mode=mode, confirm_hits=confirm,
                            max_misses_active=misses,
                            max_misses_dormant=dormant)
        tracker = Tracker(cfg)
        betas = []

        def recording_jpda(*args, **kwargs):
            betas.append(jpda(*args, **kwargs))
            return betas[-1]

        spawned, deleted, t = [], set(), 0.0
        with mock.patch.object(association, "jpda", recording_jpda):
            for dt, points in stream:
                t += dt
                try:
                    rec = tracker.step([meas(p) for p in points], t)
                except (NumericalError, AssociationComplexityError):
                    break  # the documented numeric failures
                ids = [tr["id"] for tr in rec.tracks]
                assert len(set(ids)) == len(ids)
                # ids are handed out once, in order, and never come back
                assert rec.spawned == list(range(len(spawned),
                                                 len(spawned) + len(rec.spawned)))
                spawned += rec.spawned
                assert not deleted & (set(ids) | set(rec.resurrected))
                deleted |= set(rec.deleted)
                assert not deleted & set(ids)
                # one hit path: every assignment names a live track, and the
                # non-resurrection ones are JPDA's confident argmax detections
                assert {i for i, _ in rec.assignments} <= set(ids)
                if mode == "hungarian":
                    dets_used = [j for _, j in rec.assignments]
                    assert len(set(dets_used)) == len(dets_used)
                else:
                    assert [a for a in rec.assignments
                            if a[0] not in rec.resurrected] == [
                        (b["id"], b["best"]) for b in rec.beta_summary or []
                        if b["best"] >= 0]
                bank = tracker.bank
                assert len(bank) == len(tracker.tracks)
                assert np.array_equal(bank.fused_x[:, :3], np.reshape(
                    [tr["position"] for tr in rec.tracks], (-1, 3)))
                for P in (*bank.P.reshape(-1, 6, 6), *bank.fused_P):
                    assert np.array_equal(P, P.T)
                    assert np.linalg.eigvalsh(P).min() >= -1e-9 * max(
                        1.0, np.abs(P).max())
        for beta in betas:
            assert (beta >= 0).all()
            assert np.allclose(beta.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert mode == "jpda" or not betas
