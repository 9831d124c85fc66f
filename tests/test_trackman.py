from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrack import association
from sparsetrack.association import AssociationComplexityError, jpda
from sparsetrack.core import Measurement, NumericalError, ValidationError
from sparsetrack.filter import imm_init, FilterConfig
from sparsetrack.trackman import (CONFIRMED, DELETED, DORMANT, TENTATIVE,
                                  Track, Tracker, TrackerConfig,
                                  lifecycle_advance, run_tracker)


def meas(pos, t):
    return Measurement(t=t, position=np.asarray(pos, float), support=1)


def make_track(status=TENTATIVE, pos=(0.0, 0.0, 0.0)):
    return Track(id=0, imm=imm_init(pos, FilterConfig()), status=status)


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
    return [(dt * k, [meas(p0 + v * dt * k, dt * k)]) for k in range(n_frames)]


class TestTrackerStep:
    def test_min_separation_initiation(self):
        tracker = Tracker(TrackerConfig())
        rec = tracker.step([meas((0, 0, 5), 0.0), meas((0.1, 0, 5), 0.0)], 0.0)
        assert len(rec.spawned) == 1
        assert len(tracker.tracks) == 1

    def test_ids_never_reused(self):
        cfg = TrackerConfig(max_misses_active=1)
        tracker = Tracker(cfg)
        tracker.step([meas((0, 0, 5), 0.0)], 0.0)
        # starve the tentative track until deletion, then spawn a new one
        tracker.step([], 0.1)
        tracker.step([], 0.2)
        rec = tracker.step([meas((0, 0, 5), 0.3)], 0.3)
        assert rec.spawned == [1]

    def test_out_of_order_frame_rejected(self):
        tracker = Tracker(TrackerConfig())
        tracker.step([], 1.0)
        with pytest.raises(ValidationError):
            tracker.step([], 0.5)

    def test_hungarian_one_to_one(self):
        frames = [
            (0.1 * k,
             [meas((0.1 * k, 0, 5), 0.1 * k),
              meas((0.1 * k, 3.0, 5), 0.1 * k)])
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
            ms = [meas((0.5 * t + rng.normal(0, 0.05), 0, 5), t)]
            if rng.random() < 0.3:
                ms.append(meas(rng.uniform(-5, 5, 3) + (0, 0, 10), t))
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
            tracker.step([meas((0, 0, 5), 0.1 * k)], 0.1 * k)
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
        rec = tracker.step([meas((0.5, 0, 5), t)], t)
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
        rec = tracker.step([meas((20.0, 0, 5), t)], t)
        assert rec.resurrected == []
        assert tracker.tracks[0].status == DORMANT

    def test_dormant_track_is_frozen(self):
        cfg = TrackerConfig(max_misses_active=3)
        tracker = Tracker(cfg)
        t = self.make_confirmed(tracker)
        for _ in range(cfg.max_misses_active + 1):
            tracker.step([], t)
            t += 0.1
        frozen = tracker.tracks[0].position.copy()
        for _ in range(5):
            tracker.step([], t)
            t += 0.1
        assert np.array_equal(tracker.tracks[0].position, frozen)


class TestConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValidationError):
            TrackerConfig(association_mode="greedy")

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValidationError):
            TrackerConfig(confirm_hits=0)
        with pytest.raises(ValidationError):
            TrackerConfig(init_min_separation=0.0)


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
                    rec = tracker.step([meas(p, t) for p in points], t)
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
                for tr in tracker.tracks:
                    for P in (*tr.imm.P, tr.imm.fused.P):
                        assert np.array_equal(P, P.T)
                        assert np.linalg.eigvalsh(P).min() >= -1e-9 * max(
                            1.0, np.abs(P).max())
        for beta in betas:
            assert (beta >= 0).all()
            assert np.allclose(beta.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert mode == "jpda" or not betas
