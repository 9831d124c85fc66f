import numpy as np
import pytest

from sparsetrack.core import Pose, ValidationError
from sparsetrack.simulator import (CROSSINGS, KINDS, MAX_FRAMES, MODERATE,
                                   OCCLUSION, SCENARIOS, SEPARATED, Scenario,
                                   SensorModel, TRACKING_SENSOR,
                                   gen_trajectories, run_scenario, sample_scan)

CONTRACT_SEEDS = range(50)


class TestScenarioDefaults:
    @pytest.mark.parametrize("kind,frames", [
        (OCCLUSION, 968), (CROSSINGS, 1708), (SEPARATED, 832),
        (MODERATE, 1305),
    ])
    def test_default_frame_counts(self, kind, frames):
        assert Scenario(kind=kind).n_frames == frames
        assert SCENARIOS[kind].frames == frames

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            Scenario(kind="swarm")

    def test_bad_dt(self):
        with pytest.raises(ValidationError):
            Scenario(kind=SEPARATED, dt=0.0)

    @pytest.mark.parametrize("field,value", [
        ("dt", 0.0), ("dt", float("nan")), ("dt", float("inf")),
        ("dt", 1e308), ("n_frames", 0), ("n_frames", 1.5),
        ("n_frames", True), ("n_frames", "10"),
        ("n_frames", 10**6 + 1), ("n_frames", 10**30),
        ("n_frames", np.int64(5)),
        ("dt", True), ("seed", -1), ("seed", 2.5), ("seed", True),
        ("seed", 2**63), ("kind", ["x"]), ("kind", None),
    ])
    def test_bad_field(self, field, value):
        with pytest.raises(ValidationError, match=field):
            Scenario(**{"kind": SEPARATED, field: value})

    def test_frame_bound(self):
        assert Scenario(kind=SEPARATED, n_frames=MAX_FRAMES).n_frames \
            == MAX_FRAMES


class TestTrajectoryContracts:
    @pytest.mark.parametrize("seed", CONTRACT_SEEDS)
    def test_separated_above_5m(self, seed):
        gt = gen_trajectories(Scenario(kind=SEPARATED, seed=seed))
        sep = np.linalg.norm(gt.positions[:, 0] - gt.positions[:, 1], axis=1)
        assert sep.min() > 5.0

    @pytest.mark.parametrize("seed", CONTRACT_SEEDS)
    def test_crossings_contract(self, seed):
        gt = gen_trajectories(Scenario(kind=CROSSINGS, seed=seed))
        sep = np.linalg.norm(gt.positions[:, 0] - gt.positions[:, 1], axis=1)
        assert sep.min() < 3.0
        rel_x = gt.positions[:, 0, 0] - gt.positions[:, 1, 0]
        swaps = int(np.sum(np.diff(np.sign(rel_x)) != 0))
        assert swaps >= 2

    @pytest.mark.parametrize("seed", CONTRACT_SEEDS)
    def test_moderate_has_both_phases(self, seed):
        gt = gen_trajectories(Scenario(kind=MODERATE, seed=seed))
        sep = np.linalg.norm(gt.positions[:, 0] - gt.positions[:, 1], axis=1)
        assert sep.min() < 3.0 and sep.max() > 5.0

    @pytest.mark.parametrize("seed", CONTRACT_SEEDS)
    def test_occlusion_gap_length(self, seed):
        sc = Scenario(kind=OCCLUSION, seed=seed)
        gt = gen_trajectories(sc)
        for target in (0, 1):
            vis = gt.visible[:, target]
            run = best = 0
            for v in vis:
                run = 0 if v else run + 1
                best = max(best, run)
            assert best >= 30  # >= 3 s at 10 Hz

    @pytest.mark.parametrize("kind", KINDS)
    def test_velocity_matches_finite_difference(self, kind):
        sc = Scenario(kind=kind, n_frames=200, seed=1)
        gt = gen_trajectories(sc)
        # central finite difference on the analytic trajectories
        fd = (gt.positions[2:] - gt.positions[:-2]) / (2 * sc.dt)
        err = np.abs(fd - gt.velocities[1:-1]).max()
        assert err < 5e-3  # second-order truncation, smooth sinusoids

    def test_ids_constant(self):
        gt = gen_trajectories(Scenario(kind=SEPARATED))
        assert gt.ids == (0, 1)


class TestOcclusionWindows:
    nan = float("nan")

    @pytest.mark.parametrize("window", [
        (1.0, 2.0, -1),            # hid target 1, counting from the end
        (1.0, 2.0, True),          # hid both targets
        (nan, 2.0, 0),             # hid nothing
        (1.0, nan, 0),
        (2.0, 1.0, 0),             # inverted: hid nothing
        (1.0, float("inf"), 0),
        (1.0, 2.0, 0.5),           # IndexError
        (1.0, 2.0),
        (False, 2.0, 0),           # a bool is not a time
        (0.5, True, 0),
        (1.0, 10**400, 0),         # beyond the float range
        (1.0, 2.0, 2**63),         # beyond the 64-bit range
        (1.0, 2.0, np.int64(0)),   # not an int
        (1.0, 2.0, 0, 0),
        (),
    ], ids=["negative-target", "bool-target", "nan-start", "nan-end",
            "inverted", "infinite-end", "float-target", "pair", "bool-start",
            "bool-end", "huge-end", "huge-target", "numpy-target",
            "quadruple", "empty"])
    def test_malformed_window_rejected(self, window):
        with pytest.raises(ValidationError, match="occlusion_windows"):
            SensorModel(occlusion_windows=(window,))

    def test_target_out_of_range(self):
        sensor = SensorModel(occlusion_windows=((1.0, 2.0, 5),))
        with pytest.raises(ValidationError, match="target 5 is out of range"):
            gen_trajectories(Scenario(kind=SEPARATED, n_frames=40,
                                      sensor=sensor))

    def test_window_hides_its_target_only(self):
        sensor = SensorModel(occlusion_windows=((1.0, 2.0, 1),))
        gt = gen_trajectories(Scenario(kind=SEPARATED, n_frames=40,
                                       sensor=sensor))
        hidden = (gt.t >= 1.0) & (gt.t < 2.0)
        assert hidden.sum() == 10
        assert gt.visible[:, 0].all()
        assert np.array_equal(gt.visible[:, 1], ~hidden)


class TestSampleScan:
    def test_p_hit_zero_only_clutter(self):
        sensor = SensorModel(p_hit=0.0, clutter_rate=5.0)
        rng = np.random.default_rng(0)
        scan = sample_scan(np.array([[0, 0, 10.0], [3, 0, 10.0]]),
                           np.array([True, True]), 0.0, sensor, rng)
        lo = np.array([b[0] for b in sensor.clutter_volume])
        hi = np.array([b[1] for b in sensor.clutter_volume])
        assert np.all(scan.points >= lo) and np.all(scan.points <= hi)

    def test_degenerate_sensor_exact_returns(self):
        sensor = SensorModel(p_hit=1.0, n_return_dist={1: 1.0},
                             sigma_meas=1e-12, clutter_rate=0.0)
        rng = np.random.default_rng(0)
        truth = np.array([[0, 0, 10.0], [3, 0, 10.0]])
        scan = sample_scan(truth, np.array([True, True]), 0.0, sensor, rng)
        assert scan.points.shape == (2, 3)
        assert np.allclose(np.sort(scan.points, axis=0),
                           np.sort(truth, axis=0), atol=1e-9)

    def test_invisible_target_emits_nothing(self):
        sensor = SensorModel(p_hit=1.0, n_return_dist={1: 1.0},
                             sigma_meas=1e-12, clutter_rate=0.0)
        rng = np.random.default_rng(0)
        scan = sample_scan(np.array([[0, 0, 10.0], [3, 0, 10.0]]),
                           np.array([True, False]), 0.0, sensor, rng)
        assert scan.points.shape == (1, 3)

    def test_observer_pose_applied(self):
        sensor = SensorModel(p_hit=1.0, n_return_dist={1: 1.0},
                             sigma_meas=1e-12, clutter_rate=0.0)
        rng = np.random.default_rng(0)
        observer = Pose(np.array([1.0, 2.0, 3.0]), np.eye(3))
        truth = np.array([[5.0, 0, 10.0]])
        scan = sample_scan(truth, np.array([True]), 0.0, sensor, rng, observer)
        assert np.allclose(scan.points[0], truth[0] - observer.translation,
                           atol=1e-9)

    def test_default_sensor_sparse_return_regime(self):
        sensor = SensorModel(clutter_rate=0.0)
        rng = np.random.default_rng(12)
        counts = []
        truth = np.array([[0.0, 0.0, 10.0]])
        for _ in range(2000):
            scan = sample_scan(truth, np.array([True]), 0.0, sensor, rng)
            counts.append(len(scan))
        counts = np.array(counts)
        assert set(np.unique(counts)) <= {0, 1, 2}
        expected = sensor.p_hit * sum(k * p for k, p
                                      in sensor.n_return_dist.items())
        assert abs(counts.mean() - expected) / expected < 0.10

    def test_sensor_model_validation(self):
        with pytest.raises(ValidationError):
            SensorModel(p_hit=1.5)
        with pytest.raises(ValidationError):
            SensorModel(sigma_meas=0.0)
        with pytest.raises(ValidationError):
            SensorModel(n_return_dist={1: 0.5, 2: 0.6})
        with pytest.raises(ValidationError):
            SensorModel(n_return_dist={0: 1.0})
        for key in (1.5, "1", True, np.int64(1), 10**30, 2**63):
            with pytest.raises(ValidationError, match="return counts"):
                SensorModel(n_return_dist={key: 1.0})
        for bad in (-1.0, float("nan"), float("inf"), 1e19, 1.0001e8):
            with pytest.raises(ValidationError, match="clutter_rate"):
                SensorModel(clutter_rate=bad)
        assert SensorModel(clutter_rate=1e8).clutter_rate == 1e8
        nan = float("nan")
        for vol in (((nan, 1.0), (0, 1), (0, 1)), ((1.0, 0.0), (0, 1), (0, 1)),
                    ((0, 1), (0, 1)), ((0, 1), (0, 1), (0, float("inf"))),
                    ((0, 1, 2), (0, 1, 2), (0, 1, 2)), ((0, 1), (0, 1), (0,)),
                    ((0, 1), (0, 1), ("a", 1)),
                    (("-20", "20"), (-20, 20), (5, 15)),
                    ((False, True), (-20, 20), (5, 15)),
                    ((0, 10**400), (0, 1), (0, 1))):
            with pytest.raises(ValidationError, match="clutter_volume"):
                SensorModel(clutter_volume=vol)
        flat = ((0.0, 1.0), (2.0, 2.0), (-1.0, 0.0))
        assert SensorModel(clutter_volume=flat).clutter_volume == flat
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="sigma_meas"):
                SensorModel(sigma_meas=bad)
        for dist in ({1: float("nan")}, {1: 0.5, 2: float("nan")},
                     {1: float("inf")}, {1: "0.6", 2: 0.4}, {1: True},
                     {1: 10**400}, [1], None, {1: None}):
            with pytest.raises(ValidationError, match="n_return_dist"):
                SensorModel(n_return_dist=dist)
        assert SensorModel(clutter_rate=500.0).clutter_rate == 500.0
        # a bool is not a number, so True is not read as 1
        for name in ("p_hit", "sigma_meas", "clutter_rate"):
            with pytest.raises(ValidationError, match=name):
                SensorModel(**{name: True})


class TestRunScenario:
    @pytest.mark.parametrize("kind", KINDS)
    def test_alignment(self, kind):
        scans, gt = run_scenario(Scenario(kind=kind, n_frames=50, seed=2))
        assert len(scans) == gt.n_frames == 50
        for k, s in enumerate(scans):
            assert s.t == pytest.approx(float(gt.t[k]))

    def test_determinism(self):
        sc = Scenario(kind=CROSSINGS, n_frames=100, seed=9)
        scans1, gt1 = run_scenario(sc)
        scans2, gt2 = run_scenario(sc)
        assert np.array_equal(gt1.positions, gt2.positions)
        assert np.array_equal(gt1.visible, gt2.visible)
        for a, b in zip(scans1, scans2):
            assert np.array_equal(a.points, b.points)

    def test_distinct_seeds_differ(self):
        a, _ = run_scenario(Scenario(kind=SEPARATED, n_frames=50, seed=0))
        b, _ = run_scenario(Scenario(kind=SEPARATED, n_frames=50, seed=1))
        assert any(not np.array_equal(x.points, y.points)
                   for x, y in zip(a, b))

    def test_default_sensor_is_tracking_sensor(self):
        assert Scenario(kind=SEPARATED).sensor == TRACKING_SENSOR


def reference_scans(t, positions, visible, sensor, rng, observer):
    """The sampling loop written out frame by frame, with `rng.choice` for
    the return count: the draw order `run_scenario` must keep."""
    counts = np.array(sorted(sensor.n_return_dist), dtype=int)
    probs = np.array([sensor.n_return_dist[int(k)] for k in counts])
    out = []
    for k in range(len(t)):
        pts = []
        for i in range(positions.shape[1]):
            if not visible[k, i]:
                continue
            if rng.random() < sensor.p_hit:
                n = int(rng.choice(counts, p=probs))
                pts.append(positions[k, i]
                           + sensor.sigma_meas * rng.standard_normal((n, 3)))
        n_clutter = int(rng.poisson(sensor.clutter_rate))
        if n_clutter:
            lo = np.array([b[0] for b in sensor.clutter_volume])
            hi = np.array([b[1] for b in sensor.clutter_volume])
            pts.append(lo + (hi - lo) * rng.random((n_clutter, 3)))
        pts_global = np.vstack(pts) if pts else np.zeros((0, 3))
        inv = observer.inverse()
        out.append((float(t[k]), pts_global @ inv.rotation.T + inv.translation))
    return out


def _yaw_roll(yaw: float, roll: float) -> np.ndarray:
    cy, sy, cr, sr = np.cos(yaw), np.sin(yaw), np.cos(roll), np.sin(roll)
    return (np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
            @ np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]]))


OBSERVERS = {"identity": None,
             "moved": Pose(np.array([4.0, -2.5, 1.5]), _yaw_roll(0.7, 0.3))}


class TestDrawOrder:
    """`run_scenario` draws exactly what the per-frame reference draws, bit
    for bit, and leaves the generator in the same state."""

    @pytest.mark.parametrize("observer", OBSERVERS, ids=list(OBSERVERS))
    @pytest.mark.parametrize("sensor", [TRACKING_SENSOR, SensorModel()],
                             ids=["tracking", "default"])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference_loop(self, monkeypatch, kind, seed, sensor,
                                    observer):
        observer = OBSERVERS[observer]
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda s: made.append(default_rng(s)) or made[-1])
        sc = Scenario(kind=kind, n_frames=120, seed=seed, sensor=sensor)
        scans, gt = run_scenario(sc, observer)
        rng = default_rng(seed)
        ref_gt = gen_trajectories(sc, rng)
        assert np.array_equal(gt.visible, ref_gt.visible)
        pose = Pose.identity() if observer is None else observer
        ref = reference_scans(ref_gt.t, ref_gt.positions, ref_gt.visible,
                              sensor, rng, pose)
        assert len(scans) == len(ref) == sc.n_frames
        for scan, (t, points) in zip(scans, ref):
            assert scan.t == t
            assert scan.points.tobytes() == points.tobytes()
            assert scan.pose.rotation.tobytes() == pose.rotation.tobytes()
            assert (scan.pose.translation.tobytes()
                    == pose.translation.tobytes())
        assert made[0].bit_generator.state == rng.bit_generator.state

    def test_sample_scan_is_one_frame_of_the_loop(self):
        sc = Scenario(kind=CROSSINGS, n_frames=120, seed=4)
        observer = OBSERVERS["moved"]
        scans, _ = run_scenario(sc, observer)
        rng = np.random.default_rng(sc.seed)
        gt = gen_trajectories(sc, rng)
        for k, scan in enumerate(scans):
            one = sample_scan(gt.positions[k], gt.visible[k], float(gt.t[k]),
                              sc.sensor, rng, observer)
            assert one.t == scan.t
            assert one.points.tobytes() == scan.points.tobytes()

    @pytest.mark.parametrize("dist", [{1: 1.0}, {1: 0.5, 2: 0.0, 3: 0.5},
                                      TRACKING_SENSOR.n_return_dist],
                             ids=["one", "zero-middle", "tracking"])
    def test_return_count_is_choice_draw(self, dist):
        # one certain hit and no clutter per scan: a scan's size is the
        # return count drawn for it
        sensor = SensorModel(p_hit=1.0, n_return_dist=dist, clutter_rate=0.0)
        counts = np.array(sorted(dist), dtype=int)
        probs = np.array([dist[k] for k in counts.tolist()])
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        truth, vis = np.array([[0.0, 0.0, 10.0]]), np.array([True])
        for _ in range(10_000):
            n = len(sample_scan(truth, vis, 0.0, sensor, rng))
            ref.random()
            expected = int(ref.choice(counts, p=probs))
            ref.standard_normal((expected, 3))
            ref.poisson(0.0)
            assert n == expected
        assert rng.bit_generator.state == ref.bit_generator.state
