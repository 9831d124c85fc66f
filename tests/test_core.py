import copy
import pickle
import weakref
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import numpy as np
import pytest

from scipy.spatial.transform import Rotation

from sparsetrack.association import JpdaParams
from sparsetrack.core import (Measurement, Pose, Scan, ValidationError,
                              is_int, to_global)
from sparsetrack.detector import DetectorConfig
from sparsetrack.simulator import Scenario, SensorModel
from sparsetrack.trackman import TrackerConfig


def yaw_pose(deg: float, translation=(0.0, 0.0, 0.0)) -> Pose:
    a = np.deg2rad(deg)
    R = np.array([[np.cos(a), -np.sin(a), 0.0],
                  [np.sin(a), np.cos(a), 0.0],
                  [0.0, 0.0, 1.0]])
    return Pose(np.asarray(translation, dtype=float), R)


class TestPose:
    def test_identity(self):
        p = Pose.identity()
        assert np.allclose(p.translation, 0.0)
        assert np.allclose(p.rotation, np.eye(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            Pose(np.zeros(3), np.eye(3) * 2.0)
        # R^T R is 1e-9 from I entrywise at most, with no relative slack:
        # one axis scaled by 1 + 4e-6 is off by 8e-6 and is rejected
        with pytest.raises(ValidationError, match="orthonormal"):
            Pose(np.zeros(3), np.diag([1.0 + 4e-6, 1.0, 1.0]))

    @pytest.mark.parametrize("translation, rotation", [
        ([True, 0, 0], np.eye(3)), (["1", "0", "0"], np.eye(3)),
        (np.zeros(3), np.eye(3, dtype=bool)), (np.zeros(3), None),
        (np.zeros(3), [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]),
    ])
    def test_rejects_non_number_entries(self, translation, rotation):
        with pytest.raises(ValidationError):
            Pose(translation, rotation)

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValidationError):
            Pose(np.zeros(3), R)

    def test_inverse_roundtrip(self):
        p = yaw_pose(37.0, (1.0, -2.0, 3.0))
        q = np.array([0.3, 0.7, -1.1])
        back = to_global(to_global(q, p), p.inverse())
        assert np.allclose(back, q, atol=1e-12)


class TestToGlobal:
    def test_identity_pose(self):
        assert np.allclose(to_global((1, 0, 0), Pose.identity()), (1, 0, 0))

    def test_pure_translation(self):
        p = Pose(np.array([2.0, 3.0, 4.0]), np.eye(3))
        assert np.allclose(to_global((0, 0, 0), p), (2, 3, 4))

    def test_90deg_yaw(self):
        p = yaw_pose(90.0)
        assert np.allclose(to_global((1, 0, 0), p), (0, 1, 0), atol=1e-12)

    def test_many_matches_single(self):
        rng = np.random.default_rng(0)
        for k in range(50):
            p = Pose(rng.normal(scale=10.0, size=3),
                     Rotation.random(random_state=k).as_matrix())
            pts = rng.normal(scale=20.0, size=(30, 3))
            many = to_global(pts, p)
            assert many.shape == (30, 3)
            for q, z in zip(pts, many):
                assert z.tobytes() == to_global(q, p).tobytes()
                assert z.tobytes() == (p.rotation @ q + p.translation).tobytes()

    def test_empty_point_set(self):
        assert to_global(np.zeros((0, 3)), yaw_pose(10.0)).shape == (0, 3)

    def test_rejects_bad_shapes(self):
        for bad in (np.zeros(2), np.zeros((4, 2)), np.zeros((2, 3, 1)),
                    np.array([np.nan, 0.0, 0.0]), ["1", "0", "0"],
                    [True, 0, 0], np.array([True, False, False]),
                    [[1, 2, 3], [1, 2]], [[1, 2, 3], 4]):
            with pytest.raises(ValidationError):
                to_global(bad, Pose.identity())


class TestScan:
    def test_empty_scan_allowed(self):
        s = Scan(t=0.0, points=np.zeros((0, 3)), pose=Pose.identity())
        assert len(s) == 0

    def test_rejects_non_finite(self):
        pts = np.array([[0.0, 0.0, np.nan]])
        with pytest.raises(ValidationError):
            Scan(t=0.0, points=pts, pose=Pose.identity())

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            Scan(t=0.0, points=np.zeros((3, 2)), pose=Pose.identity())

    @pytest.mark.parametrize("points", [
        [["1", "2", "3"]], [[True, 0, 0]], np.ones((1, 3), dtype=bool),
        np.ones((1, 3), dtype=complex), [[1, 2, 3], [1, 2]], [[0, 0, None]],
        [[0, 0, 10**400]],
    ], ids=["strings", "bool", "bool-array", "complex-array", "ragged",
            "none", "huge"])
    def test_rejects_non_number_points(self, points):
        with pytest.raises(ValidationError, match="points"):
            Scan(t=0.0, points=points, pose=Pose.identity())

    @pytest.mark.parametrize("points", [
        [[1, 2, 3]], [[1.5, np.float32(2), np.int64(3)]],
        np.ones((1, 3), dtype=np.int32), [], np.zeros((0, 3))])
    def test_accepts_number_points(self, points):
        s = Scan(t=0.0, points=points, pose=Pose.identity())
        assert s.points.dtype == np.float64
        assert s.points.tolist() == np.reshape(points, (-1, 3)).tolist()

    @pytest.mark.parametrize("t", [np.nan, np.inf, True, np.True_, "1", None,
                                   10**400, -np.inf, Fraction(10**400)])
    def test_rejects_non_finite_or_non_number_time(self, t):
        with pytest.raises(ValidationError, match="timestamp"):
            Scan(t=t, points=np.zeros((0, 3)), pose=Pose.identity())

    @pytest.mark.parametrize("t", [0, 2.5, np.float32(1.5), np.int64(3),
                                   np.float64(1.5)])
    def test_accepts_real_number_time(self, t):
        assert Scan(t=t, points=np.zeros((0, 3)), pose=Pose.identity()).t == t


class TestMeasurement:
    def test_support_floor(self):
        with pytest.raises(ValidationError):
            Measurement(position=np.zeros(3), support=0)

    @pytest.mark.parametrize("support", [-1, True, 1.5, 2.0, "a", None,
                                         np.int64(2), 2**63])
    def test_support_is_an_int(self, support):
        with pytest.raises(ValidationError, match="support"):
            Measurement(position=np.zeros(3), support=support)

    def test_rejects_non_number_position(self):
        for bad in (["1", "2", "3"], [True, 0.0, 0.0], None):
            with pytest.raises(ValidationError, match="point"):
                Measurement(position=bad, support=1)

    def test_finite_position(self):
        with pytest.raises(ValidationError):
            Measurement(position=np.array([np.inf, 0, 0]), support=1)

    def test_slotted_copies_and_stays_frozen(self):
        # the detector's trusted build and the checked constructor give the
        # same slotted object, and so do pickle, copy and deepcopy of it
        position = np.array([1.5, -0.0, 2.0])
        trusted = Measurement.trusted(position, 3)
        checked = Measurement(position=[1.5, -0.0, 2.0], support=3)
        assert not hasattr(trusted, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(trusted)
        assert trusted.position is position
        for m in (checked, copy.copy(trusted), copy.deepcopy(trusted),
                  pickle.loads(pickle.dumps(trusted))):
            assert type(m) is Measurement
            assert m.position.dtype == float
            assert m.position.tobytes() == position.tobytes()
            assert type(m.support) is int and m.support == 3
        assert copy.deepcopy(trusted).position is not position
        for name, value in (("position", np.zeros(3)), ("support", 4)):
            with pytest.raises(FrozenInstanceError):
                setattr(trusted, name, value)
        assert trusted.position is position and trusted.support == 3


def _config(cls, **kw):
    return cls(kind="separated", **kw) if cls is Scenario else cls(**kw)


# Every float field of the configs, with its default
FLOAT_FIELDS = [(cls, f.name, f.default) for cls in (
    DetectorConfig, JpdaParams, TrackerConfig, SensorModel, Scenario)
    for f in fields(cls) if f.type == "float"]


class TestNumberRule:
    @pytest.mark.parametrize("v, ok", [
        (0, True), (2**63 - 1, True), (-(2**63 - 1), True), (2**63, False),
        (-2**63, False), (10**30, False), (True, False), (np.int64(1), False),
        (1.0, False), ("1", False), (None, False),
    ])
    def test_is_int(self, v, ok):
        assert is_int(v) is ok

    @pytest.mark.parametrize("cls, name, default", FLOAT_FIELDS,
                             ids=[f"{c.__name__}.{n}"
                                  for c, n, _ in FLOAT_FIELDS])
    def test_float_field(self, cls, name, default):
        # a bool, a string, None, a non-finite number or an int or fraction
        # beyond the float range is never a float field's value
        for bad in (True, np.True_, "1", None, np.nan, np.inf, -np.inf,
                    10**400, Fraction(10**400), Fraction(-(10**400), 3)):
            with pytest.raises(ValidationError, match=name):
                _config(cls, **{name: bad})
        # any real scalar that is_number accepts, numpy's included
        good = [np.float64(default), np.float32(default)]
        if float(default).is_integer():
            good.append(int(default))
        for v in good:
            assert getattr(_config(cls, **{name: v}), name) == v
