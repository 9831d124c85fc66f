"""Shared domain types and coordinate-frame utilities.

Points are plain float64 numpy arrays: shape (3,) for a single point and
(N, 3) for point sets. All operations here are pure; the types are treated
as immutable values.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

ORTHONORMAL_TOL = 1e-9


class ValidationError(ValueError):
    """Input violates a documented precondition or type invariant."""


class NumericalError(ArithmeticError):
    """A numeric operation failed (singular matrix, indefinite covariance)."""


def is_number(v) -> bool:
    """Whether `v` is a real number, not a bool, and finite as a float."""
    if isinstance(v, int):  # a bool, or maybe beyond the float range
        return not isinstance(v, bool) and abs(v) <= sys.float_info.max
    if not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # a Real such as a Fraction beyond the float range
        return False


def is_int(v) -> bool:
    """Whether `v` is an `int`, not a bool, with |v| < 2**63."""
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) < 2**63


# The test a field with each of these annotations must pass, and what its
# error calls it. A bool is only a bool, so a JSON `true` is never read as 1.
_FIELD_TYPES = {"int": (is_int, "a 64-bit integer"),
                "int | None": (lambda v: v is None or is_int(v),
                               "a 64-bit integer or None"),
                "float": (is_number, "a finite number"),
                "bool": (lambda v: isinstance(v, bool), "true or false"),
                "str": (lambda v: isinstance(v, str), "a string")}


def check_field_types(obj) -> None:
    """Reject a dataclass whose field annotated as a key of `_FIELD_TYPES`
    holds a value that fails that annotation's test."""
    for f in fields(obj):
        test, what = _FIELD_TYPES.get(f.type, (None, ""))
        v = getattr(obj, f.name)
        if test is not None and not test(v):
            raise ValidationError(f"{f.name} must be {what}, got {v!r}")


def number_array(name: str, v) -> np.ndarray:
    """`v` as a float array; a ValidationError naming `name` unless every
    element passes `is_number` (an int or float ndarray: is finite)."""
    if isinstance(v, np.ndarray) and v.dtype.kind in "iuf":
        a = np.asarray(v, dtype=float)
        if np.isfinite(a).all():
            return a
    else:
        try:
            a = np.asarray(v, dtype=object)
            if all(map(is_number, a.flat)):
                return a.astype(float)
        except ValueError:  # arrays whose shapes do not nest
            pass
    raise ValidationError(f"{name} must hold finite numbers, got {v!r}")


def as_point(p) -> np.ndarray:
    """Coerce to a finite (3,) float array."""
    a = number_array("point", p)
    if a.shape != (3,):
        raise ValidationError(f"expected a 3-vector, got shape {a.shape}")
    return a


def as_points(pts) -> np.ndarray:
    """Coerce to a finite (N, 3) float array; N may be 0."""
    return _point_set(number_array("points", pts))


def _point_set(a: np.ndarray) -> np.ndarray:
    """A checked float array `a` as an (N, 3) point set."""
    if a.size == 0:
        return a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValidationError(f"expected an (N, 3) array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Pose:
    """Rigid transform from the local sensor frame to the global frame.

    `translation` is the local origin expressed in the global frame;
    `rotation` is a proper orthonormal 3x3 matrix. Invalid rotations are
    rejected, never normalized.
    """

    translation: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        t = as_point(self.translation)
        R = number_array("rotation", self.rotation)
        if R.shape != (3, 3):
            raise ValidationError("rotation must be a finite 3x3 matrix")
        if not np.allclose(R.T @ R, np.eye(3), rtol=0,
                           atol=ORTHONORMAL_TOL):
            raise ValidationError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-6:
            raise ValidationError("rotation determinant is not +1")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", R)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.eye(3))

    def inverse(self) -> "Pose":
        Rt = self.rotation.T
        return Pose(-(Rt @ self.translation), Rt)


@dataclass(frozen=True)
class Scan:
    """One LiDAR frame: timestamp, local-frame points, and the ego-pose."""

    t: float
    points: np.ndarray
    pose: Pose

    def __post_init__(self):
        if not is_number(self.t):
            raise ValidationError(
                f"scan timestamp must be a finite number, got {self.t!r}")
        object.__setattr__(self, "points", as_points(self.points))

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def trusted(cls, t: float, points: np.ndarray, pose: Pose) -> "Scan":
        """A Scan built without `__post_init__`'s checks, for a reader that
        has checked them: `t` is a finite float and `points` a finite
        float64 (N, 3) array."""
        s = object.__new__(cls)
        object.__setattr__(s, "t", t)
        object.__setattr__(s, "points", points)
        object.__setattr__(s, "pose", pose)
        return s


@dataclass(frozen=True, slots=True)
class Measurement:
    """Validated detection: a global-frame centroid with its point support.
    Slotted (no instance dict, no weak references): a dense scan makes
    hundreds."""

    position: np.ndarray
    support: int

    def __post_init__(self):
        object.__setattr__(self, "position", as_point(self.position))
        if not (is_int(self.support) and self.support >= 1):
            raise ValidationError("measurement support must be an int >= 1")

    @classmethod
    def trusted(cls, position: np.ndarray, support: int) -> "Measurement":
        """A Measurement built without `__post_init__`'s checks, for a caller
        that has checked a whole batch at once: `position` is a finite
        float64 (3,) array and `support >= 1`."""
        m = object.__new__(cls)
        _set_position(m, position)
        _set_support(m, support)
        return m


# the slots' own setters, which the frozen __setattr__ does not guard
_set_position = Measurement.position.__set__
_set_support = Measurement.support.__set__


def to_global(p, pose: Pose) -> np.ndarray:
    """Transform a local-frame point (3,) or point set (N, 3) to the global frame.

    Each point is its own (3, 3) @ (3, 1) product, so a point rounds the
    same alone as in a set; `P @ R.T` would round differently.
    """
    a = number_array("points", p)  # np.ndim(p) would fail on a ragged list
    pts = as_point(a) if a.ndim == 1 else _point_set(a)
    return (pose.rotation @ pts[..., None])[..., 0] + pose.translation
