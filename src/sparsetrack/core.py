"""Shared domain types and coordinate-frame utilities.

Points are plain float64 numpy arrays: shape (3,) for a single point and
(N, 3) for point sets. All operations here are pure; the types are treated
as immutable values.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

ORTHONORMAL_TOL = 1e-9


class ValidationError(ValueError):
    """Input violates a documented precondition or type invariant."""


class NumericalError(ArithmeticError):
    """A numeric operation failed (singular matrix, indefinite covariance)."""


# A bool is only a bool, so a JSON `true` is never read as 1; the bounds
# keep out NaN, infinities and integers too large for numpy or a C size.
_FIELD_TYPES = {"int": (int, "a 64-bit integer", 2**63 - 1),
                "float": ((int, float), "a finite number", sys.float_info.max),
                "bool": (bool, "true or false", 1)}


def check_field_types(obj) -> None:
    """Reject a dataclass whose int, float or bool field holds another type
    or a value out of that type's range."""
    for f in fields(obj):
        kind, what, top = _FIELD_TYPES.get(f.type, (None, "", 0))
        v = getattr(obj, f.name)
        if kind is not None and not (isinstance(v, kind) and isinstance(
                v, bool) == (kind is bool) and -top <= v <= top):
            raise ValidationError(f"{f.name} must be {what}, got {v!r}")


def as_point(p) -> np.ndarray:
    """Coerce to a finite (3,) float array."""
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise ValidationError(f"expected a 3-vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"non-finite point: {a}")
    return a


def as_points(pts) -> np.ndarray:
    """Coerce to a finite (N, 3) float array; N may be 0."""
    a = np.asarray(pts, dtype=float)
    if a.size == 0:
        return a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValidationError(f"expected an (N, 3) array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("non-finite coordinates in point set")
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
        R = np.asarray(self.rotation, dtype=float)
        if R.shape != (3, 3) or not np.all(np.isfinite(R)):
            raise ValidationError("rotation must be a finite 3x3 matrix")
        if not np.allclose(R.T @ R, np.eye(3), atol=ORTHONORMAL_TOL):
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
        if not np.isfinite(self.t):
            raise ValidationError("scan timestamp must be finite")
        object.__setattr__(self, "points", as_points(self.points))

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Measurement:
    """Validated detection: a global-frame centroid with its point support."""

    t: float
    position: np.ndarray
    support: int

    def __post_init__(self):
        object.__setattr__(self, "position", as_point(self.position))
        if self.support < 1:
            raise ValidationError("measurement support must be >= 1")

    @classmethod
    def trusted(cls, t: float, position: np.ndarray,
                support: int) -> "Measurement":
        """A Measurement built without `__post_init__`'s checks, for a caller
        that has checked a whole batch at once: `position` is a finite
        float64 (3,) array and `support >= 1`."""
        m = object.__new__(cls)
        # one attribute at a time, as __init__ sets them: a dict update
        # would unshare the instance dict's keys and double its size
        object.__setattr__(m, "t", t)
        object.__setattr__(m, "position", position)
        object.__setattr__(m, "support", support)
        return m


def to_global(p, pose: Pose) -> np.ndarray:
    """Transform a local-frame point (3,) or point set (N, 3) to the global frame.

    Each point is its own (3, 3) @ (3, 1) product, so a point rounds the
    same alone as in a set; `P @ R.T` would round differently.
    """
    a = np.asarray(p, dtype=float)
    pts = as_point(a) if a.ndim == 1 else as_points(a)
    return (pose.rotation @ pts[..., None])[..., 0] + pose.translation
