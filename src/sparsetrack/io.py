"""JSON Lines files of scans, ground truth, measurements and frame logs.

`_read_jsonl`/`_write_jsonl` own the file loop, and `_get`/`_numbers` alone
turn JSON values into Python values (README "File formats" has the rules).
"""
from __future__ import annotations

import json
import math
import reprlib

import numpy as np

from .core import Measurement, Pose, Scan, ValidationError
from .simulator import GroundTruth
from .trackman import CONFIRMED, DELETED, DORMANT, TENTATIVE, FrameRecord

_STATUSES = (TENTATIVE, CONFIRMED, DORMANT, DELETED)
_ONES = (1.0,) * 12   # math.copysign(1.0, x) is x's sign, a zero's too


def _non_finite(token: str):
    raise ValueError(f"non-finite number {token}")


_DECODER = json.JSONDecoder(parse_constant=_non_finite)


def _read_jsonl(path, what: str, decode) -> list:
    """`decode(rec, prev)` every non-blank line; prev is the last result."""
    out = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = _DECODER.decode(line.decode())
                out.append(decode(rec, out[-1] if out else None))
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
            except (ValueError, OverflowError, RecursionError) as exc:
                raise ValidationError(
                    f"{path}:{lineno}: invalid {what} ({exc})") from exc
    return out


def _tolist(obj):
    """JSON's value of a numpy array or scalar: its `tolist()`."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


_json = json.JSONEncoder(allow_nan=False, default=_tolist).encode


def _write_jsonl(path, records, encode=_json) -> None:
    """One line per record, `encode(record)`; NaN or infinity raises
    before the file opens."""
    lines = [encode(rec) + "\n" for rec in records]
    with open(path, "w") as f:
        f.writelines(lines)


def _get(obj, key: str, *types: type):
    """Finite `obj[key]` whose exact type is in `types` (bool is not int)."""
    if type(obj) is not dict:
        raise ValueError(f"expected an object, got {reprlib.repr(obj)}")
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    v = obj[key]
    if type(v) not in types or type(v) is float and not math.isfinite(v):
        names = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{key!r} must be {names}, got {reprlib.repr(v)}")
    return v


def _numbers(obj, key: str, shape: tuple, dtype=float) -> list:
    """`obj[key]` checked as a `dtype` array of `shape` (None: any length)
    of finite numbers, flattened to a list; a float array's ints become
    floats, and an int beyond the float range raises `OverflowError`."""
    v = _get(obj, key, list)
    flat = v
    if len(shape) == 2:   # a row that is not a list of shape[1] is left out
        flat = [x for row in v if type(row) is list and len(row) == shape[1]
                for x in row]
    types = set(map(type, flat))
    if (shape[0] not in (None, len(v)) or not types <= {int, dtype}
            or len(shape) == 2 and len(flat) != len(v) * shape[1]):
        dims = "x".join("n" if n is None else str(n) for n in shape)
        raise ValueError(f"{key!r} must be a {dims} array of "
                         f"{dtype.__name__}, got {reprlib.repr(v)}")
    if dtype is float:
        if int in types:
            flat = list(map(float, flat))
        total = sum(flat)   # inf or NaN if any number is, or on overflow
        if total - total and not all(map(math.isfinite, flat)):
            raise ValueError(f"{key!r} holds a non-finite number")
    return flat


def _array(obj, key: str, shape: tuple, dtype=float) -> np.ndarray:
    """`obj[key]` as a finite `dtype` array of `shape` (None: any length);
    an int array's number beyond 64 bits raises numpy's `OverflowError`."""
    a = np.array(_numbers(obj, key, shape, dtype), dtype)
    return a if len(shape) == 1 else a.reshape(-1, shape[1])


def write_scans(scans: list[Scan], path) -> None:
    # A stream's scans share one Pose object, so each object's text is
    # encoded once. The line is the text json.dumps gives the whole record.
    poses: dict[int, str] = {}

    def encode(s: Scan) -> str:
        pose = poses.get(id(s.pose))
        if pose is None:
            pose = poses[id(s.pose)] = _json({
                "translation": s.pose.translation,
                "rotation": s.pose.rotation})
        return (f'{{"t": {_json(float(s.t))}, "pose": {pose}, '
                f'"points": {_json(s.points)}}}')
    _write_jsonl(path, scans, encode)


def _pose_key(trans: list, rot: list) -> tuple:
    """Whether a pose's numbers hold a bool, and their signs. Two poses of
    equal values, one of them checked, have the same float64 bits if their
    keys are equal too; equal values alone do not, as `true == 1.0` and
    `-0.0 == 0.0`."""
    flat = [*trans, *rot[0], *rot[1], *rot[2]]
    return bool in set(map(type, flat)), list(map(math.copysign, _ONES, flat))


def read_scans(path) -> list[Scan]:
    """Scans; a pose written as the previous scan's is checked once."""
    last = None   # the previous scan's pose lists and their key

    def decode(rec, prev) -> Scan:
        nonlocal last
        raw = _get(rec, "pose", dict)
        t = float(_get(rec, "t", int, float))
        points = _array(rec, "points", (None, 3))
        trans, rot = raw.get("translation"), raw.get("rotation")
        if (last is not None and (trans, rot) == last[:2]
                and _pose_key(trans, rot) == last[2]):
            return Scan.trusted(t, points, prev.pose)
        pose = Pose(_array(raw, "translation", (3,)),
                    _array(raw, "rotation", (3, 3)))
        last = trans, rot, _pose_key(trans, rot)
        return Scan.trusted(t, points, pose)
    return _read_jsonl(path, "scan", decode)


def write_ground_truth(gt: GroundTruth, path) -> None:
    ids = [int(i) for i in gt.ids]
    _write_jsonl(path, ({"t": t, "targets": [
        {"id": i, "pos": p, "vel": v, "visible": s}
        for i, p, v, s in zip(ids, pos, vel, vis)]}
        for t, pos, vel, vis in zip(
            gt.t.astype(float).tolist(), gt.positions.tolist(),
            gt.velocities.tolist(), gt.visible.astype(bool).tolist())))


def read_ground_truth(path) -> GroundTruth:
    """Truth frames; every frame lists the same target ids in one order."""
    def decode(rec, prev) -> tuple:
        tgs = _get(rec, "targets", list)
        ids = tuple(_get(tg, "id", int) for tg in tgs)
        if prev is not None and ids != prev[1]:
            raise ValueError("target identities changed mid-stream")
        # each vector field of the targets as one (n, 3) column
        cols = {k: [_get(tg, k, list) for tg in tgs] for k in ("pos", "vel")}
        return (float(_get(rec, "t", int, float)), ids,
                _numbers(cols, "pos", (len(tgs), 3)),
                _numbers(cols, "vel", (len(tgs), 3)),
                [_get(tg, "visible", bool) for tg in tgs])
    frames = _read_jsonl(path, "truth", decode)
    if not frames:
        raise ValidationError(f"{path}: empty ground-truth file")
    t, ids, pos, vel, vis = zip(*frames)
    shape = (len(frames), len(ids[0]), 3)
    return GroundTruth(t=np.array(t), positions=np.array(pos).reshape(shape),
                       velocities=np.array(vel).reshape(shape),
                       visible=np.array(vis, dtype=bool), ids=ids[0])


def write_measurement_frames(frames: list[tuple[float, list[Measurement]]],
                             path) -> None:
    _write_jsonl(path, ({"t": float(t), "measurements": [
        {"position": m.position, "support": m.support} for m in ms]}
        for t, ms in frames))


def read_measurement_frames(path) -> list[tuple[float, list[Measurement]]]:
    def decode(rec, prev) -> tuple[float, list[Measurement]]:
        return float(_get(rec, "t", int, float)), [
            Measurement(position=_array(m, "position", (3,)),
                        support=_get(m, "support", int))
            for m in _get(rec, "measurements", list)]
    return _read_jsonl(path, "measurements", decode)


def write_frame_log(log: list[FrameRecord], path) -> None:
    _write_jsonl(path, ({**vars(rec), "t": float(rec.t)} for rec in log))


def read_frame_log(path) -> list[FrameRecord]:
    def track(tr) -> dict:
        if _get(tr, "status", str) not in _STATUSES:
            raise ValueError(f"unknown status {reprlib.repr(tr['status'])}")
        return {"id": _get(tr, "id", int), "status": tr["status"],
                "position": _array(tr, "position", (3,)),
                "velocity": _array(tr, "velocity", (3,)),
                "mu": _array(tr, "mu", (None,))}

    def decode(rec, prev) -> FrameRecord:
        betas = _get(rec, "beta_summary", type(None), list)
        tracks = [track(tr) for tr in _get(rec, "tracks", list)]
        ids = [tr["id"] for tr in tracks]
        if len(set(ids)) < len(ids):  # metrics key positions by track id
            raise ValueError(f"repeated track id in {reprlib.repr(ids)}")
        return FrameRecord(
            t=float(_get(rec, "t", int, float)), tracks=tracks,
            assignments=[tuple(p) for p in _array(
                rec, "assignments", (None, 2), int).tolist()],
            beta_summary=None if betas is None else [
                {"id": _get(b, "id", int),
                 "beta0": float(_get(b, "beta0", int, float)),
                 "best": _get(b, "best", int)} for b in betas],
            spawned=_array(rec, "spawned", (None,), int).tolist(),
            deleted=_array(rec, "deleted", (None,), int).tolist(),
            resurrected=_array(rec, "resurrected", (None,), int).tolist())
    return _read_jsonl(path, "log", decode)
