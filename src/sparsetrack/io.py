"""JSON Lines files of scans, ground truth, measurements and frame logs.

`_read_jsonl`/`_write_jsonl` own the file loop, and `_get`/`_array` alone
turn JSON values into Python values (README "File formats" has the rules).
"""
from __future__ import annotations

import json
import math
import reprlib
from itertools import chain

import numpy as np

from .core import Measurement, Pose, Scan
from .simulator import GroundTruth
from .trackman import CONFIRMED, DELETED, DORMANT, TENTATIVE, FrameRecord

_STATUSES = (TENTATIVE, CONFIRMED, DORMANT, DELETED)


class DataError(ValueError):
    """Malformed or misaligned input data."""


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
                raise DataError(
                    f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
            except (ValueError, OverflowError, RecursionError) as exc:
                raise DataError(
                    f"{path}:{lineno}: invalid {what} ({exc})") from exc
    return out


def _write_jsonl(path, records) -> None:
    """One line per record; NaN or infinity raises before the file opens."""
    lines = [json.dumps(rec, allow_nan=False) + "\n" for rec in records]
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


def _array(obj, key: str, shape: tuple, dtype=float) -> np.ndarray:
    """`obj[key]` as a finite `dtype` array of `shape` (None: any length)."""
    v = _get(obj, key, list)
    items = v if len(shape) == 1 else chain.from_iterable(v)
    if (shape[0] not in (None, len(v)) or len(shape) == 2 and not (
            set(map(type, v)) <= {list} and set(map(len, v)) <= {shape[1]})
            or not set(map(type, items)) <= {int, dtype}):
        dims = "x".join("n" if n is None else str(n) for n in shape)
        raise ValueError(f"{key!r} must be a {dims} array of "
                         f"{dtype.__name__}, got {reprlib.repr(v)}")
    a = np.array(v, dtype=dtype) if v else np.empty((0, *shape[1:]), dtype)
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise ValueError(f"{key!r} holds a non-finite number")
    return a


def write_scans(scans: list[Scan], path) -> None:
    _write_jsonl(path, ({
        "t": s.t,
        "pose": {"translation": s.pose.translation.tolist(),
                 "rotation": s.pose.rotation.tolist()},
        "points": s.points.tolist()} for s in scans))


def read_scans(path) -> list[Scan]:
    """Scans; a pose bit-identical to the previous scan's is checked once."""
    def decode(rec, prev) -> Scan:
        raw = _get(rec, "pose", dict)
        t = float(_get(rec, "t", int, float))
        points = _array(rec, "points", (None, 3))
        trans = _array(raw, "translation", (3,))
        rot = _array(raw, "rotation", (3, 3))
        # by bits, so -0.0 and 0.0 differ and a reused pose is this line's
        if (prev is not None
                and trans.tobytes() == prev.pose.translation.tobytes()
                and rot.tobytes() == prev.pose.rotation.tobytes()):
            pose = prev.pose
        else:
            pose = Pose(trans, rot)
        return Scan(t=t, points=points, pose=pose)
    return _read_jsonl(path, "scan", decode)


def write_ground_truth(gt: GroundTruth, path) -> None:
    _write_jsonl(path, ({"t": float(gt.t[k]), "targets": [
        {"id": int(gt.ids[i]), "pos": gt.positions[k, i].tolist(),
         "vel": gt.velocities[k, i].tolist(),
         "visible": bool(gt.visible[k, i])}
        for i in range(gt.positions.shape[1])]} for k in range(gt.n_frames)))


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
                _array(cols, "pos", (len(tgs), 3)),
                _array(cols, "vel", (len(tgs), 3)),
                [_get(tg, "visible", bool) for tg in tgs])
    frames = _read_jsonl(path, "truth", decode)
    if not frames:
        raise DataError(f"{path}: empty ground-truth file")
    t, ids, pos, vel, vis = zip(*frames)
    return GroundTruth(t=np.array(t), positions=np.array(pos),
                       velocities=np.array(vel),
                       visible=np.array(vis, dtype=bool), ids=ids[0])


def write_measurement_frames(frames: list[tuple[float, list[Measurement]]],
                             path) -> None:
    _write_jsonl(path, ({"t": t, "measurements": [
        {"position": m.position.tolist(), "support": m.support} for m in ms]}
        for t, ms in frames))


def read_measurement_frames(path) -> list[tuple[float, list[Measurement]]]:
    def decode(rec, prev) -> tuple[float, list[Measurement]]:
        t = float(_get(rec, "t", int, float))
        return t, [Measurement(t=t, position=_array(m, "position", (3,)),
                               support=_get(m, "support", int))
                   for m in _get(rec, "measurements", list)]
    return _read_jsonl(path, "measurements", decode)


def write_frame_log(log: list[FrameRecord], path) -> None:
    _write_jsonl(path, ({
        "t": rec.t,
        "tracks": [{"id": tr["id"], "status": tr["status"],
                    "position": np.asarray(tr["position"]).tolist(),
                    "velocity": np.asarray(tr["velocity"]).tolist(),
                    "mu": np.asarray(tr["mu"]).tolist()}
                   for tr in rec.tracks],
        "assignments": [[int(a), int(b)] for a, b in rec.assignments],
        "beta_summary": rec.beta_summary, "spawned": rec.spawned,
        "deleted": rec.deleted, "resurrected": rec.resurrected}
        for rec in log))


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
