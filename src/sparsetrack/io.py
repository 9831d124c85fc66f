"""JSON Lines serialization for scans, ground truth, measurements, and logs.

One record per line; floats are emitted at full precision so files
round-trip losslessly through these parsers.
"""
from __future__ import annotations

import json

import numpy as np

from .core import Measurement, Pose, Scan
from .simulator import GroundTruth
from .trackman import FrameRecord


class DataError(ValueError):
    """Malformed or misaligned input data."""


def _loads(line: str, path, lineno: int) -> dict:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc


def write_scans(scans: list[Scan], path) -> None:
    with open(path, "w") as f:
        for s in scans:
            rec = {
                "t": s.t,
                "pose": {
                    "translation": s.pose.translation.tolist(),
                    "rotation": s.pose.rotation.tolist(),
                },
                "points": s.points.tolist(),
            }
            f.write(json.dumps(rec) + "\n")


def read_scans(path) -> list[Scan]:
    scans = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            rec = _loads(line, path, lineno)
            try:
                pose = Pose(np.array(rec["pose"]["translation"]),
                            np.array(rec["pose"]["rotation"]))
                scans.append(Scan(t=float(rec["t"]),
                                  points=np.array(rec["points"], dtype=float),
                                  pose=pose))
            except (KeyError, ValueError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: invalid scan ({exc})") from exc
    return scans


def write_ground_truth(gt: GroundTruth, path) -> None:
    with open(path, "w") as f:
        for k in range(gt.n_frames):
            rec = {
                "t": float(gt.t[k]),
                "targets": [
                    {
                        "id": int(gt.ids[i]),
                        "pos": gt.positions[k, i].tolist(),
                        "vel": gt.velocities[k, i].tolist(),
                        "visible": bool(gt.visible[k, i]),
                    }
                    for i in range(gt.positions.shape[1])
                ],
            }
            f.write(json.dumps(rec) + "\n")


def read_ground_truth(path) -> GroundTruth:
    ts, pos, vel, vis = [], [], [], []
    ids = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            rec = _loads(line, path, lineno)
            try:
                targets = rec["targets"]
                frame_ids = tuple(int(tg["id"]) for tg in targets)
                if ids is None:
                    ids = frame_ids
                elif frame_ids != ids:
                    raise DataError(
                        f"{path}:{lineno}: target identities changed mid-stream")
                ts.append(float(rec["t"]))
                pos.append([tg["pos"] for tg in targets])
                vel.append([tg["vel"] for tg in targets])
                vis.append([bool(tg["visible"]) for tg in targets])
            except (KeyError, ValueError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: invalid truth ({exc})") from exc
    if not ts:
        raise DataError(f"{path}: empty ground-truth file")
    return GroundTruth(t=np.array(ts), positions=np.array(pos, dtype=float),
                       velocities=np.array(vel, dtype=float),
                       visible=np.array(vis, dtype=bool), ids=ids)


def write_measurement_frames(frames: list[tuple[float, list[Measurement]]],
                             path) -> None:
    with open(path, "w") as f:
        for t, ms in frames:
            rec = {
                "t": t,
                "measurements": [
                    {"position": m.position.tolist(), "support": m.support}
                    for m in ms
                ],
            }
            f.write(json.dumps(rec) + "\n")


def read_measurement_frames(path) -> list[tuple[float, list[Measurement]]]:
    frames = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            rec = _loads(line, path, lineno)
            try:
                t = float(rec["t"])
                ms = [Measurement(t=t, position=np.array(m["position"]),
                                  support=int(m["support"]))
                      for m in rec["measurements"]]
                frames.append((t, ms))
            except (KeyError, ValueError, TypeError) as exc:
                raise DataError(
                    f"{path}:{lineno}: invalid measurements ({exc})") from exc
    return frames


def write_frame_log(log: list[FrameRecord], path) -> None:
    with open(path, "w") as f:
        for rec in log:
            out = {
                "t": rec.t,
                "tracks": [
                    {
                        "id": tr["id"],
                        "status": tr["status"],
                        "position": np.asarray(tr["position"]).tolist(),
                        "velocity": np.asarray(tr["velocity"]).tolist(),
                        "mu": np.asarray(tr["mu"]).tolist(),
                    }
                    for tr in rec.tracks
                ],
                "assignments": [[int(a), int(b)] for a, b in rec.assignments],
                "beta_summary": rec.beta_summary,
                "spawned": rec.spawned,
                "deleted": rec.deleted,
                "resurrected": rec.resurrected,
            }
            f.write(json.dumps(out) + "\n")


def read_frame_log(path) -> list[FrameRecord]:
    log = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            rec = _loads(line, path, lineno)
            try:
                log.append(FrameRecord(
                    t=float(rec["t"]),
                    tracks=[{
                        "id": int(tr["id"]),
                        "status": tr["status"],
                        "position": np.array(tr["position"], dtype=float),
                        "velocity": np.array(tr["velocity"], dtype=float),
                        "mu": np.array(tr["mu"], dtype=float),
                    } for tr in rec["tracks"]],
                    assignments=[(int(a), int(b))
                                 for a, b in rec["assignments"]],
                    beta_summary=rec.get("beta_summary"),
                    spawned=list(rec.get("spawned", [])),
                    deleted=list(rec.get("deleted", [])),
                    resurrected=list(rec.get("resurrected", [])),
                ))
            except (KeyError, ValueError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: invalid log ({exc})") from exc
    return log
