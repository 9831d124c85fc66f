"""Print sha256 digests of the library's outputs over a range of seeds.

    PYTHONPATH=src python3 tools/output_digest.py --seeds 0-19 [--frames N] \
        [--logs DIR]

`sparsetrack` is imported from PYTHONPATH, so running this once against
each of two source trees and comparing the printed JSON shows whether a
change moved any output bit. The output is one JSON object with one
object of digests per scenario kind; each digest covers every seed, in
order:

- `scans/<sensor>` and `truth/<sensor>`: `run_scenario` under
  `TRACKING_SENSOR` ("tracking") and `SensorModel()` ("default"), as
  `write_scans` and `write_ground_truth` write them;
- `detections/<preset>/<sensor>`: `Detector.detect` over those scans for
  presets A_s, B_s, O, S1, S4 and MR, as `write_measurement_frames` writes
  them, and `detection_report/<preset>/<sensor>`, their `eval_detection`;
- `frame_log/<mode>` and `mot_report/<mode>`: the tracker over the A_s
  detections of the tracking sensor in each association mode, as
  `write_frame_log` writes it, and its `eval_mot`;
- `frame_log/<mode>/clutter` and `mot_report/<mode>/clutter`: the
  tracker in each association mode over B_s detections with minPts 1, on
  a 600-frame stream of the tracking sensor at 2.5 clutter returns per
  scan, where an update takes up to tens of tracks.

`--frames N` shortens every stream to N frames (default: each kind's own
length; at most 600 for the clutter stream). `--logs DIR` also writes each
frame log it digests to DIR as `<kind>-<seed>-<mode>.jsonl`, or
`<kind>-<seed>-<mode>-clutter.jsonl` for the clutter stream, so that
`tools/frame_log_compare.py` can compare two trees' logs directory against
directory.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from sparsetrack import io
from sparsetrack.detector import Detector, get_preset
from sparsetrack.metrics import eval_detection, eval_mot
from sparsetrack.simulator import (KINDS, TRACKING_SENSOR, Scenario,
                                   SensorModel, run_scenario)
from sparsetrack.trackman import TrackerConfig, run_tracker

PRESETS = ("A_s", "B_s", "O", "S1", "S4", "MR")
SENSORS = {"tracking": TRACKING_SENSOR, "default": SensorModel()}
MODES = ("hungarian", "jpda")
CLUTTER = dataclasses.replace(TRACKING_SENSOR, clutter_rate=2.5)
CLUTTER_FRAMES = 600


def parse_seeds(text: str) -> range:
    """`A-B` (both included) or a single seed `A`."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def kind_outputs(kind: str, seed: int, frames: int | None, tmp: Path,
                 logs: Path | None = None):
    """(key, bytes) of every output of one kind and seed; each frame log is
    also written to `logs`, when given."""
    def written(write, data) -> bytes:
        path = tmp / "out.jsonl"
        write(data, path)
        return path.read_bytes()

    def report(rep) -> bytes:
        return json.dumps(rep.to_dict()).encode()

    def detected(cfg, scans):
        det = Detector(cfg)
        return [(s.t, det.detect(s)) for s in scans]

    def tracked(key, dets, gt, mode):
        log = run_tracker(dets, TrackerConfig(association_mode=mode))
        data = written(io.write_frame_log, log)
        if logs is not None:
            name = f"{kind}-{seed}-{key.replace('/', '-')}.jsonl"
            (logs / name).write_bytes(data)
        yield f"frame_log/{key}", data
        yield f"mot_report/{key}", report(eval_mot(log, gt))

    for name, sensor in SENSORS.items():
        scans, gt = run_scenario(Scenario(kind=kind, n_frames=frames,
                                          seed=seed, sensor=sensor))
        yield f"scans/{name}", written(io.write_scans, scans)
        yield f"truth/{name}", written(io.write_ground_truth, gt)
        for preset in PRESETS:
            dets = detected(get_preset(preset), scans)
            yield (f"detections/{preset}/{name}",
                   written(io.write_measurement_frames, dets))
            yield (f"detection_report/{preset}/{name}",
                   report(eval_detection([ms for _, ms in dets], gt)))
            if (preset, name) == ("A_s", "tracking"):
                for mode in MODES:
                    yield from tracked(mode, dets, gt, mode)
    scans, gt = run_scenario(Scenario(
        kind=kind, n_frames=min(frames or CLUTTER_FRAMES, CLUTTER_FRAMES),
        seed=seed, sensor=CLUTTER))
    dets = detected(dataclasses.replace(get_preset("B_s"), min_pts=1), scans)
    for mode in MODES:
        yield from tracked(f"{mode}/clutter", dets, gt, mode)


def digests(seeds, frames: int | None = None, logs: Path | None = None
            ) -> dict[str, dict[str, str]]:
    """{kind: {key: sha256 hex}}, each digest over `seeds` in order; the
    frame logs are also written to `logs`, when given."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in KINDS:
            hashes: dict = {}
            for seed in seeds:
                for key, data in kind_outputs(kind, seed, frames, Path(tmp),
                                              logs):
                    hashes.setdefault(key, hashlib.sha256()).update(data)
            out[kind] = {k: h.hexdigest() for k, h in hashes.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="A-B, both included, or one seed")
    ap.add_argument("--frames", type=int, default=None,
                    help="frames per stream (default: each kind's own)")
    ap.add_argument("--logs", type=Path, default=None,
                    help="directory to write every frame log to")
    args = ap.parse_args(argv)
    if args.logs is not None:
        args.logs.mkdir(parents=True, exist_ok=True)
    print(json.dumps(digests(args.seeds, args.frames, args.logs), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
