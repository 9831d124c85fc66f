"""Workloads, set-up and measured passes of the sparsetrack benchmark.

Each workload replays one simulated scan stream in a single process, in a
closed loop: one caller hands the next frame to the detector and tracker as
soon as the previous frame returns, as `sparsetrack track` and
`sparsetrack sweep` do. Set-up runs `simulator.run_scenario` and writes
`scans.jsonl` and `truth.jsonl`. A pass then does what the CLI does:
`io.read_scans` -> `Detector.detect` -> `Tracker.step` ->
`io.write_frame_log` -> `eval_mot`/`eval_detection`.

Library functions are called through their modules (`stio.read_scans`,
`stmetrics.eval_mot`) so that a `tracing.Tracer` can wrap them.
"""
from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from sparsetrack import io as stio
from sparsetrack import metrics as stmetrics
from sparsetrack import simulator
from sparsetrack.association import AssociationComplexityError
from sparsetrack.core import NumericalError, ValidationError
from sparsetrack.detector import Detector, DetectorConfig, get_preset
from sparsetrack.simulator import TRACKING_SENSOR, Scenario
from sparsetrack.trackman import FrameRecord, Tracker, TrackerConfig

# A frame whose detect/step raises one of these counts as failed and the
# pass goes on; any other exception ends the run.
FAILURES = (AssociationComplexityError, NumericalError, ValidationError)

SETUP_REPEATS = 5
WARMUP_FRAMES = 10
TIME_TOL = 1e-9

# On a shared 2-vCPU x86-64 VM (2.0 GHz) the same code ran up to 2x slower
# for fractions of a second to seconds at a time, whatever the code. To see
# it, a fixed calibration kernel runs after the first frame that ends at
# least CAL_PERIOD_S after the previous kernel, and at the end of a pass,
# outside the frame and pass timings (about 2% extra work). The median of
# CAL_WINDOW kernel times around a frame, over CAL_REF_S (the kernel's time
# on that VM when quiet, Python 3.11, numpy 2.4), is the slowdown the frame
# ran under; reported times are divided by it.
CAL_PERIOD_S = 0.05
CAL_WINDOW = 9
CAL_REF_S = 0.0007
_CAL_MATRIX = np.eye(6) + 0.1


def calibration_kernel() -> float:
    """Fixed work that never calls sparsetrack.

    It mixes small-matrix numpy calls with Python object churn, as the
    detector and tracker do, so that it slows down when they do.
    """
    a, acc = _CAL_MATRIX, 0.0
    for i in range(60):
        acc += float(np.linalg.inv(a[:3, :3])[0, 0] + (a @ a.T)[0, 0])
        acc += sum(j * 0.5 for j in range(20)) + len({"i": i, "l": [i, i]})
    return acc


def time_kernel() -> float:
    t0 = perf_counter()
    calibration_kernel()
    return perf_counter() - t0


def slowdown(cal_s) -> float:
    return median(cal_s) / CAL_REF_S


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    preset: str
    association: str | None = None     # None: minPts sweep without a tracker
    min_pts: tuple[int, ...] = ()      # sweep grid, or one preset override
    n_frames: int | None = None        # None: the scenario's default length
    clutter_rate: float | None = None  # None: TRACKING_SENSOR's rate

    def scenario(self, seed: int) -> Scenario:
        sensor = TRACKING_SENSOR
        if self.clutter_rate is not None:
            sensor = dataclasses.replace(sensor, clutter_rate=self.clutter_rate)
        return Scenario(kind=self.kind, n_frames=self.n_frames, seed=seed,
                        sensor=sensor)

    def detector_configs(self) -> list[DetectorConfig]:
        base = get_preset(self.preset)
        return [dataclasses.replace(base, min_pts=m)
                for m in self.min_pts] or [base]


# Why each workload exists is recorded in BENCHMARK.json; in short, each one
# makes a different layer dominate: per-object IMM work, Hungarian with the
# single-measurement IMM correction and resurrection, JPDA joint-event
# enumeration over many tentative tracks, and O(n^2) DBSCAN plus JSON parsing.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("crossings-jpda", "crossings", "A_s", association="jpda"),
    Workload("occlusion-hungarian", "occlusion", "A_s",
             association="hungarian"),
    Workload("clutter-jpda", "crossings", "B_s", association="jpda",
             min_pts=(1,), n_frames=600, clutter_rate=2.5),
    Workload("dense-sweep", "separated", "O", min_pts=(1, 2, 3, 4),
             n_frames=60, clutter_rate=500.0),
)}


@dataclass(frozen=True)
class Files:
    scans: Path
    truth: Path
    log: Path
    detections: Path

    @staticmethod
    def under(workdir: Path) -> "Files":
        return Files(*(workdir / n for n in (
            "scans.jsonl", "truth.jsonl", "log.jsonl", "detections.jsonl")))


@dataclass
class Setup:
    files: Files
    seconds: list[float]          # simulate + write, per repeat, scaled
    simulate_seconds: list[float]  # scaled
    slowdown: float
    points_per_scan: float
    scans: list                   # in-memory stream, for the warm-up only


def setup(w: Workload, seed: int, workdir: Path,
          repeats: int = SETUP_REPEATS) -> Setup:
    """Simulate and write the inputs `repeats` times; keep the last copy."""
    workdir.mkdir(parents=True, exist_ok=True)
    files = Files.under(workdir)
    total, sim, factors = [], [], []
    for _ in range(repeats):
        k = slowdown([time_kernel() for _ in range(CAL_WINDOW)])
        t0 = perf_counter()
        scans, gt = simulator.run_scenario(w.scenario(seed))
        t1 = perf_counter()
        stio.write_scans(scans, files.scans)
        stio.write_ground_truth(gt, files.truth)
        total.append((perf_counter() - t0) / k)
        sim.append((t1 - t0) / k)
        factors.append(k)
    pts = float(np.mean([len(s) for s in scans]))
    return Setup(files, total, sim, median(factors), pts, scans)


@dataclass
class Pass:
    seconds: float                # pass time, calibration excluded
    frame_s: list[float]          # detect (+ step) time of every frame
    cal_s: list[float]            # calibration kernel times
    cal_at: list[int]             # frames done before each kernel ran
    failed: int
    outputs: list                 # see `replay`
    # [MotReport, DetectionReport], or a DetectionReport per sweep config
    reports: list
    gt: object

    def scaled_frame_s(self) -> np.ndarray:
        """Each frame's time divided by the slowdown it ran under."""
        c = np.asarray(self.cal_s) / CAL_REF_S
        half = CAL_WINDOW // 2
        local = np.array([np.median(c[max(0, i - half):i + half + 1])
                          for i in range(len(c))])
        # The first kernel that ran after frame k.
        after = np.searchsorted(self.cal_at, np.arange(len(self.frame_s)) + 1)
        return np.asarray(self.frame_s) / local[after]

    def scaled_seconds(self) -> float:
        """Pass time with frames scaled as above and the rest (reading,
        writing, evaluation) by the pass's median slowdown."""
        rest = self.seconds - sum(self.frame_s)
        return float(self.scaled_frame_s().sum()) + rest / slowdown(self.cal_s)

    def quality(self, w: Workload) -> dict:
        """The quality fingerprint as flat, JSON-exact numbers."""
        q = {}
        dets = self.reports
        if w.association is not None:
            mot, *dets = self.reports
            q.update(mota=mot.mota, id_switches=mot.id_switches, fp=mot.fp,
                     fn=mot.fn, rmse=mot.rmse)
        tags = [f"min_pts{m}." for m in w.min_pts] if len(dets) > 1 else [""]
        for tag, rep in zip(tags, dets):
            q.update({f"{tag}det_tp": rep.tp, f"{tag}det_fp": rep.fp,
                      f"{tag}det_fn": rep.fn, f"{tag}det_pct": rep.det_pct})
        return q

    @property
    def det_f1(self) -> float:
        """F1 over the TP/FP/FN pooled across every detection report."""
        dets = [r for r in self.reports
                if isinstance(r, stmetrics.DetectionReport)]
        tp = sum(r.tp for r in dets)
        return 2 * tp / (2 * tp + sum(r.fp + r.fn for r in dets))


def _empty_record(t: float) -> FrameRecord:
    return FrameRecord(t=t, tracks=[], assignments=[], beta_summary=None,
                       spawned=[], deleted=[], resurrected=[])


def replay(w: Workload, scans, tracer=None, jpda=None):
    """Closed-loop detect (+ track) over the stream for every config.

    Returns (outputs, frame seconds, calibration seconds, frames done
    before each calibration, failed frames).
    A tracking workload outputs [(t, measurements) list, frame log]; a
    sweep outputs one (t, measurements) list per detector config. `jpda`
    overrides the tracker's JpdaParams.
    """
    outputs, frame_s, cal_s, cal_at, failed = [], [], [], [], 0
    last_cal = perf_counter()
    for c, cfg in enumerate(w.detector_configs()):
        detector = Detector(cfg)
        tracker = None
        if w.association is not None:
            tcfg = TrackerConfig(association_mode=w.association)
            if jpda is not None:
                tcfg = dataclasses.replace(tcfg, jpda=jpda)
            tracker = Tracker(tcfg)
        frames, log = [], []
        for k, scan in enumerate(scans):
            if tracer is not None:
                tracer.frame = c * len(scans) + k
            ms = []
            t0 = perf_counter()
            try:
                ms = detector.detect(scan)
                if tracker is not None:
                    log.append(tracker.step(ms, scan.t))
            except FAILURES:
                failed += 1
                if tracker is not None:
                    log.append(_empty_record(scan.t))
            t1 = perf_counter()
            frame_s.append(t1 - t0)
            frames.append((scan.t, ms))
            if t1 - last_cal >= CAL_PERIOD_S:
                cal_s.append(time_kernel())
                cal_at.append(len(frame_s))
                last_cal = perf_counter()
        outputs.append(frames)
        if tracker is not None:
            outputs.append(log)
    cal_s.append(time_kernel())
    cal_at.append(len(frame_s))
    if tracer is not None:
        tracer.frame = -1
    return outputs, frame_s, cal_s, cal_at, failed


def run_pass(w: Workload, files: Files, tracer=None) -> Pass:
    """One measured pass, I/O and evaluation included."""
    t0 = perf_counter()
    scans = stio.read_scans(files.scans)
    gt = stio.read_ground_truth(files.truth)
    outputs, frame_s, cal_s, cal_at, failed = replay(w, scans, tracer)
    reports = []
    if w.association is not None:
        frames, log = outputs
        stio.write_frame_log(log, files.log)
        reports.append(stmetrics.eval_mot(log, gt))
        reports.append(stmetrics.eval_detection([ms for _, ms in frames], gt))
    else:
        for frames in outputs:
            reports.append(stmetrics.eval_detection(
                [ms for _, ms in frames], gt))
    return Pass(perf_counter() - t0 - sum(cal_s), frame_s, cal_s, cal_at,
                failed, outputs, reports, gt)


def _aligned(times, gt) -> str | None:
    if len(times) != gt.n_frames:
        return f"{len(times)} frames vs {gt.n_frames} in the truth"
    bad = np.flatnonzero(np.abs(np.asarray(times) - gt.t) > TIME_TOL)
    if bad.size:
        k = int(bad[0])
        return f"frame {k} at t={times[k]} vs truth t={gt.t[k]}"
    return None


def check_outputs(w: Workload, p: Pass, files: Files) -> list[str]:
    """Problems with one pass's outputs; empty when they are correct.

    The frame log the pass wrote (for a sweep, each config's detections,
    written here) is read back and must evaluate to the same report as the
    in-memory output; frame count and timestamps must match the truth.
    """
    problems = []

    def compare(label, times, back_times, same):
        for what, ts in (("", times), (" read back", back_times)):
            why = _aligned(ts, p.gt)
            if why:
                problems.append(f"{label}{what} misaligned: {why}")
        try:
            if not same():
                problems.append(f"{label} read back evaluates differently")
        except ValidationError as exc:
            problems.append(f"{label} read back does not evaluate: {exc}")

    if w.association is not None:
        log = p.outputs[1]
        back = stio.read_frame_log(files.log)
        compare("frame log", [r.t for r in log], [r.t for r in back],
                lambda: stmetrics.eval_mot(back, p.gt) == p.reports[0])
    else:
        for m, frames, rep in zip(w.min_pts, p.outputs, p.reports):
            stio.write_measurement_frames(frames, files.detections)
            back = stio.read_measurement_frames(files.detections)
            compare(f"min_pts={m} detections", [t for t, _ in frames],
                    [t for t, _ in back], lambda: rep == stmetrics.
                    eval_detection([ms for _, ms in back], p.gt))
    return problems


def median(values) -> float:
    return float(statistics.median(values))
