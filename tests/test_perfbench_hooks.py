"""perfbench's trace hooks must all attach to the package under src/, and
the tracker must call the ones it uses.

perfbench finds each per-layer span by module and attribute name, so a
rename in io, detector, filter or trackman would silently drop a metric,
and so would a call that bypasses the hooked name.
"""
import dataclasses
from pathlib import Path

import pytest

import sparsetrack

ROOT = Path(__file__).resolve().parents[1]


def test_every_perfbench_hook_resolves_in_src(monkeypatch):
    assert Path(sparsetrack.__file__).resolve().is_relative_to(ROOT / "src")
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import HOOKS, Tracer

    tracer = Tracer()
    with tracer.installed():
        pass
    assert len(HOOKS) > 0
    assert tracer.missing == []


def test_tracer_counts_detector_layers(monkeypatch):
    # A dense stream where layers 1 and 2 both reject clusters, and layer 3
    # too where it is on: the counts perfbench takes from its hooks must
    # equal the per-cluster reference's.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer
    from sparsetrack.detector import Detector, get_preset
    from sparsetrack.simulator import TRACKING_SENSOR, Scenario, run_scenario
    from test_detector import reference_detect

    sensor = dataclasses.replace(TRACKING_SENSOR, clutter_rate=300.0)
    scans, _ = run_scenario(Scenario(kind="separated", n_frames=8, seed=2,
                                     sensor=sensor))
    configs = [dataclasses.replace(get_preset("O"), min_pts=min_pts,
                                   e_max=0.3) for min_pts in (1, 2)]
    configs.append(dataclasses.replace(configs[0], layer3_enabled=True))
    # 0.3 m voxels merge some points; every 0.05 m voxel holds one
    configs.append(dataclasses.replace(configs[0], voxel=0.3))
    for cfg in configs:
        _, want = reference_detect(cfg, scans)
        assert (want["voxels"] < want["points_roi"]) == (cfg.voxel == 0.3)
        assert want["layer1_reject"] > 0 and want["layer2_reject"] > 0
        assert (want["layer3_reject"] > 0) == cfg.layer3_enabled
        tracer = Tracer()
        det = Detector(cfg)
        with tracer.installed():
            for scan in scans:
                det.detect(scan)
        for key in ("points_roi", "voxels", "clusters", "layer1_reject",
                    "layer2_reject", "layer3_reject", "measurements"):
            assert tracer.counts[f"detector.{key}"] == want[key], key
        assert {"detector.validate", "detector.centroid"} <= set(tracer.names)


def test_tracer_counts_equal_on_both_detector_branches(monkeypatch):
    # Scans on both sides of the scalar branch's size limit: perfbench's
    # detector counters must not depend on which branch a stage takes.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer
    from sparsetrack import detector
    from sparsetrack.simulator import TRACKING_SENSOR, Scenario, run_scenario

    sensor = dataclasses.replace(TRACKING_SENSOR, clutter_rate=10.0)
    scans, _ = run_scenario(Scenario(kind="moderate", n_frames=200, seed=3,
                                     sensor=sensor))
    sizes = [len(s) for s in scans]
    assert min(sizes) <= detector._SCALAR_MAX < max(sizes)
    counts = []
    for limit in (detector._SCALAR_MAX, -1):
        monkeypatch.setattr(detector, "_SCALAR_MAX", limit)
        tracer = Tracer()
        det = detector.Detector(detector.get_preset("MR"))
        with tracer.installed():
            for scan in scans:
                det.detect(scan)
        counts.append({k: v for k, v in tracer.counts.items()
                       if k.startswith("detector.")})
    assert counts[0] == counts[1]
    assert counts[0]["detector.measurements"] > 0
    assert counts[0]["detector.voxels"] < counts[0]["detector.points_roi"]


@pytest.mark.parametrize("mode, hooks", [
    ("hungarian", {"association.build_cost", "association.hungarian",
                   "filter.imm_correct"}),
    ("jpda", {"association.jpda", "trackman.pda_update"}),
])
def test_tracker_hooks_are_called(monkeypatch, mode, hooks):
    # each tracker hook a mode uses records a span on a short crossings run
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer
    from sparsetrack.detector import Detector, get_preset
    from sparsetrack.simulator import Scenario, run_scenario
    from sparsetrack.trackman import Tracker, TrackerConfig

    scans, _ = run_scenario(Scenario(kind="crossings", n_frames=60, seed=0))
    det = Detector(get_preset("A_s"))
    frames = [(s.t, det.detect(s)) for s in scans]
    tracker = Tracker(TrackerConfig(association_mode=mode))
    tracer = Tracer()
    with tracer.installed():
        for t, ms in frames:
            tracker.step(ms, t)
    shared = {"filter.imm_predict", "filter.imm_init", "association.gate",
              "trackman.lifecycle", "trackman.step"}
    assert shared | hooks <= set(tracer.names)
