"""perfbench's trace hooks must all attach to the package under src/.

perfbench finds each per-layer span by module and attribute name, so a
rename in io, detector, filter or trackman would silently drop a metric.
"""
import dataclasses
from pathlib import Path

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
    # A dense stream where layers 1 and 2 both reject clusters: the counts
    # perfbench takes from its hooks must equal the per-cluster reference's.
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer
    from sparsetrack.detector import Detector, get_preset
    from sparsetrack.simulator import TRACKING_SENSOR, Scenario, run_scenario
    from test_detector import reference_detect

    sensor = dataclasses.replace(TRACKING_SENSOR, clutter_rate=300.0)
    scans, _ = run_scenario(Scenario(kind="separated", n_frames=8, seed=2,
                                     sensor=sensor))
    for min_pts in (1, 2):
        cfg = dataclasses.replace(get_preset("O"), min_pts=min_pts, e_max=0.3)
        _, want = reference_detect(cfg, scans)
        assert want["layer1_reject"] > 0 and want["layer2_reject"] > 0
        tracer = Tracer()
        det = Detector(cfg)
        with tracer.installed():
            for scan in scans:
                det.detect(scan)
        for key in ("clusters", "layer1_reject", "layer2_reject",
                    "measurements"):
            assert tracer.counts[f"detector.{key}"] == want[key], key
        assert {"detector.validate", "detector.centroid"} <= set(tracer.names)
