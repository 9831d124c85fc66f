"""Tests of the benchmark harness itself: python3 -m pytest perfbench -q"""
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.bootstrap()

import bench  # noqa: E402
import tracing  # noqa: E402
from sparsetrack import detector as stdetector  # noqa: E402
from sparsetrack import io as stio  # noqa: E402
from sparsetrack.association import JpdaParams  # noqa: E402

# Short versions of every workload, long enough for the occlusion gap.
SMALL = {name: dataclasses.replace(w, n_frames=8 if w.association is None
                                   else 60)
         for name, w in bench.WORKLOADS.items()}


@pytest.fixture
def clutter(tmp_path):
    w = SMALL["clutter-jpda"]
    return w, bench.setup(w, seed=0, workdir=tmp_path, repeats=1)


def test_capped_jpda_frames_fail_and_the_pass_goes_on(clutter):
    w, s = clutter
    outputs, frame_s, _, _, failed = bench.replay(
        w, s.scans, jpda=JpdaParams(max_events=10))
    frames, log = outputs
    assert 0 < failed < len(s.scans)
    assert len(frame_s) == len(log) == len(frames) == len(s.scans)
    assert [r.t for r in log] == [scan.t for scan in s.scans]


def test_other_exceptions_end_the_run(clutter, monkeypatch):
    w, s = clutter

    def broken(self, scan):
        raise RuntimeError("not a documented failure")

    monkeypatch.setattr(stdetector.Detector, "detect", broken)
    with pytest.raises(RuntimeError):
        bench.replay(w, s.scans)


def test_output_check_passes_and_catches_a_truncated_log(clutter):
    w, s = clutter
    p = bench.run_pass(w, s.files)
    assert bench.check_outputs(w, p, s.files) == []
    stio.write_frame_log(p.outputs[1][:-1], s.files.log)
    problems = bench.check_outputs(w, p, s.files)
    assert any("misaligned" in msg for msg in problems)
    assert any("does not evaluate" in msg for msg in problems)
    log = p.outputs[1]
    moved = next(tr for rec in log for tr in rec.tracks
                 if tr["status"] == "confirmed")
    moved["position"] = moved["position"] + 10.0
    stio.write_frame_log(log, s.files.log)
    assert bench.check_outputs(w, p, s.files) == [
        "frame log read back evaluates differently"]


def test_sweep_output_check_passes(tmp_path):
    w = SMALL["dense-sweep"]
    s = bench.setup(w, seed=1, workdir=tmp_path, repeats=1)
    p = bench.run_pass(w, s.files)
    assert bench.check_outputs(w, p, s.files) == []
    assert set(p.quality(w)) == {f"min_pts{m}.det_{k}" for m in w.min_pts
                                 for k in ("tp", "fp", "fn", "pct")}


def test_tracer_restores_every_hook_even_on_error():
    resolved = [tracing._resolve(h) for h in tracing.HOOKS]
    assert all(resolved)
    before = [vars(owner)[name] for owner, name in resolved]
    tracer = tracing.Tracer()
    with pytest.raises(KeyError):
        with tracer.installed():
            assert all(vars(owner)[name] is not orig for (owner, name), orig
                       in zip(resolved, before))
            raise KeyError("boom")
    assert [vars(owner)[name] for owner, name in resolved] == before


def test_missing_hook_is_reported_not_fatal():
    tracer = tracing.Tracer((tracing.Hook("sparsetrack.io", "no_such_fn",
                                          "io.none"),))
    with tracer.installed():
        pass
    assert tracer.missing == ["sparsetrack.io.no_such_fn"]


@pytest.mark.parametrize("name", ["occlusion-hungarian", "clutter-jpda"])
def test_traced_pass_matches_untraced_and_self_times_add_up(name, tmp_path):
    w = SMALL[name]
    s = bench.setup(w, seed=2, workdir=tmp_path, repeats=1)
    plain = bench.run_pass(w, s.files)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = bench.run_pass(w, s.files, tracer)
    assert traced.quality(w) == plain.quality(w)

    own = tracer.self_times()
    assert min(own) >= -1e-12
    subtree = [0.0] * len(own)
    for i in reversed(range(len(own))):   # children come after parents
        subtree[i] += own[i]
        if tracer.parents[i] >= 0:
            subtree[tracer.parents[i]] += subtree[i]
    for i, parent in enumerate(tracer.parents):
        dur = tracer.ends[i] - tracer.starts[i]
        assert subtree[i] == pytest.approx(dur, abs=1e-9)
        if parent >= 0:
            assert tracer.frames[i] == tracer.frames[parent]


def test_every_listed_metric_is_produced(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    produced: set[str] = set()
    for i, w in enumerate(SMALL.values()):
        values, _, problems, attempted, failed, info = run.measure(
            w, 3, 0.01, tmp_path / f"w{i}", tmp_path / f"t{i}.jsonl")
        assert problems == [] and failed == 0 and attempted > 0
        assert info["missing_hooks"] == []
        produced |= set(values)
    listed = {m["name"] for m in spec["per_layer"]}
    # No workload's preset enables validation layer 3.
    assert listed - produced == {"detector.layer3_reject"}
    values, *_ = run.measure(SMALL["dense-sweep"], 3, 0.01, tmp_path / "e")
    assert set(values) == {m["name"] for m in spec["end_to_end"]}
    assert all(v > 0 for v in values.values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crossings-jpda",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
