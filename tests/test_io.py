import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsetrack import io as stio
from sparsetrack.cli import main
from sparsetrack.core import Measurement, Pose, Scan, ValidationError
from sparsetrack.simulator import (GroundTruth, Scenario, gen_trajectories,
                                   run_scenario)
from sparsetrack.trackman import FrameRecord, TrackerConfig, run_tracker


@pytest.fixture(scope="module")
def small_run():
    scans, gt = run_scenario(Scenario(kind="separated", n_frames=40, seed=3))
    return scans, gt


def test_scan_roundtrip(tmp_path, small_run):
    scans, _ = small_run
    path = tmp_path / "scans.jsonl"
    stio.write_scans(scans, path)
    back = stio.read_scans(path)
    assert len(back) == len(scans)
    for a, b in zip(scans, back):
        assert a.t == b.t
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.pose.rotation, b.pose.rotation)


def test_scan_lines_are_each_records_json(tmp_path):
    # each pose object's text is encoded once and reused; the file must be
    # the one that encoding every record whole gives
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    poses = [Pose(np.array([-0.0, 2.5, 1e-300]), rot),
             Pose(np.array([0.1, 0.0, -3.0]), np.eye(3))]
    scans = [Scan(t=0.1 * k, points=np.arange(3.0 * (k % 3)).reshape(-1, 3),
                  pose=poses[k % 2]) for k in range(6)]
    path = tmp_path / "scans.jsonl"
    stio.write_scans(scans, path)
    assert path.read_text() == "".join(json.dumps({
        "t": s.t,
        "pose": {"translation": s.pose.translation.tolist(),
                 "rotation": s.pose.rotation.tolist()},
        "points": s.points.tolist()}) + "\n" for s in scans)
    assert '"translation": [-0.0, 2.5, 1e-300]' in path.read_text()


def test_ground_truth_roundtrip(tmp_path, small_run):
    _, gt = small_run
    path = tmp_path / "truth.jsonl"
    stio.write_ground_truth(gt, path)
    back = stio.read_ground_truth(path)
    assert np.array_equal(gt.t, back.t)
    assert np.array_equal(gt.positions, back.positions)
    assert np.array_equal(gt.velocities, back.velocities)
    assert np.array_equal(gt.visible, back.visible)
    assert gt.ids == back.ids


@pytest.mark.parametrize("n_targets", [1, 3])
def test_ground_truth_roundtrip_any_target_count(tmp_path, n_targets):
    rng = np.random.default_rng(n_targets)
    gt = GroundTruth(t=np.arange(4) * 0.1,
                     positions=rng.standard_normal((4, n_targets, 3)),
                     velocities=rng.standard_normal((4, n_targets, 3)),
                     visible=rng.random((4, n_targets)) < 0.5)
    assert gt.ids == tuple(range(n_targets))
    path = tmp_path / "truth.jsonl"
    stio.write_ground_truth(gt, path)
    back = stio.read_ground_truth(path)
    assert back.ids == gt.ids
    assert np.array_equal(gt.positions, back.positions)
    assert np.array_equal(gt.velocities, back.velocities)
    assert np.array_equal(gt.visible, back.visible)


def test_ground_truth_ids_length_checked():
    with pytest.raises(ValidationError, match="ids"):
        GroundTruth(t=np.zeros(1), positions=np.zeros((1, 2, 3)),
                    velocities=np.zeros((1, 2, 3)),
                    visible=np.ones((1, 2), dtype=bool), ids=(0, 1, 2))


def test_measurement_roundtrip(tmp_path):
    frames = [(0.1 * k,
               [Measurement(position=np.array([k, 0.5, 2.0]), support=k + 1)])
              for k in range(5)]
    path = tmp_path / "meas.jsonl"
    stio.write_measurement_frames(frames, path)
    back = stio.read_measurement_frames(path)
    for (t1, m1), (t2, m2) in zip(frames, back):
        assert t1 == t2
        assert np.array_equal(m1[0].position, m2[0].position)
        assert m1[0].support == m2[0].support


def test_frame_log_roundtrip(tmp_path):
    frames = [(0.1 * k,
               [Measurement(position=np.array([0.5 * k, 0.0, 5.0]), support=2)])
              for k in range(20)]
    log = run_tracker(frames, TrackerConfig())
    path = tmp_path / "log.jsonl"
    stio.write_frame_log(log, path)
    back = stio.read_frame_log(path)
    assert len(back) == len(log)
    for a, b in zip(log, back):
        assert a.t == b.t
        assert a.assignments == b.assignments
        for ta, tb in zip(a.tracks, b.tracks):
            assert ta["id"] == tb["id"] and ta["status"] == tb["status"]
            assert np.array_equal(np.asarray(ta["position"]), tb["position"])


@pytest.mark.parametrize("t", [np.float32(1.5), np.int64(3), np.float64(0.1)])
def test_numpy_scalar_times_are_written_as_floats(tmp_path, t):
    # each writer stores float(t): the bytes a Python float time gives
    def written(t, name) -> bytes:
        path = tmp_path / name
        if name == "scans":
            stio.write_scans([Scan(t=t, points=[[0.0, 0.0, 5.0]],
                                   pose=Pose.identity())], path)
        elif name == "measurements":
            stio.write_measurement_frames([(t, [])], path)
        else:
            stio.write_frame_log(run_tracker([(t, [Measurement(
                position=np.array([0.0, 0.0, 5.0]), support=2)])],
                TrackerConfig()), path)
        return path.read_bytes()

    for name, read in (("scans", stio.read_scans),
                       ("measurements", stio.read_measurement_frames),
                       ("log", stio.read_frame_log)):
        assert written(t, name) == written(float(t), name)
        back = read(tmp_path / name)
        assert len(back) == 1
        assert (back[0][0] if name == "measurements" else back[0].t) == \
            float(t)


def test_repeated_track_id_in_a_frame_rejected(tmp_path):
    def line(*ids):
        return json.dumps({
            "t": 0.0, "assignments": [], "beta_summary": None, "spawned": [],
            "deleted": [], "resurrected": [], "tracks": [
                {"id": i, "status": "confirmed", "position": [0.0, 0, 5],
                 "velocity": [0.0, 0, 0], "mu": [1.0]} for i in ids]}) + "\n"

    path = tmp_path / "log.jsonl"
    # the same id on two lines is a track over time
    path.write_text(line(7, 3) + line(7))
    assert [[tr["id"] for tr in r.tracks]
            for r in stio.read_frame_log(path)] == [[7, 3], [7]]
    path.write_text(line(7) + line(3, 7, 3))
    with pytest.raises(ValidationError,
                       match=r":2: invalid log \(repeated track id"):
        stio.read_frame_log(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 0.0, "measurements": []}\nnot json\n')
    with pytest.raises(ValidationError, match="2"):
        stio.read_measurement_frames(path)


def test_invalid_scan_record(tmp_path):
    path = tmp_path / "bad_scan.jsonl"
    path.write_text('{"t": 0.0, "points": [[1, 2, 3]]}\n')
    with pytest.raises(ValidationError):
        stio.read_scans(path)


def test_repeated_pose_is_checked_once_by_bits(tmp_path):
    def line(translation, rotation):
        return json.dumps({"t": 0.0, "points": [], "pose": {
            "translation": translation, "rotation": rotation}}) + "\n"

    eye, neg = np.eye(3).tolist(), np.eye(3).tolist()
    neg[0][1] = -0.0
    path = tmp_path / "scans.jsonl"
    path.write_text(line([0.0, 0, 0], eye) + line([0.0, 0, 0], eye)
                    + line([-0.0, 0, 0], eye) + line([-0.0, 0, 0], eye)
                    + line([-0.0, 0, 0], neg))
    a, b, c, d, e = (s.pose for s in stio.read_scans(path))
    # a pose is reused only when its bits repeat, so -0.0 is not 0.0
    assert b is a and d is c and c is not b and e is not d
    assert np.signbit(c.translation[0]) and not np.signbit(b.translation[0])
    assert np.signbit(e.rotation[0, 1])
    # 0 and 0.0 are the same bits, so an int pose is reused too
    path.write_text(line([0, 0, 0], np.eye(3, dtype=int).tolist())
                    + line([0.0, 0, 0], eye))
    a, b = (s.pose for s in stio.read_scans(path))
    assert b is a
    # a pose that differs from the last checked one is checked again
    path.write_text(line([0.0, 0, 0], eye)
                    + line([0.0, 0, 0], (2 * np.eye(3)).tolist()))
    with pytest.raises(ValidationError, match=r":2: invalid scan \(rotation"):
        stio.read_scans(path)


def test_identity_change_rejected(tmp_path):
    path = tmp_path / "truth.jsonl"
    rec1 = ('{"t": 0.0, "targets": [{"id": 0, "pos": [0,0,0], "vel": [0,0,0],'
            ' "visible": true}]}')
    rec2 = ('{"t": 0.1, "targets": [{"id": 7, "pos": [0,0,0], "vel": [0,0,0],'
            ' "visible": true}]}')
    path.write_text(rec1 + "\n" + rec2 + "\n")
    with pytest.raises(ValidationError, match="identities"):
        stio.read_ground_truth(path)


def test_empty_truth_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValidationError):
        stio.read_ground_truth(path)


# -- property tests: lossless round trips, and every bad field rejected ----

# -0.0, subnormals, 17-digit and extreme floats, then arbitrary finite ones
FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, 2.225073858507201e-308,
                     0.30000000000000004, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
INTS = st.integers(-2**63, 2**63 - 1)  # array integers are 64-bit
STATUSES = ("tentative", "confirmed", "dormant", "deleted")


def floats_array(shape):
    return hnp.arrays(np.float64, shape, elements=FLOATS)


def rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@st.composite
def scans(draw):
    n = draw(st.integers(0, 5))
    pose = Pose(draw(floats_array(3)),
                rotation_z(draw(st.floats(-math.pi, math.pi))))
    return [Scan(t=draw(FLOATS), points=draw(floats_array((n, 3))),
                 pose=pose) for _ in range(draw(st.integers(0, 3)))]


@st.composite
def truths(draw):
    f, n = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    return GroundTruth(
        t=draw(floats_array(f)), positions=draw(floats_array((f, n, 3))),
        velocities=draw(floats_array((f, n, 3))),
        visible=draw(hnp.arrays(bool, (f, n))),
        ids=tuple(draw(st.lists(INTS, min_size=n, max_size=n, unique=True))))


@st.composite
def measurement_frames(draw):
    def frame(t):
        return t, [Measurement(position=draw(floats_array(3)),
                               support=draw(st.integers(1, 2**63 - 1)))
                   for _ in range(draw(st.integers(0, 3)))]
    return [frame(draw(FLOATS)) for _ in range(draw(st.integers(0, 3)))]


@st.composite
def frame_logs(draw):
    def record():
        m = draw(st.integers(0, 3))
        tracks = [{"id": i, "status": draw(st.sampled_from(STATUSES)),
                   "position": draw(floats_array(3)),
                   "velocity": draw(floats_array(3)),
                   "mu": draw(floats_array(m))}
                  for i in draw(st.lists(INTS, max_size=3, unique=True))]
        betas = draw(st.none() | st.lists(st.tuples(INTS, FLOATS, INTS).map(
            lambda v: dict(zip(("id", "beta0", "best"), v))), max_size=3))
        return FrameRecord(
            t=draw(FLOATS), tracks=tracks,
            assignments=draw(st.lists(st.tuples(INTS, INTS), max_size=3)),
            beta_summary=betas, spawned=draw(st.lists(INTS, max_size=3)),
            deleted=draw(st.lists(INTS, max_size=3)),
            resurrected=draw(st.lists(INTS, max_size=3)))
    return [record() for _ in range(draw(st.integers(0, 3)))]


def same(a, b) -> bool:
    """Bit-identical values of the same dtype and shape (so -0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture])


@PROPERTY
@given(scans())
def test_scans_round_trip_bit_exact(tmp_path, scans):
    path = tmp_path / "scans.jsonl"
    stio.write_scans(scans, path)
    back = stio.read_scans(path)
    assert len(back) == len(scans)
    for a, b in zip(scans, back):
        assert same(a.t, b.t) and same(a.points, b.points)
        assert same(a.pose.translation, b.pose.translation)
        assert same(a.pose.rotation, b.pose.rotation)


@PROPERTY
@given(truths())
def test_ground_truth_round_trip_bit_exact(tmp_path, gt):
    path = tmp_path / "truth.jsonl"
    stio.write_ground_truth(gt, path)
    back = stio.read_ground_truth(path)
    assert same(gt.t, back.t) and back.ids == gt.ids
    assert same(gt.positions, back.positions)
    assert same(gt.velocities, back.velocities)
    assert same(gt.visible, back.visible)


@PROPERTY
@given(measurement_frames())
def test_measurement_frames_round_trip_bit_exact(tmp_path, frames):
    path = tmp_path / "meas.jsonl"
    stio.write_measurement_frames(frames, path)
    back = stio.read_measurement_frames(path)
    assert len(back) == len(frames)
    for (t, ms), (t2, ms2) in zip(frames, back):
        assert same(t, t2) and len(ms) == len(ms2)
        for m, m2 in zip(ms, ms2):
            assert same(m.position, m2.position)
            assert m.support == m2.support


@PROPERTY
@given(frame_logs())
def test_frame_log_round_trip_bit_exact(tmp_path, log):
    path = tmp_path / "log.jsonl"
    stio.write_frame_log(log, path)
    back = stio.read_frame_log(path)
    assert len(back) == len(log)
    for a, b in zip(log, back):
        assert same(a.t, b.t) and len(a.tracks) == len(b.tracks)
        for ta, tb in zip(a.tracks, b.tracks):
            assert (ta["id"], ta["status"]) == (tb["id"], tb["status"])
            for key in ("position", "velocity", "mu"):
                assert same(ta[key], tb[key])
        assert b.assignments == a.assignments
        assert repr(b.beta_summary) == repr(a.beta_summary)
        assert (b.spawned, b.deleted, b.resurrected) == (
            a.spawned, a.deleted, a.resurrected)


NAN, INF = float("nan"), float("inf")
MISSING = object()  # drop the field instead of replacing it
# Values that each kind of field must reject; NaN/Infinity are written as
# the bare JSON tokens.
BAD = {
    "number": ["0.1", True, None, [], [1.0], {}, NAN, INF, -INF],
    "integer": ["1", True, None, [], 2.5, 1.0, NAN],
    "flag": ["false", 0, 1, None, [], NAN],
    "vec3": [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], ["1", "2", "3"],
             [True, 0.0, 0.0], [NAN, 0.0, 0.0], [[1.0, 2.0, 3.0]], "abc",
             None, 1.0],
    "mat3": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 0.0, 0.0],
             [[1.0, 0, 0], [0, 1.0, 0], [0, 0, "1"]],
             [[2.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], None, "abc"],
    "points": [[[1.0, 2.0]], [[1.0, 2.0, 3.0, 4.0]], [["1", "2", "3"]],
               [[True, 0.0, 0.0]], [[INF, 0.0, 0.0]], [1.0, 2.0, 3.0],
               "abc", None],
    "vector": [["0.5"], [True], [NAN], [[0.5]], "abc", None, 0.5],
    "int_list": ["abc", [1.5], [True], [None], [[1]], None, 3],
    "pairs": [[[1]], [[1, 2, 3]], [[1.0, 2]], [[True, 0]], [1, 2], "ab",
              None],
    "objects": ["abc", None, 1, [1], [None], [[]], {}],
    "object": [None, "abc", [], 1, {}],
    "status": [5, None, "bogus", True, []],
    "beta_summary": ["abc", 1, [1], [None], {}, [{"id": 0}]],
}
KIND = {
    "t": "number", "beta0": "number", "id": "integer", "support": "integer",
    "best": "integer", "visible": "flag", "translation": "vec3",
    "pos": "vec3", "vel": "vec3", "position": "vec3", "velocity": "vec3",
    "rotation": "mat3", "points": "points", "mu": "vector",
    "spawned": "int_list", "deleted": "int_list",
    "resurrected": "int_list", "assignments": "pairs",
    "targets": "objects", "measurements": "objects", "tracks": "objects",
    "pose": "object", "status": "status", "beta_summary": "beta_summary",
}


def fields(obj):
    """(object, key) of every field of a JSON record, nested ones too."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield obj, key
            yield from fields(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from fields(value)


def make_truth(n_frames: int) -> GroundTruth:
    return gen_trajectories(Scenario(kind="separated", n_frames=n_frames,
                                     seed=1))


# record type -> (strategy of non-empty files, writer, reader, CLI args that
# read the file first, given the bad file and a valid truth file)
RECORDS = {
    "scan": (scans().filter(len), stio.write_scans, stio.read_scans,
             lambda bad, truth: ["detect", "--scans", bad, "--preset", "O"]),
    "truth": (truths(), stio.write_ground_truth, stio.read_ground_truth,
              lambda bad, truth: ["evaluate", "--detections", truth,
                                  "--truth", bad]),
    "measurements": (measurement_frames().filter(len),
                     stio.write_measurement_frames,
                     stio.read_measurement_frames,
                     lambda bad, truth: ["evaluate", "--detections", bad,
                                         "--truth", truth]),
    "log": (frame_logs().filter(len), stio.write_frame_log,
            stio.read_frame_log,
            lambda bad, truth: ["evaluate", "--frame-log", bad,
                                "--truth", truth]),
}


@pytest.mark.parametrize("what", sorted(RECORDS))
@PROPERTY
@given(data=st.data())
def test_any_bad_field_is_a_data_error(tmp_path, what, data):
    strategy, write, read, cli_args = RECORDS[what]
    good = tmp_path / "good.jsonl"
    write(data.draw(strategy), good)
    rec = json.loads(good.read_text().splitlines()[0])
    obj, key = data.draw(st.sampled_from(list(fields(rec))))
    value = data.draw(st.sampled_from(BAD[KIND[key]] + [MISSING]))
    if value is MISSING:
        del obj[key]
    else:
        obj[key] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(str(bad))}:1: invalid {what} "):
        read(bad)
    truth = tmp_path / "truth.jsonl"
    stio.write_ground_truth(make_truth(1), truth)
    res = CliRunner().invoke(main, cli_args(str(bad), str(truth))
                             + ["--out", str(tmp_path / "out.json")])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"error: {bad}:1: invalid {what} ")
    assert "Traceback" not in res.output


# -- one regression test per input the reader used to misread -------------

def edit_lines(path, edit) -> None:
    """Rewrite a JSON Lines file through `edit(records)`."""
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    edit(recs)
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))


def set_pos(recs, length):
    for r in recs:
        for tg in r["targets"]:
            tg["pos"] = tg["pos"][:length]


@pytest.fixture()
def files(tmp_path):
    """Aligned scans, truth, detections and frame log of 6 frames."""
    gt = make_truth(6)
    scans, _ = run_scenario(Scenario(kind="separated", n_frames=6, seed=1))
    frames = [(float(t), [Measurement(position=p, support=2)
                          for p in gt.positions[k]])
              for k, t in enumerate(gt.t)]
    out = {name: tmp_path / f"{name}.jsonl"
           for name in ("scans", "truth", "dets", "log")}
    stio.write_scans(scans, out["scans"])
    stio.write_ground_truth(gt, out["truth"])
    stio.write_measurement_frames(frames, out["dets"])
    stio.write_frame_log(run_tracker(frames, TrackerConfig()), out["log"])
    return out


def _first_track(recs):
    return next(tr for r in recs for tr in r["tracks"])


# (file edited, edit, line of the first bad record)
DEFECTS = {
    # positions of different lengths across frames: a traceback
    "truth-ragged-positions": (
        "truth", lambda recs: set_pos(recs[1:], 2), 2),
    # 2-element truth positions: a broadcast traceback in metrics
    "truth-2-element-positions": ("truth", lambda recs: set_pos(recs, 2), 1),
    # NaN frame time passed the alignment check
    "detections-nan-time": (
        "dets", lambda recs: recs[2].update(t=NAN), 3),
    "detections-string-time": (
        "dets", lambda recs: recs[0].update(t=str(recs[0]["t"])), 1),
    "detections-bool-time": ("dets", lambda recs: recs[0].update(t=True), 1),
    "scan-string-time": (
        "scans", lambda recs: recs[0].update(t=str(recs[0]["t"])), 1),
    # a fractional support or track id was truncated
    "detections-fractional-support": (
        "dets", lambda recs: recs[0]["measurements"][0].update(support=2.9),
        1),
    "log-fractional-track-id": (
        "log", lambda recs: _first_track(recs).update(id=0.7), None),
    # "false" was read as True
    "truth-string-visible": (
        "truth", lambda recs: recs[0]["targets"][0].update(visible="false"),
        1),
    # "abc" became ['a', 'b', 'c']
    "log-string-spawned": ("log", lambda recs: recs[0].update(spawned="abc"),
                           1),
    "log-numeric-status": (
        "log", lambda recs: _first_track(recs).update(status=5), None),
    # ["1", "2", "3"] was parsed as floats
    "detections-string-coordinates": (
        "dets", lambda recs: recs[0]["measurements"][0].update(
            position=["1", "2", "3"]), 1),
    "log-1-element-position": (
        "log", lambda recs: _first_track(recs).update(position=[0.0]), None),
    # a NaN truth position gave "rmse": NaN
    "truth-nan-position": (
        "truth", lambda recs: recs[0]["targets"][0].update(
            pos=[NAN, 0.0, 0.0]), 1),
    # the message carried the path:line prefix twice
    "truth-identity-change": (
        "truth", lambda recs: recs[3]["targets"][0].update(id=7), 4),
}
COMMAND = {
    "scans": ["detect", "--preset", "O", "--scans"],
    "truth": ["evaluate", "--detections", "{dets}", "--truth"],
    "dets": ["evaluate", "--truth", "{truth}", "--detections"],
    "log": ["evaluate", "--truth", "{truth}", "--frame-log"],
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_misread_input_is_one_data_error(tmp_path, files, defect):
    name, edit, line = DEFECTS[defect]
    bad = files[name]
    edit_lines(bad, edit)
    if line is None:  # the frame log's first frame that has a track
        line = next(k for k, r in enumerate(
            json.loads(s) for s in bad.read_text().splitlines())
            if r["tracks"]) + 1
    args = [a.format(**files) for a in COMMAND[name]]
    res = CliRunner().invoke(main, args + [str(bad), "--out",
                                           str(tmp_path / "out.json")])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"error: {bad}:{line}: invalid ")
    assert res.output.count(str(bad)) == 1


@pytest.mark.parametrize("content", [b"[" * 100_000 + b"\n",
                                     b'{"t": \xff}\n'],
                         ids=["nested-too-deep", "not-utf8"])
def test_unparseable_line_is_one_data_error(tmp_path, content):
    bad = tmp_path / "scans.jsonl"
    bad.write_bytes(content)
    res = CliRunner().invoke(main, ["detect", "--preset", "O", "--scans",
                                    str(bad), "--out", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"error: {bad}:1: invalid scan ")


def test_writer_refuses_non_finite_values(tmp_path):
    path = tmp_path / "log.jsonl"
    rec = FrameRecord(t=0.0, tracks=[], assignments=[],
                      beta_summary=[{"id": 0, "beta0": NAN, "best": -1}],
                      spawned=[], deleted=[], resurrected=[])
    with pytest.raises(ValueError, match="Out of range float"):
        stio.write_frame_log([rec], path)
    assert not path.exists()


READERS = {"scan": stio.read_scans, "truth": stio.read_ground_truth,
           "measurements": stio.read_measurement_frames,
           "log": stio.read_frame_log}


def test_reader_table(tmp_path):
    """Each row of reader_table.json is a reader, a file and the text after
    "path:" of the error it raised when the readers checked numbers with
    numpy arrays (null: accepted). The rows are every value of BAD and a
    missing field, in every field of one line per record type; the files
    of the tests above; a pose repeated with a `true` or a `-0.0`; and
    1e999, 2**70 and 10**400 in every kind of array."""
    rows = json.loads((Path(__file__).parent / "reader_table.json")
                      .read_text())
    path = tmp_path / "in.jsonl"
    for what, text, message in rows:
        path.write_text(text)
        if message is None:
            READERS[what](path)
        else:
            with pytest.raises(ValidationError) as exc:
                READERS[what](path)
            assert str(exc.value) == f"{path}:{message}", text


def test_big_ints_are_read_as_floats(tmp_path):
    path = tmp_path / "scans.jsonl"
    path.write_text(json.dumps({"t": 2**70, "points": [[2**70, -2**70, 3]],
                                "pose": {"translation": [0, 0, 2**70],
                                         "rotation": np.eye(3).tolist()}})
                    + "\n")
    scan, = stio.read_scans(path)
    assert same(scan.points, np.array([[2.0**70, -2.0**70, 3.0]]))
    assert same(scan.pose.translation, np.array([0.0, 0.0, 2.0**70]))
    assert same(scan.t, 2.0**70)
