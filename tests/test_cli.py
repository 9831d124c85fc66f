import dataclasses
import json
import warnings

import pytest
from click.testing import CliRunner

from sparsetrack import io as stio
from sparsetrack.cli import main
from sparsetrack.simulator import KINDS


@pytest.fixture()
def runner():
    return CliRunner()


def simulate(runner, out_dir, kind="separated", frames=60, seed=0):
    res = runner.invoke(main, ["simulate", "--kind", kind, "--frames",
                               str(frames), "--seed", str(seed),
                               "--out", str(out_dir)])
    assert res.exit_code == 0, res.output
    return out_dir / "scans.jsonl", out_dir / "truth.jsonl"


class TestSimulate:
    def test_default_crossings_frame_count(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--kind", "crossings",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0
        n = sum(1 for _ in open(tmp_path / "scans.jsonl"))
        assert n == 1708

    def test_byte_identical_reruns(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            res = runner.invoke(main, ["simulate", "--kind", "moderate",
                                       "--frames", "120", "--seed", "5",
                                       "--out", str(d)])
            assert res.exit_code == 0
        assert (a / "scans.jsonl").read_bytes() == (b / "scans.jsonl").read_bytes()
        assert (a / "truth.jsonl").read_bytes() == (b / "truth.jsonl").read_bytes()

    def test_invalid_kind_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--kind", "swarm",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("dt", ["nan", "1e308", "0"])
    def test_invalid_dt_usage_error(self, runner, tmp_path, dt):
        res = runner.invoke(main, ["simulate", "--kind", "separated",
                                   "--dt", dt, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "dt" in res.output

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dt", ["1e-320", "4.6e-311"])
    def test_tiny_dt_usage_error(self, runner, tmp_path, kind, dt):
        # an offset law's rate 2.5*pi/(n_frames*dt) overflowed: numpy
        # RuntimeWarnings, then a points error with an array repr, or a
        # traceback on writing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, ["simulate", "--kind", kind, "--dt", dt,
                                       "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "dt" in res.output and "array(" not in res.output

    @pytest.mark.parametrize("frames", ["0", str(10**14), str(10**30)])
    def test_invalid_frames_usage_error(self, runner, tmp_path, frames):
        # 10**30 overflowed np.arange, and 10**14 asked for 728 TiB
        res = runner.invoke(main, ["simulate", "--kind", "separated",
                                   "--frames", frames, "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "n_frames" in res.output

    def test_negative_seed_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--kind", "separated",
                                   "--seed", "-1", "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "seed" in res.output


def write_one_scan(tmp_path, points):
    """A scans file of one scan at t=0 with an identity pose."""
    pose = {"translation": [0.0, 0.0, 0.0],
            "rotation": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]}
    scans = tmp_path / "scans.jsonl"
    scans.write_text(json.dumps({"t": 0.0, "points": points, "pose": pose})
                     + "\n")
    return scans


class TestDetect:
    def test_preset_with_report(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path)
        out = tmp_path / "dets.jsonl"
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--preset", "MR", "--truth", str(truth),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "dets.report.json").read_text())
        for key in ("tp", "fp", "fn", "precision", "recall", "f1",
                    "rmse", "det_pct"):
            assert key in report

    def test_empty_scan_file(self, runner, tmp_path):
        scans = tmp_path / "scans.jsonl"
        scans.write_text("")
        out = tmp_path / "dets.jsonl"
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--preset", "O", "--out", str(out)])
        assert res.exit_code == 0
        assert out.read_text() == ""

    def test_permissive_preset_fp_ordering(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path, frames=150, seed=2)
        fps = {}
        for preset in ("A", "B"):
            out = tmp_path / f"dets_{preset}.jsonl"
            res = runner.invoke(main, ["detect", "--scans", str(scans),
                                       "--preset", preset, "--truth",
                                       str(truth), "--out", str(out)])
            assert res.exit_code == 0, res.output
            fps[preset] = json.loads(
                (tmp_path / f"dets_{preset}.report.json").read_text())["fp"]
        assert fps["B"] >= fps["A"]

    def test_preset_and_config_mutually_exclusive(self, runner, tmp_path):
        scans, _ = simulate(runner, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--preset", "O", "--config", str(cfg),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 2
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 2

    def test_missing_scan_file_data_error(self, runner, tmp_path):
        res = runner.invoke(main, ["detect", "--scans",
                                   str(tmp_path / "nope.jsonl"),
                                   "--preset", "O",
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 3

    def test_malformed_scan_file_data_error(self, runner, tmp_path):
        scans = tmp_path / "scans.jsonl"
        scans.write_text("this is not json\n")
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--preset", "O",
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 3

    @pytest.mark.parametrize("record", [
        # a 3x2 point list must not be read as 2x3 points
        {"t": 0.0, "points": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]},
        {"t": None, "points": [[1.0, 2.0, 3.0]]},
    ])
    def test_invalid_scan_record_data_error(self, runner, tmp_path, record):
        pose = {"translation": [0.0, 0.0, 0.0],
                "rotation": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]}
        scans = tmp_path / "scans.jsonl"
        scans.write_text(json.dumps({**record, "pose": pose}) + "\n")
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--preset", "O",
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 3, res.output
        assert "invalid scan" in res.output

    def test_config_file(self, runner, tmp_path):
        scans, _ = simulate(runner, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps0": 0.5, "min_pts": 1}))
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--config", str(cfg),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 0, res.output

    def test_invalid_config_data_error(self, runner, tmp_path):
        scans, _ = simulate(runner, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps0": -1.0}))
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--config", str(cfg),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 3

    # Under pytest a warning never reaches res.output, so the marks turn
    # any numpy RuntimeWarning into a failure.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_voxel_index_overflow_data_error(self, runner, tmp_path):
        # floor(p / voxel) beyond int64 used to wrap, and the two points
        # came out as one detection at their midpoint with exit 0
        scans = write_one_scan(tmp_path, [[1e20, 1e20, 5.0],
                                          [-3e20, 7e19, 5.0]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r_max": 1e300, "min_pts": 1}))
        out = tmp_path / "o.jsonl"
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert "int64" in res.output

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_range_dropped_quietly(self, runner, tmp_path):
        scans = write_one_scan(tmp_path, [[1e200, 0.0, 5.0], [5.0, 0.0, 2.0]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r_max": 1e300, "min_pts": 1}))
        out = tmp_path / "o.jsonl"
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        [frame] = stio.read_measurement_frames(out)
        assert [m.position.tolist() for m in frame[1]] == [[5.0, 0.0, 2.0]]

    @pytest.mark.parametrize("fields", [
        # NaN passes a `<= 0` test, and gave 0 detections with exit 0
        {"eps0": float("nan")}, {"voxel": float("nan")},
        {"r_max": float("nan")}, {"h_min": float("nan")},
        # a float, a bool or a truthy string must not be read as a count or
        # a flag
        {"min_pts": 2.5}, {"min_pts": True}, {"layer3_enabled": "no"},
        {"K": 2.5, "M": 1},
        # numbers too large for a float or a 64-bit count
        {"r_max": 10**400}, {"K": 10**30, "layer3_enabled": True},
        # a DBSCAN radius that overflows to inf at r_max made every scan one
        # cluster, and gave 0 detections with exit 0
        {"alpha": 1e308},
        # a negative history length, and a layer 3 that can reject nothing
        {"K": -1, "M": -2}, {"K": 0, "M": 0, "layer3_enabled": True},
        # files nested too deeply for the JSON parser, or not UTF-8, ended
        # in a traceback
        pytest.param(b"[" * 100000, id="deep"),
        pytest.param(b"\xff\xfe{", id="not-utf8"),
    ])
    @pytest.mark.parametrize("command", ["detect", "track", "sweep"])
    def test_mistyped_or_nan_config_data_error(self, runner, tmp_path,
                                               fields, command):
        scans, truth = simulate(runner, tmp_path, frames=10)
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(fields if isinstance(fields, bytes)
                        else json.dumps(fields).encode())
        args = [command, "--scans", str(scans), "--config", str(cfg),
                "--out", str(tmp_path / "o.jsonl")]
        if command != "detect":
            args += ["--truth", str(truth)]
        if command == "sweep":
            args += ["--min-pts", "1,2"]
        res = runner.invoke(main, args)
        assert res.exit_code == 3, res.output
        assert "invalid detector config" in res.output
        assert isinstance(res.exception, SystemExit)


class TestTrack:
    def test_both_modes_share_gt_total(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path, frames=200, seed=4)
        totals = {}
        for mode in ("hungarian", "jpda"):
            out = tmp_path / f"log_{mode}.jsonl"
            res = runner.invoke(main, ["track", "--scans", str(scans),
                                       "--preset", "B_s", "--truth",
                                       str(truth), "--association", mode,
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
            totals[mode] = json.loads(
                (tmp_path / f"log_{mode}.report.json").read_text())["gt_total"]
        assert totals["hungarian"] == totals["jpda"]

    def test_perfect_measurements_mota_one(self, runner, tmp_path):
        from sparsetrack import io as stio
        from sparsetrack.core import Measurement
        from sparsetrack.simulator import Scenario, gen_trajectories
        sc = Scenario(kind="separated", n_frames=120, seed=1)
        gt = gen_trajectories(sc)
        frames = [(float(gt.t[k]),
                   [Measurement(position=gt.positions[k, i], support=2)
                    for i in range(2)])
                  for k in range(sc.n_frames)]
        meas_path = tmp_path / "meas.jsonl"
        truth_path = tmp_path / "truth.jsonl"
        stio.write_measurement_frames(frames, meas_path)
        stio.write_ground_truth(gt, truth_path)
        out = tmp_path / "log.jsonl"
        res = runner.invoke(main, ["track", "--measurements", str(meas_path),
                                   "--truth", str(truth_path),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output.strip().splitlines()[-1])
        # tentative warm-up costs a few frames of FN; everything after is clean
        assert report["mota"] > 0.95
        assert report["id_switches"] == 0

    def test_track_deterministic(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path, frames=150, seed=6)
        outs = []
        for name in ("l1.jsonl", "l2.jsonl"):
            out = tmp_path / name
            res = runner.invoke(main, ["track", "--scans", str(scans),
                                       "--preset", "B_s", "--truth",
                                       str(truth), "--out", str(out)])
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_scans_xor_measurements(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path)
        res = runner.invoke(main, ["track", "--truth", str(truth),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("option", [["--preset", "NOPE"],
                                        ["--preset", "B_s"],
                                        ["--config", "absent.json"]])
    def test_detector_options_with_measurements_usage_error(
            self, runner, tmp_path, option):
        # the files do not exist: the usage error comes before any read
        f = str(tmp_path / "absent.jsonl")
        res = runner.invoke(main, ["track", "--measurements", f,
                                   "--truth", f, *option, "--out", f])
        assert res.exit_code == 2, res.output
        assert "--scans" in res.output

    def test_misaligned_truth_data_error(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path, frames=60)
        _, truth_other = simulate(runner, tmp_path / "other", frames=50)
        res = runner.invoke(main, ["track", "--scans", str(scans),
                                   "--preset", "B_s",
                                   "--truth", str(truth_other),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 3


    def test_null_timestamp_data_error(self, runner, tmp_path):
        _, truth = simulate(runner, tmp_path)
        meas = tmp_path / "meas.jsonl"
        meas.write_text(json.dumps({"t": None, "measurements": []}) + "\n")
        res = runner.invoke(main, ["track", "--measurements", str(meas),
                                   "--truth", str(truth),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 3, res.output
        assert "invalid measurements" in res.output

    def test_joint_event_cap_numeric_error(self, runner, tmp_path,
                                           monkeypatch):
        from sparsetrack import association
        from sparsetrack.simulator import Scenario, gen_trajectories
        real_jpda = association.jpda

        def capped_jpda(gate_result, params):
            params = dataclasses.replace(params, max_events=1)
            return real_jpda(gate_result, params)

        monkeypatch.setattr(association, "jpda", capped_jpda)
        gt = gen_trajectories(Scenario(kind="separated", n_frames=5, seed=1))
        meas = tmp_path / "meas.jsonl"
        meas.write_text("".join(json.dumps({"t": float(t), "measurements": [
            {"position": [0.0, 0.0, 5.0], "support": 2},
            {"position": [1.5, 0.0, 5.0], "support": 2}]}) + "\n"
            for t in gt.t))
        truth = tmp_path / "truth.jsonl"
        stio.write_ground_truth(gt, truth)
        res = runner.invoke(main, ["track", "--measurements", str(meas),
                                   "--truth", str(truth), "--association",
                                   "jpda", "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 4, res.output
        assert "joint-event count exceeded" in res.output

    # Under pytest a warning never reaches res.output, so the mark turns any
    # numpy RuntimeWarning into a failure.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_filter_overflow_numeric_error(self, runner, tmp_path):
        from sparsetrack.simulator import Scenario, gen_trajectories
        gt = gen_trajectories(Scenario(kind="separated", n_frames=2, seed=1))
        gt = dataclasses.replace(gt, t=gt.t * 1e200)  # dt = 1e199 s
        meas = tmp_path / "meas.jsonl"
        meas.write_text("".join(json.dumps({"t": float(t), "measurements": [
            {"position": [0.0, 0.0, 5.0], "support": 2}]}) + "\n"
            for t in gt.t))
        truth = tmp_path / "truth.jsonl"
        stio.write_ground_truth(gt, truth)
        res = runner.invoke(main, ["track", "--measurements", str(meas),
                                   "--truth", str(truth),
                                   "--out", str(tmp_path / "o.jsonl")])
        assert res.exit_code == 4, res.output
        assert "non-finite" in res.output
        assert "encountered in" not in res.output


class TestSweep:
    def test_grid_monotone(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path, frames=150, seed=8)
        out = tmp_path / "sweep.json"
        res = runner.invoke(main, ["sweep", "--scans", str(scans),
                                   "--truth", str(truth), "--preset", "O",
                                   "--min-pts", "1,2,3,4",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = json.loads(out.read_text())
        assert [r["min_pts"] for r in rows] == [1, 2, 3, 4]
        pcts = [r["det_pct"] for r in rows]
        assert all(a >= b for a, b in zip(pcts, pcts[1:]))

    def test_single_point_grid_matches_detect(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path, frames=100, seed=9)
        out = tmp_path / "sweep.json"
        res = runner.invoke(main, ["sweep", "--scans", str(scans),
                                   "--truth", str(truth), "--preset", "O",
                                   "--min-pts", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        row = json.loads(out.read_text())[0]
        det_out = tmp_path / "dets.jsonl"
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--preset", "O", "--truth", str(truth),
                                   "--out", str(det_out)])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "dets.report.json").read_text())
        for key in ("tp", "fp", "fn", "det_pct"):
            assert row[key] == report[key]

    @pytest.mark.parametrize("grid", ["0", "1,-2", "2,99999999999999999999"])
    def test_invalid_grid_value_usage_error(self, runner, tmp_path, grid):
        # the files do not exist: every grid config is checked before any
        # file is read
        f = str(tmp_path / "absent.jsonl")
        res = runner.invoke(main, ["sweep", "--scans", f, "--truth", f,
                                   "--preset", "O", "--min-pts", grid,
                                   "--out", f])
        assert res.exit_code == 2, res.output
        assert "min_pts" in res.output

    def test_empty_grid_usage_error(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path)
        res = runner.invoke(main, ["sweep", "--scans", str(scans),
                                   "--truth", str(truth), "--preset", "O",
                                   "--min-pts", ",",
                                   "--out", str(tmp_path / "s.json")])
        assert res.exit_code == 2


class TestEvaluate:
    def test_frame_log_evaluation_matches_track_report(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path, frames=150, seed=10)
        log = tmp_path / "log.jsonl"
        res = runner.invoke(main, ["track", "--scans", str(scans),
                                   "--preset", "B_s", "--truth", str(truth),
                                   "--out", str(log)])
        assert res.exit_code == 0, res.output
        track_report = json.loads((tmp_path / "log.report.json").read_text())
        out = tmp_path / "eval.json"
        res = runner.invoke(main, ["evaluate", "--frame-log", str(log),
                                   "--truth", str(truth), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text()) == track_report

    def test_detections_evaluation(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path, frames=100, seed=11)
        dets = tmp_path / "dets.jsonl"
        res = runner.invoke(main, ["detect", "--scans", str(scans),
                                   "--preset", "B_s", "--out", str(dets)])
        assert res.exit_code == 0, res.output
        out = tmp_path / "eval.json"
        res = runner.invoke(main, ["evaluate", "--detections", str(dets),
                                   "--truth", str(truth), "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads(out.read_text())
        assert report["tp"] + report["fn"] > 0

    def test_misaligned_frame_log_data_error(self, runner, tmp_path):
        scans, truth = simulate(runner, tmp_path, frames=60)
        log = tmp_path / "log.jsonl"
        res = runner.invoke(main, ["track", "--scans", str(scans),
                                   "--preset", "B_s", "--truth", str(truth),
                                   "--out", str(log)])
        assert res.exit_code == 0, res.output
        # same frame count, different timestamps
        other = tmp_path / "other"
        res = runner.invoke(main, ["simulate", "--kind", "separated",
                                   "--frames", "60", "--dt", "0.2",
                                   "--out", str(other)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["evaluate", "--frame-log", str(log),
                                   "--truth", str(other / "truth.jsonl"),
                                   "--out", str(tmp_path / "e.json")])
        assert res.exit_code == 3, res.output
        assert "timestamp misalignment" in res.output

    def test_repeated_track_id_data_error(self, runner, tmp_path):
        # Two confirmed tracks sit on the two truths, both with id 7. Read
        # as one track, they scored MOTA 0.025 with 20 FP and 19 FN.
        from sparsetrack.trackman import CONFIRMED, FrameRecord
        _, truth = simulate(runner, tmp_path, frames=20, seed=0)
        gt = stio.read_ground_truth(truth)
        log = tmp_path / "log.jsonl"
        stio.write_frame_log([FrameRecord(
            t=float(t), tracks=[{"id": 7, "status": CONFIRMED, "position": p,
                                 "velocity": [0.0] * 3, "mu": [1.0]}
                                for p in gt.positions[k]],
            assignments=[], beta_summary=None, spawned=[], deleted=[],
            resurrected=[]) for k, t in enumerate(gt.t)], log)
        res = runner.invoke(main, ["evaluate", "--frame-log", str(log),
                                   "--truth", str(truth),
                                   "--out", str(tmp_path / "e.json")])
        assert res.exit_code == 3, res.output
        assert res.output.startswith(
            f"error: {log}:1: invalid log (repeated track id")

    def test_exactly_one_input_required(self, runner, tmp_path):
        _, truth = simulate(runner, tmp_path)
        res = runner.invoke(main, ["evaluate", "--truth", str(truth),
                                   "--out", str(tmp_path / "e.json")])
        assert res.exit_code == 2


@pytest.mark.parametrize("command", ["detect", "track", "sweep", "evaluate"])
def test_shifted_truth_times_data_error(runner, tmp_path, command):
    # same frame count as the scans, but truth at dt 0.2 against 0.1
    scans, _ = simulate(runner, tmp_path, frames=20)
    res = runner.invoke(main, ["simulate", "--kind", "separated", "--frames",
                               "20", "--dt", "0.2", "--out",
                               str(tmp_path / "other")])
    assert res.exit_code == 0, res.output
    truth = str(tmp_path / "other" / "truth.jsonl")
    dets = str(tmp_path / "dets.jsonl")
    res = runner.invoke(main, ["detect", "--scans", str(scans), "--preset",
                               "B_s", "--out", dets])
    assert res.exit_code == 0, res.output
    args = {"detect": ["--scans", str(scans), "--preset", "B_s"],
            "track": ["--scans", str(scans), "--preset", "B_s"],
            "sweep": ["--scans", str(scans), "--preset", "B_s",
                      "--min-pts", "1,2"],
            "evaluate": ["--detections", dets]}[command]
    res = runner.invoke(main, [command, *args, "--truth", truth,
                               "--out", str(tmp_path / "o.jsonl")])
    assert res.exit_code == 3, res.output
    assert "timestamp misalignment at frame 1: 0.1 vs 0.2" in res.output


@pytest.mark.parametrize("command", ["detect", "track", "sweep"])
def test_misaligned_truth_fails_before_detecting(runner, tmp_path,
                                                 monkeypatch, command):
    # 20-frame scans against 25-frame truth: the check runs on the scans'
    # times, so the detector never runs and no output file is written
    scans, _ = simulate(runner, tmp_path, frames=20)
    res = runner.invoke(main, ["simulate", "--kind", "separated", "--frames",
                               "25", "--out", str(tmp_path / "other")])
    assert res.exit_code == 0, res.output

    def never(*args):
        raise AssertionError("the detector ran")
    monkeypatch.setattr("sparsetrack.cli._run_detector", never)
    out = tmp_path / "o.jsonl"
    extra = ["--min-pts", "1,2"] if command == "sweep" else []
    res = runner.invoke(main, [command, "--scans", str(scans), "--preset",
                               "B_s", *extra, "--truth",
                               str(tmp_path / "other" / "truth.jsonl"),
                               "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "frame count mismatch: 20 frames vs 25 truth" in res.output
    assert "wrote" not in res.output
    assert list(tmp_path.glob("o.*")) == []


@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
def test_match_radius_must_be_finite_and_positive(runner, tmp_path, radius):
    f = str(tmp_path / "absent.jsonl")
    for args in (["detect", "--scans", f, "--preset", "O"],
                 ["track", "--measurements", f, "--truth", f],
                 ["sweep", "--scans", f, "--truth", f, "--preset", "O",
                  "--min-pts", "1"],
                 ["evaluate", "--detections", f, "--truth", f]):
        res = runner.invoke(main, args + ["--match-radius", radius,
                                          "--out", f])
        assert res.exit_code == 2, (args, res.output)
        assert "--match-radius" in res.output
