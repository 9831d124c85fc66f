"""tools/frame_log_compare.py: exit codes and the first violation named."""
import copy
import json
from pathlib import Path

import pytest

from sparsetrack import io
from sparsetrack.detector import Detector, get_preset
from sparsetrack.simulator import Scenario, run_scenario
from sparsetrack.trackman import TrackerConfig, run_tracker

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def lines(tmp_path_factory):
    """The JSON records of a short JPDA crossings log."""
    scans, _ = run_scenario(Scenario(kind="crossings", n_frames=60, seed=0))
    det = Detector(get_preset("A_s"))
    log = run_tracker([(s.t, det.detect(s)) for s in scans],
                      TrackerConfig(association_mode="jpda"))
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    io.write_frame_log(log, path)
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture
def compare(monkeypatch, tmp_path, capsys, lines):
    """compare(records) -> (exit code, stdout) of the tool on the log and
    `records` written as a second log."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import frame_log_compare

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(json.dumps(r) + "\n" for r in lines))

    def run(records):
        b.write_text("".join(json.dumps(r) + "\n" for r in records))
        code = frame_log_compare.main([str(a), str(b)])
        return code, capsys.readouterr().out
    return run


def slow_track(records):
    """(frame, track record) of the first track with |velocity| < 10."""
    for k, r in enumerate(records):
        for tr in r["tracks"]:
            if sum(v * v for v in tr["velocity"]) < 100.0:
                return k, tr
    raise AssertionError("no slow track")


def test_identical_logs_pass(compare, lines):
    code, out = compare(lines)
    assert code == 0
    assert out.startswith(f"equivalent: {len(lines)} records")


def test_last_bit_velocity_drift_passes(compare, lines):
    records = copy.deepcopy(lines)
    k, tr = slow_track(records)
    tr["velocity"][0] += 1e-13
    code, out = compare(records)
    assert code == 0
    assert f"frame {k} " in out and f"track {tr['id']}, velocity" in out


def test_velocity_beyond_the_bound_fails(compare, lines):
    records = copy.deepcopy(lines)
    k, tr = slow_track(records)
    tr["velocity"][1] += 1e-10
    code, out = compare(records)
    assert code == 1
    assert out.startswith(f"not equivalent: frame {k} ")
    assert f"track {tr['id']} velocity differs" in out


@pytest.mark.parametrize("what, field", [
    ("assignment", "assignments"), ("status", "tracks (id, status)"),
    ("best", "beta_summary (id, best)"), ("count", "record count")])
def test_structural_change_fails(compare, lines, what, field):
    records = copy.deepcopy(lines)
    k = next(k for k, r in enumerate(records)
             if r["assignments"] and r["beta_summary"])
    if what == "assignment":
        tid, j = records[k]["assignments"][0]
        records[k]["assignments"][0] = [tid, j + 1]
    elif what == "status":
        tr = records[k]["tracks"][0]
        tr["status"] = "dormant" if tr["status"] != "dormant" else "confirmed"
    elif what == "best":
        records[k]["beta_summary"][0]["best"] += 1
    else:
        records.pop()
        k = None
    code, out = compare(records)
    assert code == 1
    if k is None:
        assert out == f"not equivalent: record count {len(lines)} vs " \
            f"{len(lines) - 1}\n"
    else:
        assert out.startswith(f"not equivalent: frame {k} ")
        assert f": {field} " in out


def test_unreadable_log_exits_2(compare, tmp_path, capsys):
    import frame_log_compare

    (tmp_path / "bad.jsonl").write_text("{\n")
    assert frame_log_compare.main([str(tmp_path / "bad.jsonl"),
                                   str(tmp_path / "bad.jsonl")]) == 2
    assert "malformed JSON" in capsys.readouterr().err


@pytest.fixture
def compare_dirs(monkeypatch, tmp_path, capsys, lines):
    """compare_dirs(logs) -> (exit code, stdout) of the tool on a directory
    holding the log as `x.jsonl` and `y.jsonl` and a directory holding
    `logs`, a {name: records} dict."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import frame_log_compare

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for name in ("x.jsonl", "y.jsonl"):
        (a / name).write_text("".join(json.dumps(r) + "\n" for r in lines))

    def run(logs):
        for name, records in logs.items():
            (b / name).write_text(
                "".join(json.dumps(r) + "\n" for r in records))
        code = frame_log_compare.main([str(a), str(b)])
        return code, capsys.readouterr().out
    return run


def test_directories_of_equivalent_logs_pass(compare_dirs, lines):
    records = copy.deepcopy(lines)
    k, tr = slow_track(records)
    tr["velocity"][0] += 1e-13
    code, out = compare_dirs({"x.jsonl": lines, "y.jsonl": records})
    assert code == 0
    assert out.startswith("equivalent: 2 logs; largest scaled float "
                          "difference ")
    assert f"at y.jsonl, frame {k} " in out


def test_directories_name_the_log_of_the_first_violation(compare_dirs,
                                                         lines):
    records = copy.deepcopy(lines)
    k, tr = slow_track(records)
    tr["velocity"][1] += 1e-10
    code, out = compare_dirs({"x.jsonl": lines, "y.jsonl": records})
    assert code == 1
    assert out.startswith(f"not equivalent: y.jsonl: frame {k} ")


def test_a_log_one_directory_lacks_fails(compare_dirs, lines, tmp_path):
    code, out = compare_dirs({"x.jsonl": lines})
    assert code == 1
    assert out == (f"not equivalent: y.jsonl is in {tmp_path / 'a'} but not "
                   f"in {tmp_path / 'b'}\n")
    code, out = compare_dirs({"y.jsonl": lines, "z.jsonl": lines})
    assert code == 1
    assert out.startswith("not equivalent: z.jsonl is in ")


def test_directories_without_logs_fail(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import frame_log_compare

    assert frame_log_compare.main([str(tmp_path), str(tmp_path)]) == 1
    assert capsys.readouterr().out.startswith(
        "not equivalent: no *.jsonl logs in ")
