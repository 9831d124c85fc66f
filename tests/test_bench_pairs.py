"""tools/bench_pairs.py: its summary of canned results, and its runs against
a stand-in benchmark command."""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

METRICS = [{"name": "frame_ms_p50", "unit": "ms", "better": "lower"},
           {"name": "frames_per_s", "unit": "1/s", "better": "higher"}]


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import bench_pairs
    return bench_pairs


def result(p50, fps=1000.0):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"frame_ms_p50": {"value": p50, "unit": "ms"},
                        "frames_per_s": {"value": fps, "unit": "1/s"}}}


def canned(parent, change):
    return [(result(a), result(b)) for a, b in zip(parent, change)]


PARENT = [0.48, 0.49, 0.50, 0.47, 0.48, 0.49, 0.50, 0.48, 0.49, 0.48]


def test_quartiles_interpolate_as_numpy_does(bench_pairs):
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_a_clear_gain(bench_pairs):
    rows = bench_pairs.summarize(
        METRICS, canned(PARENT, [v - 0.04 for v in PARENT]))
    p50, fps = rows
    assert p50["parent"] == (0.48, 0.485, 0.49)
    assert p50["wins"] == 10 and p50["pairs"] == 10 and p50["gain"]
    # every frames_per_s is 1000 on both sides: ties, won by no one
    assert fps["wins"] == 0 and not fps["gain"]


@pytest.mark.parametrize("change, why", [
    # nine wins and one loss still pass, a tie in place of a win does not
    ([v - 0.04 for v in PARENT[:9]] + [0.6], None),
    ([v - 0.04 for v in PARENT[:8]] + [PARENT[8], 0.6], "wins"),
    # ten wins by less than the parent's quartile spread of 0.01
    ([v - 0.005 for v in PARENT], "gap"),
])
def test_the_gain_rule(bench_pairs, change, why):
    (p50, _) = bench_pairs.summarize(METRICS, canned(PARENT, change))
    assert p50["gain"] is (why is None)


def test_fewer_than_ten_pairs_claim_no_gain(bench_pairs):
    (p50, _) = bench_pairs.summarize(
        METRICS, canned(PARENT[:9], [v - 0.04 for v in PARENT[:9]]))
    assert p50["wins"] == 9 and not p50["gain"]


def test_higher_is_better(bench_pairs):
    pairs = [(result(0.5, 1000.0 + k), result(0.5, 1100.0 + k))
             for k in range(10)]
    (_, fps) = bench_pairs.summarize(METRICS, pairs)
    assert fps["wins"] == 10 and fps["gain"]


# prints what perfbench/run.py prints and appends its checkout's name to
# ORDER; in a checkout named "bad" it reports correct: false
FAKE_RUN = '''
import json, sys
from pathlib import Path
with open(ORDER, "a") as f:
    f.write(Path.cwd().name + "\\n")
print("# meta " + json.dumps({"git_commit": "abc"}))
print(json.dumps({"correct": Path.cwd().name != "bad", "attempted": 3,
                  "failed": 0, "metrics": {}}))
'''


def fake_command(tmp_path):
    script = tmp_path / "fake_run.py"
    order = tmp_path / "order.txt"
    script.write_text(f"ORDER = {str(order)!r}\n" + FAKE_RUN)
    return [sys.executable, str(script)], order


def test_pairs_alternate_which_side_runs_first(bench_pairs, tmp_path):
    command, order = fake_command(tmp_path)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    pairs = bench_pairs.run_pairs(command, "w", 3, 1.0, parent, change, 3)
    assert len(pairs) == 3 and all(p["attempted"] == 3 for p, _ in pairs)
    assert order.read_text().split() == [
        "parent", "change", "change", "parent", "parent", "change"]


def test_a_failed_run_raises(bench_pairs, tmp_path):
    command, _ = fake_command(tmp_path)
    parent, change = tmp_path / "parent", tmp_path / "bad"
    parent.mkdir(), change.mkdir()
    with pytest.raises(RuntimeError, match="correct is False"):
        bench_pairs.run_pairs(command, "w", 3, 1.0, parent, change, 2)


def test_report_lists_each_metric_and_the_failed_frames(bench_pairs):
    pairs = canned(PARENT, PARENT)
    lines = bench_pairs.report(bench_pairs.summarize(METRICS, pairs),
                               pairs).splitlines()
    assert lines[0].split() == ["metric", "better", "parent", "change",
                                "wins", "gain"]
    assert lines[1].split() == ["frame_ms_p50", "lower", "0.485", "[0.48,",
                                "0.49]", "0.485", "[0.48,", "0.49]", "0/10",
                                "no"]
    assert lines[-2:] == ["parent: 0 of 100 frames failed",
                          "change: 0 of 100 frames failed"]
