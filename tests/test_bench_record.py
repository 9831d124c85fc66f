"""tools/bench_record.py against a stand-in benchmark command."""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# prints what perfbench/run.py prints: a meta line, then one JSON result;
# workload "bad" reports correct: false and workload "crash" exits 2
FAKE_RUN = '''
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
w = args["--workload"]
if w == "crash":
    sys.exit(2)
print("# meta " + json.dumps({"workload": w, "git_commit": "abc"}))
print(json.dumps({"correct": w != "bad", "attempted": 3, "failed": 0,
                  "argv": sys.argv[1:]}))
'''


@pytest.fixture
def bench_record(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import bench_record
    return bench_record


def spec(tmp_path, *workloads):
    script = tmp_path / "fake_run.py"
    script.write_text(FAKE_RUN)
    return {"command": [sys.executable, str(script)], "run_seconds": 7,
            "workloads": [{"name": w} for w in workloads]}


def test_records_each_workload(bench_record, tmp_path):
    rec = bench_record.record(spec(tmp_path, "a", "b"), 3, tmp_path)
    assert list(rec["workloads"]) == ["a", "b"]
    assert rec["seed"] == 3 and rec["run_seconds"] == 7
    assert rec["source_clean"] is None       # tmp_path is not a checkout
    run = rec["workloads"]["b"]
    assert run["git_commit"] == "abc"
    assert run["result"]["correct"] is True
    assert run["result"]["argv"] == ["--workload", "b", "--seed", "3",
                                     "--trace", "0", "--seconds", "7"]
    json.dumps(rec)


@pytest.mark.parametrize("workload, message", [
    ("bad", "correct is False"), ("crash", "exit 2")])
def test_a_failed_run_raises(bench_record, tmp_path, workload, message):
    with pytest.raises(RuntimeError, match=message):
        bench_record.record(spec(tmp_path, "a", workload), 3, tmp_path)
