"""A process that sees only sparse scans never loads scipy.

`scipy.spatial` and `scipy.optimize` add tens of MB of resident memory and
a fraction of a second of start-up to every process that imports them.
`detector.dbscan` imports the k-d tree only for a scan of more than
`_SCALAR_MAX` points, and the Hungarian solve is the package's own, so
the CLI's `simulate` and `track` on a sparse scenario never import scipy.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""

# simulate crossings, then track it with A_s in each association mode
TRACK_BOTH_MODES = """
import sys
from sparsetrack.cli import main
out = sys.argv[1]
main(["simulate", "--kind", "crossings", "--seed", "3", "--out", out],
     standalone_mode=False)
for mode in ("hungarian", "jpda"):
    main(["track", "--scans", f"{out}/scans.jsonl", "--truth",
          f"{out}/truth.jsonl", "--preset", "A_s", "--association", mode,
          "--out", f"{out}/{mode}.jsonl"], standalone_mode=False)
"""


def scipy_modules_after(code: str, *args: str) -> list[str]:
    """The scipy modules loaded in a fresh interpreter after `code` runs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code + REPORT, *args],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert scipy_modules_after("import sparsetrack, sparsetrack.cli") == []


def test_sparse_track_loads_no_scipy(tmp_path):
    assert scipy_modules_after(TRACK_BOTH_MODES, str(tmp_path)) == []
    for mode in ("hungarian", "jpda"):
        report = json.loads(
            (tmp_path / f"{mode}.report.json").read_text())
        assert report["gt_total"] > 0
