"""tools/output_digest.py on one short seed."""
import hashlib
import json
from pathlib import Path

from sparsetrack.simulator import KINDS

ROOT = Path(__file__).resolve().parents[1]


def test_two_runs_agree_and_cover_every_output(monkeypatch, capsys,
                                               tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import output_digest

    runs = []
    logs = tmp_path / "logs"
    for extra in ([], ["--logs", str(logs)]):
        assert output_digest.main(["--seeds", "0", "--frames", "40"]
                                  + extra) == 0
        runs.append(json.loads(capsys.readouterr().out))
    assert runs[0] == runs[1]
    keys = {f"{what}/{sensor}" for what in ("scans", "truth")
            for sensor in output_digest.SENSORS}
    keys |= {f"{what}/{preset}/{sensor}"
             for what in ("detections", "detection_report")
             for preset in output_digest.PRESETS
             for sensor in output_digest.SENSORS}
    keys |= {f"{what}/{mode}{stream}" for what in ("frame_log", "mot_report")
             for mode in output_digest.MODES for stream in ("", "/clutter")}
    assert list(runs[0]) == list(KINDS)
    for digests in runs[0].values():
        assert set(digests) == keys
        assert all(len(h) == 64 for h in digests.values())
    assert output_digest.parse_seeds("0-19") == range(20)
    assert output_digest.parse_seeds("3") == range(3, 4)
    # --logs wrote every digested frame log, and nothing else
    names = {f"{kind}-0-{mode}{stream}.jsonl": (kind, f"{mode}{tail}")
             for kind in KINDS for mode in output_digest.MODES
             for stream, tail in (("", ""), ("-clutter", "/clutter"))}
    assert {p.name for p in logs.iterdir()} == set(names)
    for name, (kind, key) in names.items():
        data = (logs / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == \
            runs[0][kind][f"frame_log/{key}"]
