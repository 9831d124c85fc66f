"""Regenerate fingerprint.json, the stored quality of every workload.

    python3 perfbench/fingerprint.py --seeds 20 [WORKLOAD ...]

For each workload and each seed in range(--seeds) this runs one untraced
pass and stores its quality fingerprint (MOTA, identity switches, FP, FN,
RMSE and detection TP/FP/FN/det%). `run.py` compares every run against
the entry for its seed. Regenerate only when a change is meant to alter
tracking or detection results, and say so in the change.
"""
from __future__ import annotations

import argparse
import json
import shutil

import run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("workloads", nargs="*",
                    help="workloads to regenerate (default: all)")
    args = ap.parse_args()
    run.bootstrap()
    import bench

    refs = json.loads(run.FINGERPRINT.read_text())
    work = run.ROOT / ".perfbench" / "fingerprint"
    try:
        for name in args.workloads or bench.WORKLOADS:
            w = bench.WORKLOADS[name]
            refs[name] = {}
            for seed in range(args.seeds):
                s = bench.setup(w, seed, work, repeats=1)
                p = bench.run_pass(w, s.files)
                if p.failed:
                    raise SystemExit(f"{name} seed {seed}: {p.failed} frames "
                                     "failed; the workload must not fail")
                refs[name][str(seed)] = p.quality(w)
                print(name, seed, p.quality(w), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.FINGERPRINT.write_text(json.dumps(refs, indent=1, sort_keys=True)
                               + "\n")


if __name__ == "__main__":
    main()
