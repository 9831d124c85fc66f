"""Run every benchmark workload once and record the results as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 13 --seed 3

Run it from anywhere inside a source checkout; it works on the checkout
that holds this file. For each workload listed in BENCHMARK.json it runs
the declared `command` with `--workload W --seed S --trace 0 --seconds
<run_seconds>`, one workload after another, and keeps the run's final JSON
line and the `git_commit` of its `# meta` line. `source_clean` says
whether `src/`, `perfbench/` and BENCHMARK.json matched that commit (None
outside a git checkout), since a run of uncommitted code still reports
the commit it sits on.

The exit status is 1, and nothing is written, when any run exits non-zero,
prints no result or reports `correct: false`.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
META = "# meta "


def run_workload(command: list[str], workload: str, seed: int,
                 seconds: float, cwd: Path) -> dict:
    """One untraced run: its final JSON line and its meta `git_commit`.

    Raises RuntimeError when the run fails or reports `correct: false`.
    """
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--trace", "0", "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n"
                           f"{proc.stderr.strip()}")
    meta = next((json.loads(line[len(META):]) for line in lines
                 if line.startswith(META)), {})
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RuntimeError(f"{workload}: last line is not a result: "
                           f"{lines[-1]!r}")
    if result.get("correct") is not True:
        problems = [line for line in lines if line.startswith("# problem")]
        raise RuntimeError("\n".join([
            f"{workload}: correct is {result.get('correct')!r}", *problems]))
    return {"git_commit": meta.get("git_commit"), "result": result}


def source_clean(root: Path) -> bool | None:
    """Whether the benchmarked sources match HEAD; None without git."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "perfbench",
             "BENCHMARK.json"], cwd=root, capture_output=True, text=True,
            check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return out == ""


def record(spec: dict, seed: int, root: Path) -> dict:
    """Run each of `spec`'s workloads in `root`; see the module docstring."""
    runs = {w["name"]: run_workload(spec["command"], w["name"], seed,
                                    spec["run_seconds"], root)
            for w in spec["workloads"]}
    return {"seed": seed, "run_seconds": spec["run_seconds"],
            "command": spec["command"], "source_clean": source_clean(root),
            "workloads": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rec = record(spec, args.seed, ROOT)
    except RuntimeError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({"pr": args.pr, **rec}, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
