"""Time two source checkouts in alternating pairs of benchmark runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload occlusion-hungarian \
        --seed 3 --pairs 10 --seconds 25

PARENT and CHANGE are source checkouts, say a clone of the parent commit
and the working tree. Each pair runs the `command` of this checkout's
BENCHMARK.json once in each of them, untraced, as tools/bench_record.py
does; the parent runs first in the first pair, the change in the second,
and so on. `--seconds` defaults to BENCHMARK.json's `run_seconds`.

For each end-to-end metric in BENCHMARK.json it prints each side's
median [first quartile, third quartile], how many pairs the change won
(a tie counts for neither side) and whether the gain rule holds: at least
ten pairs, the change winning at least nine tenths of them, and its
median better than the parent's by more than the parent's quartile
spread. It also prints each side's failed and attempted frames.

The exit status is 1 when any run exits non-zero, prints no result or
reports `correct: false`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_record import ROOT, run_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by linear interpolation
    between the sorted values (numpy's default percentile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]
              ) -> list[dict]:
    """One row per entry of `metrics` (BENCHMARK.json's `end_to_end`) from
    `pairs` of (parent, change) run results: each side's quartiles, the
    change's wins and whether the gain rule holds."""
    n = len(pairs)
    rows = []
    for m in metrics:
        name = m["name"]
        sign = 1 if m["better"] == "higher" else -1
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        q_old, q_new = quartiles(old), quartiles(new)
        gap = sign * (q_new[1] - q_old[1])
        rows.append({"name": name, "better": m["better"],
                     "parent": q_old, "change": q_new, "wins": wins,
                     "pairs": n, "gain": n >= 10 and 10 * wins >= 9 * n
                     and gap > q_old[2] - q_old[0]})
    return rows


def run_pairs(command: list[str], workload: str, seed: int, seconds: float,
              parent: Path, change: Path, n: int) -> list[tuple[dict, dict]]:
    """`n` (parent, change) pairs of run results, alternating which side
    runs first. Raises RuntimeError as `run_workload` does."""
    pairs = []
    for k in range(n):
        first = k % 2  # 0: the parent runs first
        runs = [None, None]
        for i in (first, 1 - first):
            runs[i] = run_workload(command, workload, seed, seconds,
                                   (parent, change)[i])["result"]
        pairs.append(tuple(runs))
        print(f"pair {k + 1}/{n} done, {('parent', 'change')[first]} first",
              file=sys.stderr)
    return pairs


def report(rows: list[dict], pairs: list[tuple[dict, dict]]) -> str:
    def fmt(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    table = [["metric", "better", "parent", "change", "wins", "gain"]]
    table += [[r["name"], r["better"], fmt(r["parent"]), fmt(r["change"]),
               f"{r['wins']}/{r['pairs']}", "yes" if r["gain"] else "no"]
              for r in rows]
    widths = [max(map(len, col)) + 2 for col in zip(*table)]
    lines = ["".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    for i, side in enumerate(("parent", "change")):
        failed = sum(p[i]["failed"] for p in pairs)
        attempted = sum(p[i]["attempted"] for p in pairs)
        lines.append(f"{side}: {failed} of {attempted} frames failed")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        pairs = run_pairs(spec["command"], args.workload, args.seed, seconds,
                          args.parent.resolve(), args.change.resolve(),
                          args.pairs)
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s runs")
    print(report(summarize(spec["end_to_end"], pairs), pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
