"""Check that two frame logs are equivalent under the float-equivalence rule.

    PYTHONPATH=src python3 tools/frame_log_compare.py A.jsonl B.jsonl
    PYTHONPATH=src python3 tools/frame_log_compare.py A_DIR B_DIR

Both files are read with `io.read_frame_log`. They are equivalent when:

- the record count, each record's `t`, its track ids and statuses (in
  order), `assignments`, `spawned`, `deleted`, `resurrected`, and the
  `beta_summary` ids and `best` are equal;
- each track's `position`, `velocity` and `mu` vector, and each
  `beta_summary` `beta0`, lies within 1e-12 * max(1, |a|, |b|) of the
  other side's, measured as the Euclidean norm of the difference.

Given two directories, it compares each `*.jsonl` log of one with the log
of the same name in the other (as `tools/output_digest.py --logs DIR`
writes them), in name order; a log that only one side has, or two
directories without logs, is a violation.

Exit 0 when they are, printing the largest scaled float difference found;
exit 1 at the first violation, naming its log (for directories), frame,
track id and field; exit 2 when a file cannot be read. The rule compares
whole-pipeline output across two versions of the code; run-to-run output
of one version stays byte-identical (README, "Float equivalence of frame
logs").
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from sparsetrack import io
from sparsetrack.core import ValidationError

TOL = 1e-12
EXACT = ("assignments", "spawned", "deleted", "resurrected")


def _norm(v) -> float:
    return math.sqrt(sum(x * x for x in v))


def scaled_diff(a, b) -> float:
    """|a - b| / max(1, |a|, |b|) of two equally long float sequences."""
    return _norm([x - y for x, y in zip(a, b)]) / max(1.0, _norm(a),
                                                       _norm(b))


def _record(ra, rb) -> tuple[str | None, list]:
    """(first exact-field violation or None, the float fields to compare:
    (track id, field, a, b)) of two records."""
    if ra.t != rb.t:
        return f"t {ra.t!r} vs {rb.t!r}", []
    keys = [[(tr["id"], tr["status"]) for tr in r.tracks] for r in (ra, rb)]
    if keys[0] != keys[1]:
        return f"tracks (id, status) {keys[0]} vs {keys[1]}", []
    for name in EXACT:
        if getattr(ra, name) != getattr(rb, name):
            return f"{name} {getattr(ra, name)} vs {getattr(rb, name)}", []
    floats = [(ta["id"], f, ta[f].tolist(), tb[f].tolist())
              for ta, tb in zip(ra.tracks, rb.tracks)
              for f in ("position", "velocity", "mu")]
    betas = [[(b["id"], b["best"]) for b in r.beta_summary]
             if r.beta_summary is not None else None for r in (ra, rb)]
    if betas[0] != betas[1]:
        return f"beta_summary (id, best) {betas[0]} vs {betas[1]}", []
    floats += [(ba["id"], "beta0", [ba["beta0"]], [bb["beta0"]])
               for ba, bb in zip(ra.beta_summary or (),
                                 rb.beta_summary or ())]
    return None, floats


def compare(log_a, log_b) -> tuple[str | None, float, str]:
    """(first violation or None, largest scaled float difference, where)."""
    if len(log_a) != len(log_b):
        return f"record count {len(log_a)} vs {len(log_b)}", 0.0, ""
    worst, where = 0.0, ""
    for k, (ra, rb) in enumerate(zip(log_a, log_b)):
        at = f"frame {k} (t={ra.t!r})"
        violation, floats = _record(ra, rb)
        if violation is not None:
            return f"{at}: {violation}", worst, where
        for tid, field, a, b in floats:
            d = scaled_diff(a, b) if len(a) == len(b) else math.inf
            if not d <= TOL:
                return (f"{at}: track {tid} {field} differs by {d:.3g} "
                        f"(scaled; bound {TOL:g}): {a} vs {b}", worst, where)
            if d > worst:
                worst, where = d, f"{at}, track {tid}, {field}"
    return None, worst, where


def compare_dirs(a: Path, b: Path) -> tuple[str | None, float, str, int]:
    """(first violation or None, largest scaled float difference, where,
    logs compared) of the same-named `*.jsonl` logs of two directories."""
    names = [{p.name for p in d.glob("*.jsonl")} for d in (a, b)]
    for only, side, other in ((names[0] - names[1], a, b),
                              (names[1] - names[0], b, a)):
        if only:
            return f"{min(only)} is in {side} but not in {other}", 0.0, "", 0
    if not names[0]:
        return f"no *.jsonl logs in {a} or {b}", 0.0, "", 0
    worst, where = 0.0, ""
    for k, name in enumerate(sorted(names[0])):
        violation, d, at = compare(io.read_frame_log(a / name),
                                   io.read_frame_log(b / name))
        if violation is not None:
            return f"{name}: {violation}", worst, where, k
        if d > worst:
            worst, where = d, f"{name}, {at}"
    return None, worst, where, len(names[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path,
                    help="first frame log (JSON Lines), or a directory of them")
    ap.add_argument("b", type=Path,
                    help="second frame log, or a directory of them")
    args = ap.parse_args(argv)
    try:
        if args.a.is_dir() and args.b.is_dir():
            violation, worst, where, n = compare_dirs(args.a, args.b)
            what = f"{n} logs"
        else:
            log_a = io.read_frame_log(args.a)
            violation, worst, where = compare(log_a,
                                              io.read_frame_log(args.b))
            what = f"{len(log_a)} records"
    except (OSError, ValidationError) as exc:
        print(f"frame_log_compare: {exc}", file=sys.stderr)
        return 2
    if violation is not None:
        print(f"not equivalent: {violation}")
        return 1
    print(f"equivalent: {what}; largest scaled float difference "
          f"{worst:.3g}" + (f" at {where}" if where else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
