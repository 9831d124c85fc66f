"""Run one sparsetrack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload crossings-jpda --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout: the package is imported from
`src/` there, never from an installed copy, and the run fails without a
result when `src/sparsetrack` is missing. Scratch files go under
`.perfbench/` in the checkout and are removed at exit, except the span
file of a traced run.

The run sets up the workload's inputs, warms up on a prefix of the stream,
then replays the whole number of passes whose time is closest to
`--seconds`, at least one. With `--trace 0` it reports BENCHMARK.json's
`end_to_end` metrics from untraced passes. With `--trace 1` it alternates
untraced and traced passes and reports the `per_layer` metrics from the
traced ones; `trace.overhead` is the median traced pass time over the
median untraced one. Times are divided by the machine slowdown that a
calibration kernel measures during the run (see bench.CAL_REF_S and
README.md); the `# meta` line gives the slowdowns and unscaled figures.

Every run checks its outputs (see `bench.check_outputs`), checks that all
passes give the same quality fingerprint, and prints the drift of that
fingerprint from the stored one in `fingerprint.json`. The last line of
stdout is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`. BLAS is pinned to one thread through this process's own
environment; no CPU pinning or machine-wide tracing is used.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINT = HERE / "fingerprint.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS to one thread, then import sparsetrack from ROOT/src."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sparsetrack
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import sparsetrack from {src}: "
                         f"{exc}")
    if not Path(sparsetrack.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: sparsetrack was imported from "
                         f"{sparsetrack.__file__}, not from {src}")


def git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint_drift(workload: str, seed: int, quality: dict) -> dict:
    ref = json.loads(FINGERPRINT.read_text()).get(workload, {}).get(str(seed))
    if ref is None:
        return {"reference": False}
    drift = {k: [ref.get(k), quality.get(k)]
             for k in sorted(set(ref) | set(quality))
             if ref.get(k) != quality.get(k)}
    return {"reference": True, "drift": drift}


def measure(w, seed: int, seconds: float, work: Path,
            trace_path: Path | None = None):
    """Set up, warm up and replay whole passes of workload `w`.

    With a `trace_path`, every second pass is traced and its spans are
    written there. Returns (metric values, quality, problems, attempted
    frames, failed frames, run info).
    """
    import bench
    import tracing

    s = bench.setup(w, seed, work)
    bench.replay(w, s.scans[:bench.WARMUP_FRAMES])
    s.scans = None
    tracer = tracing.Tracer() if trace_path else None
    plain, traced, summaries = [], [], []
    problems: list[str] = []
    quality = None
    while True:
        if tracer is not None and len(plain) > len(traced):
            with tracer.installed():
                p = bench.run_pass(w, s.files, tracer)
            summaries.append(tracer.summary())
            traced.append(p)
        else:
            p = bench.run_pass(w, s.files)
            plain.append(p)
        if quality is None:
            quality = p.quality(w)
            problems += bench.check_outputs(w, p, s.files)
        elif p.quality(w) != quality:
            problems.append(f"pass {len(plain) + len(traced) - 1} quality "
                            "differs from the first pass")
        p.outputs = None  # hold one pass's outputs at a time
        # Stop at the whole number of passes closest to `seconds`.
        spent = sum(p.seconds for p in plain + traced)
        if spent + p.seconds / 2 >= seconds and (tracer is None or traced):
            break

    passes = plain + traced
    attempted = sum(len(p.frame_s) for p in passes)
    failed = sum(p.failed for p in passes)
    unscaled = {}
    if tracer is None:
        values = end_to_end(plain, s)
        unscaled = frame_rates([p.frame_s for p in plain],
                               [p.seconds for p in plain])
    else:
        values = per_layer(summaries, plain, traced, s, failed / attempted)
        tracer.write(trace_path)
    info = {"slowdown": bench.slowdown([c for p in passes for c in p.cal_s]),
            "setup_slowdown": s.slowdown, "unscaled": unscaled,
            "passes": len(plain), "traced_passes": len(traced),
            "frames_per_pass": len(plain[0].frame_s),
            "frame_samples": sum(len(p.frame_s) for p in plain),
            "missing_hooks": tracer.missing if tracer else []}
    return values, quality, problems, attempted, failed, info


def frame_rates(frame_s, pass_s) -> dict:
    """frames_per_s and frame_ms_p50/p99 from the passes' frame times.

    Every pass replays the same frames, so each frame's time is its median
    over the passes; a burst of machine load that hits a frame in fewer
    than half of the passes does not reach the percentiles. frames_per_s
    uses the median pass time.
    """
    import bench
    import numpy as np

    frame_ms = 1e3 * np.median(np.asarray(frame_s), axis=0)
    return {"frames_per_s": len(frame_ms) / bench.median(pass_s),
            "frame_ms_p50": float(np.percentile(frame_ms, 50)),
            "frame_ms_p99": float(np.percentile(frame_ms, 99))}


def end_to_end(plain, s) -> dict:
    import bench

    return {
        **frame_rates([p.scaled_frame_s() for p in plain],
                      [p.scaled_seconds() for p in plain]),
        "setup_s": bench.median(s.seconds),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "det_f1": plain[0].det_f1,
    }


def per_layer(summaries, plain, traced, s, error_rate: float) -> dict:
    """Per-pass medians of the traced passes' span and counter totals."""
    import bench

    keys = set().union(*summaries)
    v = {k: bench.median([sm.get(k, 0.0) for sm in summaries]) for k in keys}
    k_run = bench.slowdown([c for p in traced for c in p.cal_s])
    v = {k: x / k_run if k.endswith(("_ms", "_ms_max")) else x
         for k, x in v.items()}

    def ratio(a: str, b: str) -> float:
        return v.get(a, 0.0) / v[b] if v.get(b) else 0.0

    v.update({
        "detector.yield": ratio("detector.measurements", "detector.clusters"),
        "association.gate_ratio": ratio("association.gated_pairs",
                                        "association.gate_pairs"),
        "trackman.live_tracks_mean": ratio("trackman.live_tracks",
                                           "trackman.step_calls"),
        "simulator.run_scenario_ms": 1e3 * bench.median(s.simulate_seconds),
        "simulator.points_per_scan": s.points_per_scan,
        "trace.overhead": (bench.median([p.scaled_seconds() for p in traced])
                           / bench.median([p.scaled_seconds() for p in plain])),
        "run.error_rate": error_rate,
    })
    return v


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bootstrap()
    import bench
    import numpy
    import scipy

    if args.workload not in bench.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"known: {sorted(bench.WORKLOADS)}")
    w = bench.WORKLOADS[args.workload]
    out = ROOT / ".perfbench"
    work = out / f"work-{w.name}-seed{args.seed}-{os.getpid()}"
    trace_path = (out / f"trace-{w.name}-seed{args.seed}.jsonl"
                  if args.trace else None)
    try:
        values, quality, problems, attempted, failed, info = measure(
            w, args.seed, args.seconds, work, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **info,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpu_pinning": "none",
        "machine_tracing": "none; spans wrap this process's own calls",
    }
    print("# meta " + json.dumps(meta))
    print("# quality " + json.dumps({
        "values": quality, **fingerprint_drift(w.name, args.seed, quality)}))
    for problem in problems:
        print(f"# problem: {problem}")

    # A per-layer metric of a layer the workload never calls reads 0; an
    # end-to-end metric is always measured.
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0) if args.trace
                           else values[m["name"]], "unit": m["unit"]}
               for m in listed}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
