"""In-memory span tracing by wrapping the module attributes callers look up.

`Tracer.installed()` swaps each hooked attribute (for example
`sparsetrack.detector.dbscan` or `sparsetrack.trackman.Tracker.step`) for a
wrapper that records a span: name, start, end, parent span and frame index.
The originals are put back when the context exits, also on error. Spans
stay in memory; `summary()` folds them into per-name totals, self times
(a span minus the spans it directly contains) and counters.

Tracing adds a Python call per hooked call, so per-layer numbers come from
a separate traced pass and the end-to-end numbers from untraced ones.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# A counter receives (counts, result, args) after a hooked call returns.
Counter = Callable[[dict, object, tuple], None]


@dataclass(frozen=True)
class Hook:
    """One attribute to wrap: `module.attr` or `module.Class.method`."""

    module: str
    attr: str
    span: str
    count: Counter | None = None


def _add(key: str, fn: Callable[[object, tuple], float]) -> Counter:
    def count(counts: dict, out, args) -> None:
        counts[key] += fn(out, args)
    return count


def _gate_counts(counts: dict, g, args) -> None:
    counts["association.gate_pairs"] += g.feasible.size
    counts["association.gated_pairs"] += int(g.feasible.sum())
    counts["association.singular_S"] += len(g.notes)


def _step_counts(counts: dict, rec, args) -> None:
    counts["trackman.live_tracks"] += len(rec.tracks)
    counts["trackman.spawned"] += len(rec.spawned)
    counts["trackman.deleted"] += len(rec.deleted)
    counts["trackman.resurrected"] += len(rec.resurrected)


def _detect_counts(counts: dict, ms, args) -> None:
    counts["detector.points_in"] += len(args[1])
    counts["detector.measurements"] += len(ms)


def _file_bytes(out, args) -> int:
    return os.path.getsize(args[0])


# Span names are the per-layer metric stems. Several functions may share a
# span name (the validation layers, the centroid step).
HOOKS: tuple[Hook, ...] = (
    Hook("sparsetrack.io", "read_scans", "io.read_scans",
         _add("io.scan_bytes", _file_bytes)),
    Hook("sparsetrack.io", "read_ground_truth", "io.read_ground_truth"),
    Hook("sparsetrack.io", "write_frame_log", "io.write_frame_log"),
    Hook("sparsetrack.detector", "Detector.detect", "detector.detect",
         _detect_counts),
    Hook("sparsetrack.detector", "roi_filter", "detector.roi",
         _add("detector.points_roi", lambda out, a: len(out))),
    Hook("sparsetrack.detector", "voxel_downsample", "detector.voxel",
         _add("detector.voxels", lambda out, a: out.shape[0])),
    Hook("sparsetrack.detector", "dbscan", "detector.dbscan",
         _add("detector.clusters", lambda out, a: len(out))),
    Hook("sparsetrack.detector", "validate_geometric", "detector.validate",
         _add("detector.layer1_reject", lambda out, a: not out)),
    Hook("sparsetrack.detector", "TemporalHistory.nearest",
         "detector.validate"),
    Hook("sparsetrack.detector", "validate_jump", "detector.validate",
         _add("detector.layer2_reject", lambda out, a: not out)),
    Hook("sparsetrack.detector", "validate_temporal", "detector.validate",
         _add("detector.layer3_reject", lambda out, a: not out)),
    Hook("sparsetrack.detector", "estimate_centroid", "detector.centroid"),
    Hook("sparsetrack.detector", "to_global", "detector.centroid"),
    Hook("sparsetrack.trackman", "imm_predict", "filter.imm_predict"),
    Hook("sparsetrack.trackman", "imm_correct", "filter.imm_correct"),
    Hook("sparsetrack.trackman", "imm_init", "filter.imm_init"),
    Hook("sparsetrack.association", "gate", "association.gate",
         _gate_counts),
    Hook("sparsetrack.association", "build_cost", "association.build_cost"),
    Hook("sparsetrack.association", "hungarian", "association.hungarian"),
    Hook("sparsetrack.association", "jpda", "association.jpda"),
    Hook("sparsetrack.trackman", "Tracker.step", "trackman.step",
         _step_counts),
    Hook("sparsetrack.trackman", "Tracker._imm_correct_pda",
         "trackman.pda_update"),
    Hook("sparsetrack.trackman", "lifecycle_advance", "trackman.lifecycle"),
    Hook("sparsetrack.metrics", "eval_mot", "metrics.eval_mot"),
    Hook("sparsetrack.metrics", "eval_detection", "metrics.eval_detection"),
)


def _resolve(hook: Hook):
    """(owner object, attribute name) of a hook, or None when absent."""
    owner = importlib.import_module(hook.module)
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        self.missing: list[str] = []
        self.frame = -1
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.frames: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def clear(self) -> None:
        """Drop recorded spans and counts; installed wrappers keep working."""
        for buf in (self.names, self.starts, self.ends, self.parents,
                    self.frames, self._stack):
            buf.clear()
        self.counts.clear()

    def _wrap(self, fn, name: str, count: Counter | None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, frames, stack = self.parents, self.frames, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            frames.append(self.frame)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, out, args)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every resolvable hook; restore the originals on exit."""
        self.clear()
        saved = []
        self.missing = []
        try:
            for hook in self.hooks:
                target = _resolve(hook)
                if target is None:
                    self.missing.append(f"{hook.module}.{hook.attr}")
                    continue
                owner, name = target
                original = vars(owner)[name]
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, hook.span,
                                                hook.count))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Calls are nested on one thread, so children never overlap and their
        summed durations are the part of the parent they cover.
        """
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def summary(self) -> dict[str, float]:
        """Per span name: total ms, self ms, calls and slowest call in ms."""
        out: dict[str, float] = defaultdict(float)
        for name, s, e, own in zip(self.names, self.starts, self.ends,
                                   self.self_times()):
            ms = 1e3 * (e - s)
            out[f"{name}_ms"] += ms
            out[f"{name}_self_ms"] += 1e3 * own
            out[f"{name}_calls"] += 1
            out[f"{name}_ms_max"] = max(out[f"{name}_ms_max"], ms)
        out.update(self.counts)
        return dict(out)

    def write(self, path) -> None:
        """Write the recorded spans as JSON Lines, one span per line."""
        with open(path, "w") as f:
            for rec in zip(self.names, self.starts, self.ends, self.parents,
                           self.frames):
                f.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "frame"), rec))) + "\n")
