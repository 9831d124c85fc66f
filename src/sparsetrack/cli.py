"""Command-line entry point.

Subcommands: simulate, detect, track, sweep, evaluate. Exit codes:
0 success, 2 usage error, 3 data error, 4 internal numeric error.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import click

from . import io as stio
from .association import AssociationComplexityError
from .core import NumericalError, ValidationError
from .detector import Detector, DetectorConfig, PRESETS, get_preset
from .metrics import check_frame_times, eval_detection, eval_mot
from .simulator import KINDS, Scenario, run_scenario
from .trackman import TrackerConfig, run_tracker

EXIT_DATA = 3
EXIT_NUMERIC = 4


def _detector_config(preset: str | None, config: str | None) -> DetectorConfig:
    if (preset is None) == (config is None):
        raise click.UsageError("exactly one of --preset or --config is required")
    if preset is not None:
        try:
            return get_preset(preset)
        except ValidationError as exc:
            raise click.UsageError(str(exc))
    try:
        return DetectorConfig(**json.loads(Path(config).read_text()))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError,
            TypeError, ValidationError) as exc:
        raise ValidationError(f"invalid detector config: {exc}") from exc


def _run_detector(scans, cfg: DetectorConfig):
    det = Detector(cfg)
    return [(s.t, det.detect(s)) for s in scans]


def _positive_radius(ctx, param, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter("must be a finite number > 0")
    return value


_match_radius = click.option("--match-radius", type=float, default=1.0,
                             callback=_positive_radius)


def _score_detections(frames, gt, match_radius: float):
    return eval_detection([ms for _, ms in frames], gt, match_radius)


def _read_aligned(scans_path, truth_path):
    """The scans and the truth, once the scans' times match the truth's,
    so a misaligned pair fails before the detector runs."""
    scans = stio.read_scans(scans_path)
    gt = stio.read_ground_truth(truth_path)
    check_frame_times([s.t for s in scans], gt)
    return scans, gt


def _report(report, path) -> None:
    """Write a report to `path` as indented JSON and echo it as one line."""
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    click.echo(json.dumps(report.to_dict()))


class _Main(click.Group):
    """Reports bad input as exit 3 and numeric failures as exit 4."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValidationError, OSError) as exc:
            code, error = EXIT_DATA, exc
        except (NumericalError, AssociationComplexityError) as exc:
            code, error = EXIT_NUMERIC, exc
        click.echo(f"error: {error}", err=True)
        sys.exit(code)


@click.group(cls=_Main)
def main() -> None:
    """Sparse-LiDAR target detection and multi-target tracking toolkit."""


@main.command()
@click.option("--kind", type=click.Choice(KINDS), required=True)
@click.option("--frames", type=int, default=None, help="Frame count override.")
@click.option("--seed", type=int, default=0)
@click.option("--dt", type=float, default=0.1)
@click.option("--out", "out_dir", type=click.Path(), required=True,
              help="Output directory for scans.jsonl and truth.jsonl.")
def simulate(kind, frames, seed, dt, out_dir) -> None:
    """Generate a scenario's scan stream and ground truth."""
    try:
        sc = Scenario(kind=kind, n_frames=frames, seed=seed, dt=dt)
        scans, gt = run_scenario(sc)
    except ValidationError as exc:
        raise click.UsageError(str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stio.write_scans(scans, out / "scans.jsonl")
    stio.write_ground_truth(gt, out / "truth.jsonl")
    click.echo(f"wrote {len(scans)} scans to {out}")


@main.command()
@click.option("--scans", "scans_path", type=click.Path(), required=True)
@click.option("--preset", type=str, default=None,
              help=f"Named config, one of {sorted(PRESETS)}.")
@click.option("--config", type=click.Path(), default=None,
              help="JSON file of DetectorConfig fields.")
@click.option("--truth", "truth_path", type=click.Path(), default=None,
              help="Ground truth for the detection report.")
@_match_radius
@click.option("--out", "out_path", type=click.Path(), required=True)
def detect(scans_path, preset, config, truth_path, match_radius, out_path):
    """Run the detector over a scan stream; write detections and a report."""
    cfg = _detector_config(preset, config)
    if truth_path is None:
        scans, gt = stio.read_scans(scans_path), None
    else:
        scans, gt = _read_aligned(scans_path, truth_path)
    frames = _run_detector(scans, cfg)
    stio.write_measurement_frames(frames, out_path)
    n = sum(len(ms) for _, ms in frames)
    click.echo(f"wrote {n} detections over {len(frames)} frames to {out_path}")
    if gt is not None:
        _report(_score_detections(frames, gt, match_radius),
                Path(out_path).with_suffix(".report.json"))


@main.command()
@click.option("--scans", "scans_path", type=click.Path(), default=None,
              help="Raw scan stream (requires a detector preset/config).")
@click.option("--measurements", "meas_path", type=click.Path(), default=None,
              help="Pre-detected measurement stream.")
@click.option("--truth", "truth_path", type=click.Path(), required=True)
@click.option("--preset", type=str, default=None)
@click.option("--config", type=click.Path(), default=None)
@click.option("--association", type=click.Choice(["hungarian", "jpda"]),
              default="hungarian")
@_match_radius
@click.option("--out", "out_path", type=click.Path(), required=True)
def track(scans_path, meas_path, truth_path, preset, config, association,
          match_radius, out_path):
    """Track a measurement stream; write the frame log and a MOT report."""
    if (scans_path is None) == (meas_path is None):
        raise click.UsageError("exactly one of --scans or --measurements is required")
    if meas_path is not None and (preset is not None or config is not None):
        raise click.UsageError("--preset and --config apply only to --scans")
    if scans_path is not None:
        cfg = _detector_config(preset, config)
        scans, gt = _read_aligned(scans_path, truth_path)
        frames = _run_detector(scans, cfg)
    else:
        frames = stio.read_measurement_frames(meas_path)
        gt = stio.read_ground_truth(truth_path)
        check_frame_times([t for t, _ in frames], gt)
    log = run_tracker(frames, TrackerConfig(association_mode=association))
    stio.write_frame_log(log, out_path)
    _report(eval_mot(log, gt, match_radius),
            Path(out_path).with_suffix(".report.json"))


@main.command()
@click.option("--scans", "scans_path", type=click.Path(), required=True)
@click.option("--truth", "truth_path", type=click.Path(), required=True)
@click.option("--preset", type=str, default=None,
              help="Base config the grid is applied on top of.")
@click.option("--config", type=click.Path(), default=None)
@click.option("--min-pts", "min_pts_grid", type=str, required=True,
              help="Comma-separated minPts values, e.g. 1,2,3,4.")
@_match_radius
@click.option("--out", "out_path", type=click.Path(), required=True)
def sweep(scans_path, truth_path, preset, config, min_pts_grid, match_radius,
          out_path):
    """Detection-report table over a minPts grid (Table-I-style columns)."""
    try:
        grid = [int(v) for v in min_pts_grid.split(",") if v.strip()]
    except ValueError:
        raise click.UsageError("--min-pts must be comma-separated integers")
    if not grid:
        raise click.UsageError("--min-pts grid is empty")
    base = _detector_config(preset, config)
    try:
        configs = [dataclasses.replace(base, min_pts=mp) for mp in grid]
    except ValidationError as exc:
        raise click.UsageError(f"--min-pts: {exc}")
    scans, gt = _read_aligned(scans_path, truth_path)
    rows = []
    for cfg in configs:
        rep = _score_detections(_run_detector(scans, cfg), gt, match_radius)
        rows.append({"min_pts": cfg.min_pts, "eps0": cfg.eps0,
                     "voxel": cfg.voxel, **rep.to_dict()})
    Path(out_path).write_text(json.dumps(rows, indent=2) + "\n")
    for row in rows:
        click.echo(json.dumps(row))


@main.command()
@click.option("--detections", "det_path", type=click.Path(), default=None)
@click.option("--frame-log", "log_path", type=click.Path(), default=None)
@click.option("--truth", "truth_path", type=click.Path(), required=True)
@_match_radius
@click.option("--out", "out_path", type=click.Path(), required=True)
def evaluate(det_path, log_path, truth_path, match_radius, out_path):
    """Evaluate stored detections or a frame log against ground truth."""
    if (det_path is None) == (log_path is None):
        raise click.UsageError("exactly one of --detections or --frame-log is required")
    gt = stio.read_ground_truth(truth_path)
    if det_path is not None:
        frames = stio.read_measurement_frames(det_path)
        check_frame_times([t for t, _ in frames], gt)
        report = _score_detections(frames, gt, match_radius)
    else:
        report = eval_mot(stio.read_frame_log(log_path), gt, match_radius)
    _report(report, out_path)


if __name__ == "__main__":
    main()
