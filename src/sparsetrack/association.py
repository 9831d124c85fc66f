"""Mahalanobis gating and the two association strategies.

`gate`/`build_cost`/`hungarian`/`jpda` operate on a `TrackView`, one array
row per track, so they stay decoupled from track bookkeeping and each runs
once per frame for all tracks. The Hungarian solve is delegated to scipy's
exact linear_sum_assignment; JPDA enumerates feasible joint events
explicitly. Both strategies end in the same filter update,
`filter.imm_correct_pda`: Hungarian passes the one-hot beta row of each
track's assigned detection, JPDA each track's row of marginals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import NumericalError, ValidationError, check_field_types
from .filter import _sym

SENTINEL_COST = 1e9
_LOG_2PI3 = 3 * math.log(2 * math.pi)
_I3 = np.eye(3)


@dataclass(frozen=True)
class JpdaParams:
    Pd: float = 0.7                 # detection probability
    lambda_c: float = 1e-4          # clutter spatial density (1/m^3)
    gamma: float = 7.815            # chi-squared(3) gate at 95%
    max_events: int = 1_000_000

    def __post_init__(self):
        check_field_types(self)
        if not (0.0 < self.Pd <= 1.0):
            raise ValidationError("Pd must be in (0, 1]")
        if not (self.lambda_c > 0 and self.gamma > 0 and self.max_events >= 1):
            raise ValidationError("invalid JPDA parameters")


@dataclass(frozen=True)
class TrackView:
    """What the association stage needs of T tracks, one row per track."""

    z_pred: np.ndarray                  # (T, 3) predicted measurements H x
    S: np.ndarray                       # (T, 3, 3) innovation covariances
    velocity: np.ndarray | None = None  # (T, 3)
    anchor: np.ndarray | None = None    # (T, 3) last confident position
    anchor_t: np.ndarray | None = None  # (T,) its time; NaN: no anchor

    def __len__(self) -> int:
        return len(self.z_pred)


@dataclass
class GateResult:
    d2: np.ndarray                      # (n_tracks, n_dets) squared Mahalanobis
    feasible: np.ndarray                # boolean, same shape
    loglik: np.ndarray                  # log N(z; z_pred, S) per pair
    notes: list[str] = field(default_factory=list)


def gate(tracks: TrackView, detections: np.ndarray,
         params: JpdaParams) -> GateResult:
    """Chi-squared gating of every track at once.

    A track whose S is not positive definite (slogdet sign <= 0, or a
    non-finite log-determinant) gets an infeasible row and one note. Such
    an S is swapped for I before the one stacked inverse, so it cannot make
    the inverse fail and the other rows are unaffected.
    """
    dets = np.asarray(detections, dtype=float).reshape(-1, 3)
    z = np.asarray(tracks.z_pred, dtype=float).reshape(-1, 3)
    S = _sym(np.asarray(tracks.S, dtype=float).reshape(-1, 3, 3))
    sign, logdet = np.linalg.slogdet(S)
    ok = (sign > 0) & np.isfinite(logdet)
    notes = [] if ok.all() else [
        f"track {i}: singular S (slogdet sign {sign[i]:g}, "
        f"logdet {logdet[i]:.3e}); row infeasible"
        for i in np.flatnonzero(~ok).tolist()]
    if notes:
        S = np.where(ok[:, None, None], S, _I3)
    y = dets - z[:, None]                               # (T, n, 3)
    d2 = np.einsum("tki,tij,tkj->tk", y, np.linalg.inv(S), y)
    loglik = -0.5 * (_LOG_2PI3 + logdet[:, None] + d2)
    if notes:
        d2[~ok] = np.inf
        loglik[~ok] = -np.inf
    return GateResult(d2=d2, feasible=d2 <= params.gamma, loglik=loglik,
                      notes=notes)


def build_cost(tracks: TrackView, detections: np.ndarray,
               gate_result: GateResult, weights: tuple[float, float, float],
               t_now: float) -> np.ndarray:
    """Cost = w_m * d2 + w_a * identity-anchor + w_v * velocity penalty.

    Anchor and velocity terms vanish for a track with no confident history.
    Infeasible pairs get the sentinel cost.
    """
    dets = np.asarray(detections, dtype=float).reshape(-1, 3)
    w_m, w_a, w_v = weights
    feasible = gate_result.feasible
    cost = w_m * np.where(feasible, gate_result.d2, 0.0)
    if tracks.anchor is not None:
        anchor_t = np.asarray(tracks.anchor_t, dtype=float)
        has = ~np.isnan(anchor_t)[:, None]
        diff = dets - np.asarray(tracks.anchor, dtype=float)[:, None]
        lag = t_now - anchor_t
        moving = lag > 0                                # False where NaN
        implied = diff / np.where(moving, lag, 1.0)[:, None, None]
        miss = np.linalg.norm(implied - tracks.velocity[:, None], axis=2)
        cost = cost + np.where(has, w_a * np.linalg.norm(diff, axis=2), 0.0) \
            + np.where(moving[:, None], w_v * miss, 0.0)
    return np.where(feasible, np.minimum(cost, SENTINEL_COST - 1.0),
                    SENTINEL_COST)


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost one-to-one assignment.

    Returns `assigned`, one entry per row: the column given to that row, or
    -1 where the row is left over or its only pair is at the sentinel cost.
    """
    cost = np.asarray(cost, dtype=float)
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    keep = cost[rows, cols] < SENTINEL_COST - 0.5
    assigned = np.full(len(cost), -1)
    assigned[rows[keep]] = cols[keep]
    return assigned


class AssociationComplexityError(RuntimeError):
    """Joint-event enumeration exceeded the configured cap."""


def jpda(tracks: TrackView, detections: np.ndarray,
         gate_result: GateResult, params: JpdaParams) -> np.ndarray:
    """Marginal association probabilities by joint-event enumeration.

    Returns beta of shape (n_tracks, n_dets + 1); column 0 is the
    missed-detection probability beta_{i,0}. Event weights whose total
    overflows raise `NumericalError`.
    """
    dets = np.asarray(detections, dtype=float).reshape(-1, 3)
    n, m = len(tracks), dets.shape[0]
    beta = np.zeros((n, m + 1))
    if n == 0:
        return beta
    # Per-pair event weight relative to the clutter hypothesis:
    # assigned -> Pd * Lambda_ij / lambda_c, missed -> (1 - Pd). The
    # enumeration reads them as Python lists, which is faster than
    # indexing arrays element by element and gives the same floats.
    with np.errstate(over="ignore"):
        w_pair = np.where(
            gate_result.feasible,
            params.Pd * np.exp(gate_result.loglik) / params.lambda_c,
            0.0).tolist()
    feas = gate_result.feasible.tolist()
    w_miss = 1.0 - params.Pd
    if w_miss == 0.0:
        w_miss = 1e-300  # Pd = 1: keep all-miss events representable

    total = 0.0
    acc = [[0.0] * (m + 1) for _ in range(n)]
    used = [False] * m
    choice = [0] * n                  # column of acc: 0 miss, j + 1 det j
    count = 0

    def recurse(i: int, weight: float) -> None:
        nonlocal total, count
        if weight == 0.0:
            return
        if i == n:
            count += 1
            if count > params.max_events:
                raise AssociationComplexityError(
                    f"joint-event count exceeded {params.max_events}; "
                    "tighten the gate or reduce track/detection density")
            total += weight
            for row, c in zip(acc, choice):
                row[c] += weight
            return
        choice[i] = 0
        recurse(i + 1, weight * w_miss)
        for j in range(m):
            if feas[i][j] and not used[j]:
                used[j] = True
                choice[i] = j + 1
                recurse(i + 1, weight * w_pair[i][j])
                used[j] = False
        choice[i] = 0

    recurse(0, 1.0)
    # Python floats overflow to inf without a warning, and inf * 0 is NaN
    if not math.isfinite(total):
        raise NumericalError(
            f"JPDA joint-event weights are not finite (total {total})")
    if total <= 0.0:
        beta[:, 0] = 1.0
        return beta
    beta = np.array(acc) / total
    # Enforce exact row normalization against accumulation error.
    beta[:, 0] = 1.0 - beta[:, 1:].sum(axis=1)
    np.clip(beta, 0.0, 1.0, out=beta)
    return beta
