"""Mahalanobis gating and the two association strategies.

`gate`/`build_cost`/`hungarian`/`jpda` operate on lightweight `TrackView`
snapshots so they stay decoupled from track bookkeeping. The Hungarian
solve is delegated to scipy's exact linear_sum_assignment; JPDA enumerates
feasible joint events explicitly. Both strategies end in the same filter
update, `filter.imm_correct_pda`: Hungarian passes the one-hot beta row of
its assigned detection, JPDA each track's row of marginals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import ValidationError
from .filter import _sym

SENTINEL_COST = 1e9


@dataclass(frozen=True)
class JpdaParams:
    Pd: float = 0.7                 # detection probability
    lambda_c: float = 1e-4          # clutter spatial density (1/m^3)
    gamma: float = 7.815            # chi-squared(3) gate at 95%
    dormant_gate_factor: float = 4.0
    max_events: int = 1_000_000

    def __post_init__(self):
        if not (0.0 < self.Pd <= 1.0):
            raise ValidationError("Pd must be in (0, 1]")
        if self.lambda_c <= 0 or self.gamma <= 0 or self.dormant_gate_factor <= 1:
            raise ValidationError("invalid JPDA parameters")


@dataclass(frozen=True)
class TrackView:
    """Per-track snapshot the association stage needs."""

    z_pred: np.ndarray                  # predicted measurement H x (3,)
    S: np.ndarray                       # innovation covariance (3, 3)
    velocity: np.ndarray | None = None
    last_confident: tuple[np.ndarray, float] | None = None  # (position, t)
    dormant: bool = False


@dataclass
class GateResult:
    d2: np.ndarray                      # (n_tracks, n_dets) squared Mahalanobis
    feasible: np.ndarray                # boolean, same shape
    loglik: np.ndarray                  # log N(z; z_pred, S) per pair
    notes: list[str] = field(default_factory=list)


def gate(tracks: list[TrackView], detections: np.ndarray,
         params: JpdaParams) -> GateResult:
    """Chi-squared gating; dormant tracks use the widened gate."""
    dets = np.asarray(detections, dtype=float).reshape(-1, 3)
    n, m = len(tracks), dets.shape[0]
    d2 = np.full((n, m), np.inf)
    loglik = np.full((n, m), -np.inf)
    feasible = np.zeros((n, m), dtype=bool)
    notes: list[str] = []
    for i, tv in enumerate(tracks):
        S = _sym(np.asarray(tv.S, dtype=float))
        try:
            Sinv = np.linalg.inv(S)
            sign, logdet = np.linalg.slogdet(S)
            if sign <= 0:
                raise np.linalg.LinAlgError("non-PD innovation covariance")
        except np.linalg.LinAlgError as exc:
            notes.append(f"track {i}: singular S ({exc}); row infeasible")
            continue
        thresh = params.gamma * (params.dormant_gate_factor if tv.dormant else 1.0)
        if m:
            y = dets - tv.z_pred
            q = np.einsum("ki,ij,kj->k", y, Sinv, y)
            d2[i] = q
            loglik[i] = -0.5 * (3 * math.log(2 * math.pi) + logdet + q)
            feasible[i] = q <= thresh
    return GateResult(d2=d2, feasible=feasible, loglik=loglik, notes=notes)


def build_cost(tracks: list[TrackView], detections: np.ndarray,
               gate_result: GateResult, weights: tuple[float, float, float],
               t_now: float | None = None) -> np.ndarray:
    """Cost = w_m * d2 + w_a * identity-anchor + w_v * velocity penalty.

    Anchor and velocity terms vanish when a track has no confident history.
    Infeasible pairs get the sentinel cost.
    """
    dets = np.asarray(detections, dtype=float).reshape(-1, 3)
    w_m, w_a, w_v = weights
    n, m = gate_result.d2.shape
    cost = np.full((n, m), SENTINEL_COST)
    for i, tv in enumerate(tracks):
        for j in range(m):
            if not gate_result.feasible[i, j]:
                continue
            c = w_m * gate_result.d2[i, j]
            if tv.last_confident is not None:
                anchor_pos, anchor_t = tv.last_confident
                c += w_a * float(np.linalg.norm(dets[j] - anchor_pos))
                if (tv.velocity is not None and t_now is not None
                        and t_now > anchor_t):
                    implied_v = (dets[j] - anchor_pos) / (t_now - anchor_t)
                    c += w_v * float(np.linalg.norm(implied_v - tv.velocity))
            cost[i, j] = min(c, SENTINEL_COST - 1.0)
    return cost


def hungarian(cost: np.ndarray
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Exact minimum-cost one-to-one assignment.

    Returns (pairs, unassigned_rows, unassigned_cols); pairs at the
    sentinel cost are dropped to unassigned.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return [], list(range(cost.shape[0])), list(range(cost.shape[1]))
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(r), int(c)) for r, c in zip(rows, cols)
             if cost[r, c] < SENTINEL_COST - 0.5]
    assigned_r = {r for r, _ in pairs}
    assigned_c = {c for _, c in pairs}
    un_rows = [r for r in range(cost.shape[0]) if r not in assigned_r]
    un_cols = [c for c in range(cost.shape[1]) if c not in assigned_c]
    return pairs, un_rows, un_cols


class AssociationComplexityError(RuntimeError):
    """Joint-event enumeration exceeded the configured cap."""


def jpda(tracks: list[TrackView], detections: np.ndarray,
         gate_result: GateResult, params: JpdaParams) -> np.ndarray:
    """Marginal association probabilities by joint-event enumeration.

    Returns beta of shape (n_tracks, n_dets + 1); column 0 is the
    missed-detection probability beta_{i,0}.
    """
    dets = np.asarray(detections, dtype=float).reshape(-1, 3)
    n, m = len(tracks), dets.shape[0]
    beta = np.zeros((n, m + 1))
    if n == 0:
        return beta
    feas = gate_result.feasible
    # Per-pair event weight relative to the clutter hypothesis:
    # assigned -> Pd * Lambda_ij / lambda_c, missed -> (1 - Pd).
    with np.errstate(over="ignore"):
        w_pair = np.where(
            feas,
            params.Pd * np.exp(gate_result.loglik) / params.lambda_c,
            0.0)
    w_miss = 1.0 - params.Pd
    if w_miss == 0.0:
        w_miss = 1e-300  # Pd = 1: keep all-miss events representable

    total = 0.0
    acc = np.zeros((n, m + 1))
    used = np.zeros(m, dtype=bool)
    choice = np.empty(n, dtype=int)
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
            for ti in range(n):
                acc[ti, choice[ti] + 1 if choice[ti] >= 0 else 0] += weight
            return
        choice[i] = -1
        recurse(i + 1, weight * w_miss)
        for j in range(m):
            if feas[i, j] and not used[j]:
                used[j] = True
                choice[i] = j
                recurse(i + 1, weight * w_pair[i, j])
                used[j] = False
        choice[i] = -1

    recurse(0, 1.0)
    if total <= 0.0:
        beta[:, 0] = 1.0
        return beta
    beta = acc / total
    # Enforce exact row normalization against accumulation error.
    beta[:, 0] = 1.0 - beta[:, 1:].sum(axis=1)
    np.clip(beta, 0.0, 1.0, out=beta)
    return beta
