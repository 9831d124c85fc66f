"""Mahalanobis gating and the two association strategies.

Each stage takes only the arrays it reads, one row per track, and runs
once per frame for all tracks. The Hungarian solve is a port of scipy's
`linear_sum_assignment` (Crouse's shortest augmenting path) that makes
the same decisions, ties included, and is checked against it in the
tests; JPDA enumerates feasible joint events explicitly. Hungarian ends in
`filter.imm_correct`, the IMM Kalman correction, and JPDA in its general
form, the PDA update `filter.imm_correct_pda` of each track's marginals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (NumericalError, ValidationError, as_points,
                   check_field_types, number_array)
from .filter import Innovation, _sym, innovation

SENTINEL_COST = 1e9


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


@dataclass
class GateResult:
    d2: np.ndarray                      # (n_tracks, n_dets) squared Mahalanobis
    feasible: np.ndarray                # boolean, same shape
    loglik: np.ndarray                  # log N(z; z_pred, S) per pair
    notes: list[str] = field(default_factory=list)
    rest: Innovation | None = None      # rows [:, 1:] of a stacked gate


def gate(z_pred: np.ndarray, S: np.ndarray, detections: np.ndarray,
         params: JpdaParams) -> GateResult:
    """Chi-squared gating of every track at once: track i has predicted
    measurement `z_pred[i]` (3,) and innovation covariance `S[i]` (3, 3).

    `z_pred` (T, K, 3) and `S` (T, K, 3, 3) stack K rows per track: row
    [i, 0] gates track i, and the innovation terms of rows [i, 1:], from
    the same stacked pass, are returned as `rest`. The tracker stacks each
    model's prediction there for the update (`IMMState.measurement_stack`).

    A track whose S is not positive definite (slogdet sign <= 0, or a
    non-finite log-determinant) gets an infeasible row and one note; the
    other rows are unaffected (see `filter.innovation`). `detections` are
    read by `core.as_points`; `z_pred` and `S` are the tracker's own
    predictions, in which a singular or non-finite S is such a row, not an
    error. Other shapes raise `ValidationError`.
    """
    dets = as_points(detections)
    z, S = np.asarray(z_pred, dtype=float), np.asarray(S, dtype=float)
    if not (z.ndim in (2, 3) and 0 < z.shape[1] and z.shape[-1] == 3
            and S.shape == z.shape + (3,)):
        raise ValidationError(
            f"gate needs z_pred (T, 3) or (T, K, 3) and S of its shape + "
            f"(3,), got {z.shape}, {S.shape}")
    if z.ndim == 2:
        z, S = z[:, None], S[:, None]
    inn = innovation(z, _sym(S), dets)
    d2, loglik, notes = inn.d2[:, 0], inn.loglik[:, 0], []
    if inn.ok is not None:
        bad = ~inn.ok[:, 0]
        notes = [f"track {i}: singular S (slogdet sign {inn.sign[i, 0]:g}, "
                 f"logdet {inn.logdet[i, 0]:.3e}); row infeasible"
                 for i in np.flatnonzero(bad).tolist()]
        d2[bad] = np.inf
        loglik[bad] = -np.inf
    return GateResult(d2=d2, feasible=d2 <= params.gamma, loglik=loglik,
                      notes=notes, rest=Innovation._make(
                          a if a is None else a[:, 1:] for a in inn))


def build_cost(detections: np.ndarray, gate_result: GateResult,
               anchor: np.ndarray, anchor_t: np.ndarray, velocity: np.ndarray,
               weights: tuple[float, float, float],
               t_now: float) -> np.ndarray:
    """Cost = w_m * d2 + w_a * identity-anchor + w_v * velocity penalty.

    Track i's anchor is its last confident detection, `anchor[i]` at time
    `anchor_t[i]`, both NaN without one; its anchor and velocity terms then
    vanish. Infeasible pairs get the sentinel cost. The pairs are costed
    on Python floats, each norm summing its squares in np.linalg.norm's
    order, (x*x + y*y) + z*z: that is faster than array operations for the
    few pairs a frame has, and at any size it costs about as much as the
    `hungarian` solve that reads the result.
    """
    feasible = gate_result.feasible
    t, n = feasible.shape
    arrays = [np.asarray(a, dtype=float)
              for a in (detections, anchor, anchor_t, velocity)]
    want, got = ((n, 3), (t, 3), (t,), (t, 3)), tuple(a.shape for a in arrays)
    if got != want:
        raise ValidationError(f"build_cost needs detections, anchors, anchor "
                              f"times and velocities {want}, got {got}")
    dets, anchor, anchor_t, velocity = (a.tolist() for a in arrays)
    w_m, w_a, w_v = weights
    cost = []
    for ok_row, d2_row, (ax, ay, az), a_t, (vx, vy, vz) in zip(
            feasible.tolist(), gate_result.d2.tolist(), anchor, anchor_t,
            velocity):
        has = not math.isnan(a_t)
        lag = t_now - a_t
        moving = lag > 0                                # False where NaN
        row = []
        for (x, y, z), ok, d in zip(dets, ok_row, d2_row):
            if not ok:
                row.append(SENTINEL_COST)
                continue
            dx, dy, dz = x - ax, y - ay, z - az
            c = w_m * d + (w_a * math.sqrt((dx * dx + dy * dy) + dz * dz)
                           if has else 0.0)
            if moving:
                ix, iy, iz = dx / lag - vx, dy / lag - vy, dz / lag - vz
                c += w_v * math.sqrt((ix * ix + iy * iy) + iz * iz)
            row.append(min(c, SENTINEL_COST - 1.0))
        cost.append(row)
    return np.array(cost, dtype=float).reshape(feasible.shape)


def _assign(cost: list[list[float]]) -> list[int]:
    """The column of each row in a minimum-cost assignment of the n x m
    matrix `cost` (n row sequences), n <= m.

    A port of scipy's rectangular_lsap.cpp (D. F. Crouse, "On implementing
    2D rectangular assignment algorithms", IEEE TAES 2016): one shortest
    augmenting path per row over the reduced costs, the same floating-point
    operations in the same order and the same tie rules, so it picks the
    columns scipy picks.
    """
    n, m = len(cost), len(cost[0])
    u, v = [0.0] * n, [0.0] * m
    path, col4row, row4col = [-1] * m, [-1] * n, [-1] * m
    for cur in range(n):
        # reverse order makes a constant matrix's solution the identity
        remaining = list(range(m - 1, -1, -1))
        short = [math.inf] * m
        seen_rows, seen_cols = [False] * n, [False] * m
        min_val, i, sink = 0.0, cur, -1
        while sink < 0:
            seen_rows[i] = True
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < short[j]:
                    path[j], short[j] = i, r
                # among equal lows, prefer a column that ends the path
                if short[j] < lowest or (short[j] == lowest
                                         and row4col[j] < 0):
                    index, lowest = it, short[j]
            min_val = lowest
            if min_val == math.inf:
                raise NumericalError(
                    "assignment costs overflow: no finite augmenting path")
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then flip the path's assignments
        u[cur] += min_val
        for i in range(n):
            if seen_rows[i] and i != cur:
                u[i] += min_val - short[col4row[i]]
        for j in range(m):
            if seen_cols[j]:
                v[j] -= min_val - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost one-to-one assignment.

    Returns `assigned`, one entry per row: the column given to that row, or
    -1 where the row is left over or its only pair is at the sentinel cost.
    """
    cost = number_array("cost", cost)
    if cost.ndim != 2:
        raise ValidationError(f"cost must be a matrix, got shape {cost.shape}")
    n, m = cost.shape
    rows = cost.tolist()
    assigned = [-1] * n
    if n and m:
        if n <= m:
            pairs = enumerate(_assign(rows))
        else:  # solved on the transpose, one row per column
            pairs = ((i, j) for j, i in enumerate(_assign(
                list(zip(*rows)))))
        for i, j in pairs:
            if rows[i][j] < SENTINEL_COST - 0.5:
                assigned[i] = j
    return np.array(assigned, dtype=int)


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


class AssociationComplexityError(RuntimeError):
    """Joint-event enumeration exceeded the configured cap."""


def jpda(gate_result: GateResult, params: JpdaParams) -> np.ndarray:
    """Marginal association probabilities by joint-event enumeration.

    They depend only on which pairs pass the gate and on their likelihoods,
    so the gate is all this reads. Returns beta of shape (n_tracks,
    n_dets + 1); column 0 is the missed-detection probability beta_{i,0}.
    Event weights whose total overflows raise `NumericalError`.
    """
    n, m = gate_result.feasible.shape
    if n == 0:
        return np.zeros((0, m + 1))
    # Per-pair event weight relative to the clutter hypothesis:
    # assigned -> Pd * Lambda_ij / lambda_c, missed -> (1 - Pd), formed and
    # read on Python floats: a frame has few pairs, and the enumeration
    # below is Python anyway. An exp beyond the float range is inf.
    pd, lambda_c = params.Pd, params.lambda_c
    w_pair = [[pd * _exp(v) / lambda_c if ok else 0.0
               for ok, v in zip(ok_row, ll_row)]
              for ok_row, ll_row in zip(gate_result.feasible.tolist(),
                                        gate_result.loglik.tolist())]
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
            if not used[j]:
                used[j] = True
                choice[i] = j + 1
                recurse(i + 1, weight * w_pair[i][j])
                used[j] = False

    recurse(0, 1.0)
    # Python floats overflow to inf without a warning, and inf * 0 is NaN
    if not math.isfinite(total):
        raise NumericalError(
            f"JPDA joint-event weights are not finite (total {total})")
    if total <= 0.0:
        beta = np.zeros((n, m + 1))
        beta[:, 0] = 1.0
        return beta
    rows = []
    for row in acc:
        r = [v / total for v in row[1:]]
        # beta0 is the rest of 1, so each row sums to 1 up to rounding
        rows.append([min(max(v, 0.0), 1.0) for v in [1.0 - sum(r)] + r])
    return np.array(rows)
