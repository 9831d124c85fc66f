"""Constant-velocity Kalman sub-filters and the IMM cycle, batched over tracks.

State is 6-dimensional [position, velocity] in the global frame; the
measurement is position only. The IMM runs three constant-velocity models
that differ only in process-noise intensity (hover / cruise / evasive).

The model banks of T tracks are one set of arrays, x (T, M, 6),
P (T, M, 6, 6) and mu (T, M), and each IMM stage is one batched operation
over all tracks and models. JPDA runs the PDA update `imm_correct_pda`,
Hungarian its one-hot case `imm_correct`, the IMM Kalman correction. All
functions return new banks and leave their inputs unchanged. An overflow
inside a stage surfaces as a `NumericalError` from the result check;
callers that do not want numpy's warnings as well run the stages under
`np.errstate`, as `Tracker.step` does.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import NumericalError, ValidationError, as_points, number_array

_LOG_2PI3 = 3 * float(np.log(2.0 * np.pi))
_TINY = sys.float_info.min   # smallest normal float
_I3 = np.eye(3)
_I6 = np.eye(6)


def _sym(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.swapaxes(-1, -2))


def _moments(w: np.ndarray, x: np.ndarray, P: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched means and covariances of mixtures of each track's models.

    `w` (T, J, M) holds J sets of mixture weights over the M models of each
    of T tracks; `x` is (T, M, k) and `P` (T, M, k, k). Returns (T, J, k)
    and (T, J, k, k). The covariances are left unsymmetrised; every caller
    symmetrises them later.
    """
    t, m, k = x.shape
    xm = w @ x
    d = x[:, None] - xm[:, :, None]                     # (T, J, M, k)
    Pm = (w @ P.reshape(t, m, k * k)).reshape(xm.shape + (k,))
    return xm, Pm + (d * w[..., None]).swapaxes(-1, -2) @ d


class IMMState:
    """Model banks of T tracks: x (T, M, 6), P (T, M, 6, 6), mu (T, M).

    Row i of every array belongs to track i. A bank built from outside
    arrays is validated and symmetrised once, here. `fused_x` (T, 6) is
    each track's moment-matched fused mean; `fused_P` (T, 6, 6), the fused
    covariance, is computed on each read. Banks are treated as immutable
    values.
    """

    __slots__ = ("x", "P", "mu", "fused_x")

    def __init__(self, x, P, mu):
        x = np.asarray(x, dtype=float)
        P = np.asarray(P, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if mu.ndim != 2 or x.shape != mu.shape + (6,) \
                or P.shape != mu.shape + (6, 6):
            raise ValidationError("model banks must be x (T, M, 6), "
                                  "P (T, M, 6, 6) and mu (T, M)")
        # each test is written so that NaN fails it
        if not (np.minimum.reduce(mu, axis=None, initial=0.0) >= -1e-12
                and np.maximum.reduce(np.abs(np.add.reduce(mu, 1) - 1.0),
                                      initial=0.0) <= 1e-9):
            raise ValidationError("model probabilities must be a distribution")
        # summing propagates NaN/inf, so this is a cheap finiteness check
        if not np.isfinite(np.add.reduce(x, None) + np.add.reduce(P, None)):
            raise ValidationError("non-finite filter state")
        mu = np.maximum(mu, 0.0)
        self.x, self.P, self.mu = x, _sym(P), mu
        self.fused_x = (mu[:, None] @ x)[:, 0]

    @classmethod
    def _of(cls, x: np.ndarray, P: np.ndarray, mu: np.ndarray,
            fused_x: np.ndarray) -> IMMState:
        """A bank from C-contiguous arrays of a valid bank, unchecked: P
        symmetric and `fused_x` = mu x per track."""
        s = object.__new__(cls)
        s.x, s.P, s.mu, s.fused_x = x, P, mu, fused_x
        return s

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.x, self.P, self.mu, self.fused_x

    @property
    def fused_P(self) -> np.ndarray:
        return _sym(_moments(self.mu[:, None], self.x, self.P)[1][:, 0])

    def measurement_stack(self, R: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Predicted measurements z (T, 1 + M, 3) and innovation
        covariances S (T, 1 + M, 3, 3) of every track: row 0 from the fused
        position moments, row 1 + m from model m. The tracker gates on row 0
        and updates each model from its row, all from one `innovation`."""
        xp, Pp = self.x[..., :3], self.P[..., :3, :3]
        z, S = _moments(self.mu[:, None], xp, Pp)
        return (np.concatenate((z, xp), axis=1),
                np.concatenate((S, Pp), axis=1) + R)

    def __len__(self) -> int:
        return len(self.mu)

    def rows(self, idx) -> IMMState:
        """The banks of rows `idx`, a list of row indices, in that order;
        this bank itself when `idx` is every row in order."""
        if idx == list(range(len(self))):
            return self
        # take copies the rows as indexing does, with less per-call overhead
        return IMMState._of(*(a.take(idx, axis=0) for a in self._arrays()))

    def append(self, *others: IMMState) -> IMMState:
        """This bank followed by the rows of each of `others`."""
        return IMMState._of(*(np.concatenate(arrays) for arrays in zip(
            self._arrays(), *(o._arrays() for o in others))))


def _stepped(x: np.ndarray, P: np.ndarray, mu: np.ndarray) -> IMMState:
    """Banks computed by a filter step from valid banks.

    The step's inputs were validated, so a non-finite result (after an
    overflow, say) is a numeric failure. Every step forms mu as
    non-negative weights divided by their sum, so a finite mu is a
    distribution and this one finiteness check covers x, P and mu.
    """
    if not math.isfinite(np.add.reduce(x, None) + np.add.reduce(P, None)
                         + np.add.reduce(mu, None)):
        raise NumericalError("filter step failed: non-finite filter state")
    return IMMState._of(x, _sym(P), mu, (mu[:, None] @ x)[:, 0])


@dataclass(frozen=True)
class FilterConfig:
    q_levels: tuple[float, ...] = (0.5, 2.0, 8.0)   # process noise intensities (m/s^2)
    Pi: np.ndarray = field(default_factory=lambda: np.array(
        [[0.95, 0.025, 0.025],
         [0.025, 0.95, 0.025],
         [0.025, 0.025, 0.95]]))
    R: np.ndarray = field(default_factory=lambda: 0.01 * np.eye(3))
    P0: np.ndarray = field(default_factory=lambda: np.diag(
        [0.25, 0.25, 0.25, 9.0, 9.0, 9.0]))
    mu0: np.ndarray | None = None

    def __post_init__(self):
        q = number_array("q_levels", self.q_levels)
        if not (q.ndim == 1 and len(q) > 0 and (q >= 0).all()):
            raise ValidationError("q_levels must be one or more finite "
                                  "numbers >= 0")
        Pi = number_array("Pi", self.Pi)
        m = len(q)
        if Pi.shape != (m, m):
            raise ValidationError("Pi must be square, one row per model")
        if not (np.all(Pi >= 0)
                and np.all(np.abs(Pi.sum(axis=1) - 1.0) <= 1e-12)):
            raise ValidationError("Pi rows must sum to 1 with entries >= 0")
        R = number_array("R", self.R)
        if R.shape == (3, 3):
            R = _sym(R)         # which can overflow: tested before eigvalsh
        if not (R.shape == (3, 3) and np.isfinite(R).all()
                and np.linalg.eigvalsh(R).min() > 0):
            raise ValidationError("R must be a finite symmetric positive "
                                  "definite 3x3 matrix")
        mu0 = number_array("mu0", np.full(m, 1.0 / m) if self.mu0 is None
                           else self.mu0)
        if not (mu0.shape == (m,) and abs(mu0.sum() - 1.0) <= 1e-9
                and np.all(mu0 >= 0)):
            raise ValidationError("mu0 must be a distribution over models")
        P0 = number_array("P0", self.P0)
        # imm_init builds banks from the stored, symmetrised P0 unchecked
        if P0.shape != (6, 6) or not np.allclose(P0, P0.T) \
                or not np.isfinite(_sym(P0)).all():
            raise ValidationError("P0 must be a finite symmetric 6x6 matrix")
        w = np.linalg.eigvalsh(P0)  # ascending
        if w[0] < -1e-12 * w[-1]:
            raise ValidationError("P0 must be positive semi-definite")
        object.__setattr__(self, "q_levels", tuple(q.tolist()))
        object.__setattr__(self, "Pi", Pi)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "P0", _sym(P0))
        object.__setattr__(self, "mu0", mu0)

    @property
    def n_models(self) -> int:
        return len(self.q_levels)


@functools.lru_cache(maxsize=32)
def _f_and_q(dt: float, q_levels: tuple[float, ...]
             ) -> tuple[np.ndarray, np.ndarray]:
    """F (6, 6) and Q = q^2 G G' (M, 6, 6) of each q in `q_levels` for
    G = [dt^2/2 I; dt I]. Cached on the exact (dt, q_levels), so the
    arrays are read-only."""
    h = 0.5 * dt * dt
    F = _I6 + dt * np.eye(6, k=3)
    Q = np.square(q_levels)[:, None, None] \
        * np.kron([[h * h, h * dt], [h * dt, dt * dt]], _I3)
    F.flags.writeable = Q.flags.writeable = False
    return F, Q


def imm_mix(s: IMMState, cfg: FilterConfig
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interaction step: mixed initial conditions and predicted mu.

    Returns (x (T, M, 6), P (T, M, 6, 6), mu_pred (T, M)). A model whose
    predicted probability is zero gets uniform mixing weights.
    """
    m = cfg.n_models
    mu_pred = s.mu @ cfg.Pi
    # w[t, j, i] = Pi[i, j] * mu[t, i] / mu_pred[t, j]
    mp = mu_pred[:, :, None]
    w = np.divide(cfg.Pi.T * s.mu[:, None, :], mp,
                  out=np.full((len(s), m, m), 1.0 / m), where=mp > 0.0)
    x, P = _moments(w, s.x, s.P)
    return x, P, mu_pred


def imm_init(positions, cfg: FilterConfig) -> IMMState:
    """Fresh banks at measured positions (T, 3), with zero velocity."""
    pos = as_points(positions)
    t, m = len(pos), cfg.n_models
    x = np.zeros((t, m, 6))
    x[:, :, :3] = pos[:, None]
    mu = np.tile(cfg.mu0, (t, 1))
    return IMMState._of(x, np.tile(cfg.P0, (t, m, 1, 1)), mu,
                        (mu[:, None] @ x)[:, 0])


def imm_predict(s: IMMState, dt: float, cfg: FilterConfig) -> IMMState:
    """Mix and time-update every model of every track; mu becomes the
    predicted mu. F and Q are built once per distinct dt and q_levels."""
    dt = float(dt)                  # the cache key: exact for a real scalar
    if not 0.0 < dt < math.inf:
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    x, P, mu_pred = imm_mix(s, cfg)
    F, Q = _f_and_q(dt, cfg.q_levels)
    return _stepped(x @ F.T, F @ P @ F.T + Q,
                    mu_pred / np.add.reduce(mu_pred, 1, keepdims=True))


class Innovation(NamedTuple):
    """Innovation terms of detections (n, 3) against predicted measurements
    with covariances S, over any leading shape (...)."""

    sign: np.ndarray        # (...) slogdet sign of S
    logdet: np.ndarray      # (...) log-determinant of S
    ok: np.ndarray          # (...) S positive definite
    Sinv: np.ndarray        # (..., 3, 3) inverse of S, or I where not ok
    y: np.ndarray           # (..., n, 3) residuals
    d2: np.ndarray          # (..., n) squared Mahalanobis distances
    loglik: np.ndarray      # (..., n) log N(y; 0, S)


def innovation(z: np.ndarray, S: np.ndarray, dets: np.ndarray) -> Innovation:
    """Innovation terms of `dets` (n, 3) against predictions `z` (..., 3)
    with covariances `S` (..., 3, 3), in one slogdet and one inverse.

    An S that is not positive definite (slogdet sign <= 0, or a non-finite
    log-determinant) is swapped for I before the stacked inverse, so it
    cannot make the inverse fail; its terms are for the caller to discard.
    """
    sign, logdet = np.linalg.slogdet(S)
    ok = (sign > 0) & np.isfinite(logdet)
    if not ok.all():
        S = np.where(ok[..., None, None], S, _I3)
    Sinv = np.linalg.inv(S)
    y = dets - z[..., None, :]
    d2 = np.add.reduce((y @ Sinv) * y, -1)
    return Innovation(sign, logdet, ok, Sinv, y, d2,
                      -0.5 * (_LOG_2PI3 + logdet[..., None] + d2))


def imm_correct_pda(pred: IMMState, dets, beta, cfg: FilterConfig
                    ) -> IMMState:
    """PDA measurement update of every model of every track.

    Row t of `beta` (T, n + 1) is track t's miss probability beta0 followed
    by one association probability per row of `dets` (n, 3); its entries
    lie in [0, 1] and sum to 1. A track with beta0 >= 1 - 1e-12 keeps its
    predicted bank exactly. Each other track's models take the combined
    innovation and the PDA covariance beta0 * P_pred + (1 - beta0) * P_upd
    + the spread of the innovations. Model probabilities are reweighted by
    each model's beta-weighted detection likelihood, normalised over the
    models; the miss mass is uninformative across models. The weights are
    formed in one pass in linear space, each track's terms shifted by its
    largest; a track whose weight total then falls below the smallest
    normal float takes the log-space form, in which a likelihood that
    underflows still ranks the models. Above that bound, each weight's
    rounding is below 1e-15 of the total.
    """
    dets = as_points(dets)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (len(pred), len(dets) + 1) or not (
            np.abs(np.add.reduce(beta, 1) - 1.0) <= 1e-9).all():
        raise ValidationError(
            "beta must hold one row per track: one miss plus one entry per "
            "detection, summing to 1")
    if not ((beta >= 0.0) & (beta <= 1.0)).all():
        raise ValidationError("beta entries must lie in [0, 1]")
    return _pda_update(pred, dets, beta, cfg)


def _log_space_weights(mu: np.ndarray, b0, a: np.ndarray) -> np.ndarray:
    """Model weights of tracks with model probabilities `mu` (T, M), miss
    probabilities `b0` (T, 1) or 0 and b-weighted detection log-terms `a`
    (T, M, n), formed in log space."""
    # log-sum-exp over the detections (exactly a itself for one
    # detection), each model's terms shifted by its largest, or by 0 when it
    # has none finite so that its log-likelihood is -inf, not NaN; then
    # normalised over the models
    loglik = np.maximum.reduce(a, axis=2)
    with np.errstate(divide="ignore"):              # log(0) = -inf is intended
        log_mu = np.log(mu)
        log_b0 = np.log(b0)
        if a.shape[2] > 1:
            top = np.where(loglik > -math.inf, loglik, 0.0)
            loglik = top + np.log(np.add.reduce(np.exp(a - top[..., None]), 2))
    top = np.maximum.reduce(loglik, axis=1)[:, None]
    loglik -= top + np.log(np.add.reduce(np.exp(loglik - top), 1))[:, None]
    log_w = log_mu + np.logaddexp(log_b0, np.log(1.0 - b0) + loglik)
    mu = np.exp(log_w - np.maximum.reduce(log_w, axis=1)[:, None])
    return mu / np.add.reduce(mu, 1)[:, None]


def _terms(pred: IMMState, dets: np.ndarray, cfg: FilterConfig,
           inn: Innovation | None, miss: list[bool]):
    """(inn, miss): the models' innovation terms, given or computed, and the
    miss rows as an array or None if none; both None if every row misses."""
    if inn is not None and inn.y.shape != (
            len(pred), cfg.n_models, len(dets), 3):
        raise ValidationError(
            f"innovation terms of shape {inn.y.shape[:3]} do not match "
            f"{len(pred)} tracks x {cfg.n_models} models x {len(dets)} "
            "detections")
    if all(miss):
        return None, None
    if inn is None:
        inn = innovation(pred.x[..., :3], pred.P[..., :3, :3] + cfg.R, dets)
    if not inn.ok.all():
        raise NumericalError(
            f"singular innovation covariance (slogdet signs {inn.sign})")
    return inn, np.array(miss) if any(miss) else None


def _corrected(pred: IMMState, miss: np.ndarray | None,
               b0: np.ndarray | None, a: np.ndarray, Sinv: np.ndarray,
               nu: np.ndarray, R: np.ndarray,
               spread: np.ndarray | None = None) -> IMMState:
    """The bank after each model's Kalman step, from miss probabilities
    `b0` (T, 1), None for 0, and b-weighted detection log-terms `a`
    (T, M, n). mu is w = mu (b0 sum_m L + (1 - b0) L) normalised, for L
    the sum over detections of exp(a), each track's a shifted by its
    largest; a track whose w total is below the smallest normal float takes
    the log-space form. x + K nu, and P the Joseph form
    J = (I - K H) P_pred (I - K H)' plus K R K', or for a `b0`
    b0 P_pred + (1 - b0) J + K M K' with M = (1 - b0) R + `spread`. Rows
    set in `miss` keep their predicted bank: their gain is zeroed, so x and
    P equal the predicted ones, and their a is read as 0, so that their
    discarded weights stay finite."""
    if miss is not None:
        np.copyto(a, 0.0, where=miss[:, None, None])
    L = np.add.reduce(np.exp(
        a - np.maximum.reduce(a, axis=(1, 2), keepdims=True)), 2)
    if b0 is None:
        w = pred.mu * L
    else:
        b0c = 1.0 - b0
        w = pred.mu * (b0 * np.add.reduce(L, 1, keepdims=True) + b0c * L)
    total = np.add.reduce(w, 1, keepdims=True)
    bad = [not _TINY <= v < math.inf for v, in total.tolist()]
    if any(bad):
        w[bad] = _log_space_weights(pred.mu[bad], 0.0 if b0 is None
                                    else b0[bad], a[bad])
        total[bad] = 1.0
    mu = w / total
    P3 = pred.P[..., :3]
    K = P3 @ Sinv                                   # (T, M, 6, 3)
    if miss is not None:
        np.copyto(K, 0.0, where=miss[:, None, None, None])
    Kt = K.swapaxes(-1, -2)
    # From blocks, for H = [I 0]: J = A - (A H') K' with C = K H P_pred and
    # A = P_pred - C, so J + K M K' = A - (A H' - K M) K'; the PDA's
    # b0 P_pred + (1 - b0) J scales C and A H' by 1 - b0
    C = K @ pred.P[..., :3, :]
    A3 = P3 - C[..., :3]                            # A H'
    if b0 is None:
        P = pred.P - C - (A3 - K @ R) @ Kt
    else:
        c = b0c[..., None, None]
        P = pred.P - c * C - (c * A3 - K @ (c * R + spread)) @ Kt
    x = pred.x + (nu[..., None, :] @ Kt)[..., 0, :]
    if miss is not None:
        np.copyto(mu, pred.mu, where=miss[:, None])
    return _stepped(x, P, mu)


def _pda_update(pred: IMMState, dets: np.ndarray, beta: np.ndarray,
                cfg: FilterConfig, inn: Innovation | None = None) -> IMMState:
    """`imm_correct_pda` of finite float dets and checked beta rows, with
    the models' innovation terms `inn` from the caller's gate, or None."""
    inn, miss = _terms(pred, dets, cfg, inn,
                       [b0 >= 1.0 - 1e-12 for b0 in beta[:, 0].tolist()])
    if inn is None:
        return pred
    b = beta[:, None, 1:]                           # (T, 1, n)
    y = inn.y                                       # (T, M, n, 3)
    # a[t, m, k] = log(b_tk N(y_tmk; 0, S_tm)); -inf where b_tk = 0
    with np.errstate(divide="ignore"):
        a = np.log(b) + inn.loglik
    yb = y * b[..., None]
    nu = np.add.reduce(yb, 2)                       # (T, M, 3) innovation
    # the innovations' spread, which takes the same K (.) K' as R
    spread = yb.swapaxes(-1, -2) @ y - nu[..., None] * nu[..., None, :]
    return _corrected(pred, miss, beta[:, :1], a, inn.Sinv, nu, cfg.R,
                      spread)


def imm_correct(pred: IMMState, dets, assigned, cfg: FilterConfig,
                inn: Innovation | None = None) -> IMMState:
    """Hungarian update: the IMM Kalman correction of track t by detection
    `dets[assigned[t]]`, or none for `assigned[t] = -1`. Each model takes
    its innovation's residual, the weight mu L / sum L of its likelihood L
    and the Joseph form plus K R K': `imm_correct_pda` with one-hot beta
    rows, whose other terms are exact zeros (tested bit for bit). `inn`,
    when given, holds each model's innovation terms from the caller's gate."""
    dets = as_points(dets)
    assigned = np.asarray(assigned)
    if assigned.shape != (len(pred),) or assigned.dtype.kind != "i" \
            or not ((assigned >= -1) & (assigned < len(dets))).all():
        raise ValidationError(
            "assigned must hold one detection index or -1 per track")
    hit = assigned.tolist()
    inn, miss = _terms(pred, dets, cfg, inn, [j < 0 for j in hit])
    if inn is None:
        return pred
    # a miss row reads the last detection's terms; its results are discarded
    idx = np.arange(len(hit)), slice(None), assigned
    return _corrected(pred, miss, None, inn.loglik[idx][..., None], inn.Sinv,
                      inn.y[idx], cfg.R)
