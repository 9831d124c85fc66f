"""Constant-velocity Kalman sub-filters and the IMM cycle, batched over tracks.

State is 6-dimensional [position, velocity] in the global frame; the
measurement is position only. The IMM runs three constant-velocity models
that differ only in process-noise intensity (hover / cruise / evasive).

The model banks of T tracks are one set of arrays, x (T, M, 6),
P (T, M, 6, 6) and mu (T, M), and each IMM stage is one batched operation
over all tracks and models. Hungarian and JPDA tracking share one
measurement update, `imm_correct_pda`. All functions return new banks and
leave their inputs unchanged. An overflow inside a stage surfaces as a
`NumericalError` from the result check; callers that do not want numpy's
warnings as well run the stages under `np.errstate`, as `Tracker.step` does.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import NumericalError, ValidationError, as_points

_LOG_2PI = float(np.log(2.0 * np.pi))
_I6 = np.eye(6)
_H = np.eye(3, 6)            # position-only measurement matrix
_FV = np.eye(6, k=3)         # velocity-to-position block of F
# position, cross and velocity blocks of G G'
_PP = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
_PV = np.eye(6, k=3) + np.eye(6, k=-3)
_VV = np.diag([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


def _sym(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.swapaxes(-1, -2))


def _moments(w: np.ndarray, x: np.ndarray, P: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched means and covariances of mixtures of each track's models.

    `w` (T, J, M) holds J sets of mixture weights over the M models of each
    of T tracks; `x` is (T, M, 6) and `P` (T, M, 6, 6). Returns (T, J, 6)
    and (T, J, 6, 6). The covariances are left unsymmetrised; every caller
    symmetrises them later.
    """
    t, m = x.shape[:2]
    xm = w @ x
    d = x[:, None] - xm[:, :, None]                     # (T, J, M, 6)
    Pm = (w @ P.reshape(t, m, 36)).reshape(xm.shape + (6,))
    return xm, Pm + (d * w[..., None]).swapaxes(-1, -2) @ d


class IMMState:
    """Model banks of T tracks: x (T, M, 6), P (T, M, 6, 6), mu (T, M).

    Row i of every array belongs to track i. A bank built from outside
    arrays is validated and symmetrised once, here; `fused_x` (T, 6) and
    `fused_P` (T, 6, 6) are each track's moment-matched fusion. Banks are
    treated as immutable values.
    """

    __slots__ = ("x", "P", "mu", "fused_x", "fused_P")

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
        self._fuse(x, P, np.maximum(mu, 0.0))

    def _fuse(self, x: np.ndarray, P: np.ndarray, mu: np.ndarray) -> None:
        """Set the bank from checked arrays: symmetrise P and fuse."""
        P = _sym(P)
        fx, fP = _moments(mu[:, None], x, P)
        self._set(x, P, mu, fx[:, 0], _sym(fP[:, 0]))

    def _set(self, *arrays: np.ndarray) -> None:
        for name, a in zip(self.__slots__, arrays):
            setattr(self, name, a)

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.x, self.P, self.mu, self.fused_x, self.fused_P

    @classmethod
    def _of(cls, arrays) -> IMMState:
        """A bank from the five arrays of valid banks, not checked again."""
        s = object.__new__(cls)
        s._set(*arrays)
        return s

    def __len__(self) -> int:
        return len(self.mu)

    def rows(self, idx) -> IMMState:
        """The banks of rows `idx`, a list of row indices, in that order;
        this bank itself when `idx` is every row in order."""
        if idx == list(range(len(self))):
            return self
        # take copies the rows as indexing does, with less per-call overhead
        return IMMState._of(a.take(idx, axis=0) for a in self._arrays())

    def append(self, *others: IMMState) -> IMMState:
        """This bank followed by the rows of each of `others`."""
        return IMMState._of(np.concatenate(arrays) for arrays in zip(
            self._arrays(), *(o._arrays() for o in others)))


def _stepped(x: np.ndarray, P: np.ndarray, mu: np.ndarray) -> IMMState:
    """Banks computed by a filter step from valid banks.

    The step's inputs were validated, so a non-finite result (after an
    overflow, say) is a numeric failure. Every step forms mu as
    non-negative weights divided by their sum, so a finite mu is a
    distribution and this one finiteness check covers x, P and mu.
    """
    if not np.isfinite(np.add.reduce(x, None) + np.add.reduce(P, None)
                       + np.add.reduce(mu, None)):
        raise NumericalError("filter step failed: non-finite filter state")
    s = object.__new__(IMMState)
    s._fuse(x, P, mu)
    return s


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
        if not (len(self.q_levels) > 0 and all(
                isinstance(q, (int, float)) and not isinstance(q, bool)
                and 0.0 <= q < np.inf for q in self.q_levels)):
            raise ValidationError("q_levels must be one or more finite "
                                  "numbers >= 0")
        Pi = np.asarray(self.Pi, dtype=float)
        m = len(self.q_levels)
        if Pi.shape != (m, m):
            raise ValidationError("Pi must be square, one row per model")
        # each test is written so that NaN fails it
        if not (np.all(Pi >= 0)
                and np.all(np.abs(Pi.sum(axis=1) - 1.0) <= 1e-12)):
            raise ValidationError("Pi rows must sum to 1 with entries >= 0")
        R = _sym(np.asarray(self.R, dtype=float))
        if not (R.shape == (3, 3) and np.isfinite(R).all()
                and np.linalg.eigvalsh(R).min() > 0):
            raise ValidationError("R must be a finite symmetric positive "
                                  "definite 3x3 matrix")
        mu0 = self.mu0
        if mu0 is None:
            mu0 = np.full(m, 1.0 / m)
        mu0 = np.asarray(mu0, dtype=float)
        if not (len(mu0) == m and abs(mu0.sum() - 1.0) <= 1e-9
                and np.all(mu0 >= 0)):
            raise ValidationError("mu0 must be a distribution over models")
        P0 = np.asarray(self.P0, dtype=float)
        if P0.shape != (6, 6) or not (np.isfinite(P0).all()
                                      and np.allclose(P0, P0.T)):
            raise ValidationError("P0 must be a finite symmetric 6x6 matrix")
        w = np.linalg.eigvalsh(P0)  # ascending
        if w[0] < -1e-12 * w[-1]:
            raise ValidationError("P0 must be positive semi-definite")
        object.__setattr__(self, "Pi", Pi)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "P0", _sym(P0))
        object.__setattr__(self, "mu0", mu0)

    @property
    def n_models(self) -> int:
        return len(self.q_levels)


def transition_matrix(dt: float) -> np.ndarray:
    return _I6 + dt * _FV


def process_noise(dt: float, q: float) -> np.ndarray:
    """(q^2) G G' for G = [dt^2/2 I; dt I], from its three blocks."""
    h = 0.5 * dt * dt
    return (q * q) * (h * h * _PP + h * dt * _PV + dt * dt * _VV)


def imm_mix(s: IMMState, cfg: FilterConfig
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interaction step: mixed initial conditions and predicted mu.

    Returns (x (T, M, 6), P (T, M, 6, 6), mu_pred (T, M)). A model whose
    predicted probability is zero gets uniform mixing weights.
    """
    m = cfg.n_models
    mu_pred = s.mu @ cfg.Pi
    # w[t, j, i] = Pi[i, j] * mu[t, i] / mu_pred[t, j]
    w = np.divide(cfg.Pi.T * s.mu[:, None, :], mu_pred[:, :, None],
                  out=np.full((len(s), m, m), 1.0 / m),
                  where=mu_pred[:, :, None] > 0.0)
    x, P = _moments(w, s.x, s.P)
    return x, P, mu_pred


def imm_init(positions, cfg: FilterConfig) -> IMMState:
    """Fresh banks at measured positions (T, 3), with zero velocity."""
    pos = as_points(positions)
    t, m = len(pos), cfg.n_models
    x = np.zeros((t, m, 6))
    x[:, :, :3] = pos[:, None]
    return IMMState(x=x, P=np.broadcast_to(cfg.P0, (t, m, 6, 6)),
                    mu=np.broadcast_to(cfg.mu0, (t, m)))


def imm_predict(s: IMMState, dt: float, cfg: FilterConfig) -> IMMState:
    """Mix and time-update every model of every track; mu becomes the
    predicted mu. F and Q are built once per call for all tracks."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    x, P, mu_pred = imm_mix(s, cfg)
    F = transition_matrix(dt)
    Q = np.square(cfg.q_levels)[:, None, None] * process_noise(dt, 1.0)
    return _stepped(x @ F.T, F @ P @ F.T + Q,
                    mu_pred / np.add.reduce(mu_pred, 1)[:, None])


def imm_correct_pda(pred: IMMState, dets, beta, cfg: FilterConfig
                    ) -> IMMState:
    """PDA measurement update of every model of every track.

    Row t of `beta` (T, n + 1) is track t's miss probability beta0 followed
    by one association probability per row of `dets` (n, 3), and sums to 1.
    A track with beta0 >= 1 - 1e-12 keeps its predicted bank exactly. Each
    other track's models take the combined innovation and the PDA covariance
    beta0 * P_pred + (1 - beta0) * P_upd + the spread of the innovations.
    Model probabilities are reweighted by each model's beta-weighted
    detection likelihood, normalised over the models; the miss mass is
    uninformative across models. The weights are formed in log space, so a
    likelihood that underflows in linear space still ranks the models.
    """
    dets = as_points(dets)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (len(pred), len(dets) + 1) or not (
            np.abs(np.add.reduce(beta, 1) - 1.0) <= 1e-9).all():
        raise ValidationError(
            "beta must hold one row per track: one miss plus one entry per "
            "detection, summing to 1")
    miss = beta[:, 0] >= 1.0 - 1e-12
    if miss.all():
        return pred
    mixed = miss.any()
    if mixed:
        # a hit row stands in for the misses; their results are discarded
        beta = np.where(miss[:, None], beta[miss.argmin()], beta)
    with np.errstate(divide="ignore"):              # log(0) = -inf is intended
        log_beta = np.log(beta)[:, None]            # (T, 1, n + 1)
        log_mu = np.log(pred.mu)
    b0 = beta[:, 0, None]                           # (T, 1)
    b = beta[:, None, 1:]                           # (T, 1, n)
    S = pred.P[..., :3, :3] + cfg.R                 # (T, M, 3, 3)
    sign, logdet = np.linalg.slogdet(S)
    if (sign <= 0).any():
        raise NumericalError(
            f"singular innovation covariance (slogdet signs {sign})")
    Sinv = np.linalg.inv(S)
    y = dets - pred.x[..., None, :3]                # (T, M, n, 3)
    quad = np.einsum("tmki,tmij,tmkj->tmk", y, Sinv, y)
    # a[t, m, k] = log(b_tk N(y_tmk; 0, S_tm)); -inf where b_tk = 0
    a = log_beta[..., 1:] - 0.5 * ((3 * _LOG_2PI + logdet)[..., None] + quad)
    # log-sum-exp over the detections (exactly a itself for one
    # detection), then normalised over the models
    loglik = top = np.maximum.reduce(a, axis=2)
    if a.shape[2] > 1:
        loglik = top + np.log(np.add.reduce(np.exp(a - top[..., None]), 2))
    top = np.maximum.reduce(loglik, axis=1)[:, None]
    loglik -= top + np.log(np.add.reduce(np.exp(loglik - top), 1))[:, None]
    log_w = log_mu + np.logaddexp(log_beta[:, :, 0],
                                  np.log(1.0 - b0) + loglik)
    mu = np.exp(log_w - np.maximum.reduce(log_w, axis=1)[:, None])

    nu = (b[:, :, None] @ y)[..., 0, :]             # (T, M, 3) innovation
    K = pred.P[..., :3] @ Sinv                      # (T, M, 6, 3)
    IKH = _I6 - K @ _H
    # The Joseph-form P_upd's K R K' and the spread share one K (.) K'.
    spread = (y.swapaxes(-1, -2) * b[..., None, :]) @ y \
        - nu[..., None] * nu[..., None, :]
    w0 = b0[..., None, None]
    joseph = IKH @ pred.P @ IKH.swapaxes(-1, -2)
    P = joseph + w0 * (pred.P - joseph) \
        + K @ ((1.0 - w0) * cfg.R + spread) @ K.swapaxes(-1, -2)
    x = pred.x + (K @ nu[..., None])[..., 0]
    mu /= np.add.reduce(mu, 1)[:, None]
    if mixed:
        x = np.where(miss[:, None, None], pred.x, x)
        P = np.where(miss[:, None, None, None], pred.P, P)
        mu = np.where(miss[:, None], pred.mu, mu)
    return _stepped(x, P, mu)


def imm_correct(pred: IMMState, dets, assigned, cfg: FilterConfig
                ) -> IMMState:
    """Hungarian update: track t takes detection `dets[assigned[t]]` with
    certainty, and a track with `assigned[t] = -1` keeps its predicted bank.
    This is `imm_correct_pda` with one-hot beta rows."""
    dets = as_points(dets)
    assigned = np.asarray(assigned)
    if assigned.shape != (len(pred),) or assigned.dtype.kind != "i" \
            or not ((assigned >= -1) & (assigned < len(dets))).all():
        raise ValidationError(
            "assigned must hold one detection index or -1 per track")
    beta = np.zeros((len(assigned), len(dets) + 1))
    beta[np.arange(len(assigned)), assigned + 1] = 1.0
    return imm_correct_pda(pred, dets, beta, cfg)
