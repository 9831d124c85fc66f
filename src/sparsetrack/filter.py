"""Constant-velocity Kalman sub-filters and the IMM cycle.

State is 6-dimensional [position, velocity] in the global frame; the
measurement is position only. The IMM runs three constant-velocity models
that differ only in process-noise intensity (hover / cruise / evasive).

The model bank is held as arrays, x (M, 6), P (M, 6, 6) and mu (M,), and
each IMM stage is one batched operation over the models. Hungarian and JPDA
tracking share one measurement update, `imm_correct_pda`. `KState`,
`kf_predict` and `kf_update` are the single Kalman filter that the IMM
reduces to with one model, kept as its reference. All functions return new
states and leave their inputs unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import NumericalError, ValidationError, as_point, as_points

_LOG_2PI = float(np.log(2.0 * np.pi))
_I6 = np.eye(6)
_H = np.eye(3, 6)            # position-only measurement matrix
_HIT = np.array([0.0, 1.0])  # beta row of one certain detection


def _sym(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.swapaxes(-1, -2))


@dataclass(frozen=True)
class KState:
    """Gaussian state: mean (6,) and covariance (6, 6)."""

    x: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).reshape(6)
        P = np.asarray(self.P, dtype=float).reshape(6, 6)
        # summing propagates NaN/inf, so this is a cheap finiteness check
        if not np.isfinite(x.sum() + P.sum()):
            raise ValidationError("non-finite filter state")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "P", _sym(P))

    @property
    def position(self) -> np.ndarray:
        return self.x[:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.x[3:]


def _moments(w: np.ndarray, x: np.ndarray, P: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched mean and covariance of a mixture of the M models.

    `w` holds mixture weights over the models: shape (M,) for one Gaussian,
    (J, M) for J of them. `x` is (M, 6) and `P` is (M, 6, 6). The
    covariance is left unsymmetrised; every caller symmetrises it later.
    """
    xm = w @ x
    d = x - xm[..., None, :]
    Pm = (w @ P.reshape(len(x), 36)).reshape(xm.shape[:-1] + (6, 6))
    return xm, Pm + (d * w[..., None]).swapaxes(-1, -2) @ d


@dataclass(frozen=True)
class IMMState:
    """Model bank x (M, 6), P (M, 6, 6) with probabilities mu (M,).

    The bank is validated and symmetrised once, here; `fused` is its
    moment-matched fusion.
    """

    x: np.ndarray
    P: np.ndarray
    mu: np.ndarray
    fused: KState = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        P = np.asarray(self.P, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        m = len(mu) if mu.ndim == 1 else -1
        if x.shape != (m, 6) or P.shape != (m, 6, 6):
            raise ValidationError(
                "model bank must be x (M, 6), P (M, 6, 6) and mu (M,)")
        if (mu < -1e-12).any() or abs(mu.sum() - 1.0) > 1e-9:
            raise ValidationError("model probabilities must be a distribution")
        if not np.isfinite(x.sum() + P.sum()):
            raise ValidationError("non-finite filter state")
        mu = np.maximum(mu, 0.0)
        P = _sym(P)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "fused", KState(*_moments(mu, x, P)))


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
        Pi = np.asarray(self.Pi, dtype=float)
        m = len(self.q_levels)
        if Pi.shape != (m, m):
            raise ValidationError("Pi must be square, one row per model")
        if np.any(Pi < 0) or np.any(np.abs(Pi.sum(axis=1) - 1.0) > 1e-12):
            raise ValidationError("Pi rows must sum to 1 with entries >= 0")
        R = _sym(np.asarray(self.R, dtype=float))
        if np.linalg.eigvalsh(R).min() <= 0:
            raise ValidationError("R must be symmetric positive definite")
        mu0 = self.mu0
        if mu0 is None:
            mu0 = np.full(m, 1.0 / m)
        mu0 = np.asarray(mu0, dtype=float)
        if len(mu0) != m or abs(mu0.sum() - 1.0) > 1e-9 or np.any(mu0 < 0):
            raise ValidationError("mu0 must be a distribution over models")
        object.__setattr__(self, "Pi", Pi)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "P0", _sym(np.asarray(self.P0, dtype=float)))
        object.__setattr__(self, "mu0", mu0)

    @property
    def n_models(self) -> int:
        return len(self.q_levels)


def transition_matrix(dt: float) -> np.ndarray:
    F = np.eye(6)
    F[:3, 3:] = dt * np.eye(3)
    return F


def process_noise(dt: float, q: float) -> np.ndarray:
    G = np.zeros((6, 3))
    G[:3, :] = 0.5 * dt * dt * np.eye(3)
    G[3:, :] = dt * np.eye(3)
    return (q * q) * (G @ G.T)


def kf_predict(s: KState, dt: float, q: float) -> KState:
    """Constant-velocity time update."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    F = transition_matrix(dt)
    x = F @ s.x
    P = _sym(F @ s.P @ F.T + process_noise(dt, q))
    return KState(x=x, P=P)


def gaussian_loglik(y: np.ndarray, S: np.ndarray) -> float:
    """Log density of N(y; 0, S); raises on a singular S."""
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0:
        raise NumericalError("singular innovation covariance "
                             f"(slogdet sign={sign}, logdet={logdet:.3e})")
    try:
        q = float(y @ np.linalg.solve(S, y))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular innovation covariance ({exc})") from exc
    return -0.5 * (len(y) * _LOG_2PI + logdet + q)


def kf_update(s: KState, z, R: np.ndarray
              ) -> tuple[KState, np.ndarray, np.ndarray, float]:
    """Position-measurement update; returns (state, innovation, S, likelihood).

    Uses the Joseph-form covariance update and symmetrizes the result.
    """
    z = as_point(z)
    R = np.asarray(R, dtype=float)
    y = z - s.x[:3]
    S = _sym(s.P[:3, :3] + R)
    loglik = gaussian_loglik(y, S)
    K = np.linalg.solve(S, s.P[:3, :]).T          # (6, 3)
    x = s.x + K @ y
    IKH = np.eye(6)
    IKH[:, :3] -= K
    # Joseph form is PSD by construction; symmetrization is enough here.
    P = _sym(IKH @ s.P @ IKH.T + K @ R @ K.T)
    return KState(x=x, P=P), y, S, float(np.exp(loglik))


def imm_mix(s: IMMState, cfg: FilterConfig
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interaction step: mixed initial conditions and predicted mu.

    Returns (x (M, 6), P (M, 6, 6), mu_pred). A model whose predicted
    probability is zero gets uniform mixing weights.
    """
    m = cfg.n_models
    mu_pred = cfg.Pi.T @ s.mu
    # w[j, i] = Pi[i, j] * mu[i] / mu_pred[j]
    w = np.divide(cfg.Pi.T * s.mu, mu_pred[:, None],
                  out=np.full((m, m), 1.0 / m), where=mu_pred[:, None] > 0.0)
    x, P = _moments(w, s.x, s.P)
    return x, P, mu_pred


def imm_init(position, cfg: FilterConfig) -> IMMState:
    """Fresh track state at a measured position with zero velocity."""
    m = cfg.n_models
    x = np.zeros((m, 6))
    x[:, :3] = as_point(position)
    return IMMState(x=x, P=np.broadcast_to(cfg.P0, (m, 6, 6)),
                    mu=cfg.mu0.copy())


def imm_predict(s: IMMState, dt: float, cfg: FilterConfig) -> IMMState:
    """Mix and time-update every model; mu becomes the predicted mu."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    x, P, mu_pred = imm_mix(s, cfg)
    F = transition_matrix(dt)
    Q = np.square(cfg.q_levels)[:, None, None] * process_noise(dt, 1.0)
    return IMMState(x=x @ F.T, P=F @ P @ F.T + Q, mu=mu_pred / mu_pred.sum())


def imm_correct_pda(pred: IMMState, dets, beta_row, cfg: FilterConfig
                    ) -> IMMState:
    """PDA measurement update of every model with one shared beta row.

    `beta_row` is the miss probability beta0 followed by one association
    probability per row of `dets` (n, 3), and must sum to 1. Each model
    takes the combined innovation and the PDA covariance
    beta0 * P_pred + (1 - beta0) * P_upd + the spread of the innovations.
    Model probabilities are reweighted by each model's beta-weighted
    detection likelihood, normalised over the models; the miss mass is
    uninformative across models. The weights are formed in log space, so a
    likelihood that underflows in linear space still ranks the models.
    """
    dets = as_points(dets)
    beta = np.asarray(beta_row, dtype=float)
    if beta.shape != (len(dets) + 1,) or abs(beta.sum() - 1.0) > 1e-9:
        raise ValidationError(
            "beta row must be one miss plus one entry per detection, "
            "summing to 1")
    beta0, b = float(beta[0]), beta[1:]
    if beta0 >= 1.0 - 1e-15:
        return pred
    S = pred.P[:, :3, :3] + cfg.R                   # (M, 3, 3)
    sign, logdet = np.linalg.slogdet(S)
    if (sign <= 0).any():
        raise NumericalError(
            f"singular innovation covariance (slogdet signs {sign})")
    Sinv = np.linalg.inv(S)
    y = dets - pred.x[:, None, :3]                  # (M, n, 3)
    quad = np.einsum("mki,mij,mkj->mk", y, Sinv, y)
    with np.errstate(divide="ignore"):
        # a[m, k] = log(b_k N(y_mk; 0, S_m)); -inf where b_k = 0
        a = np.log(b) - 0.5 * (3 * _LOG_2PI + logdet[:, None] + quad)
        # log-sum-exp over the detections, then normalised over the models
        top = a.max(axis=1)
        loglik = top + np.log(np.exp(a - top[:, None]).sum(axis=1))
        loglik -= loglik.max() + np.log(np.exp(loglik - loglik.max()).sum())
        log_w = np.log(pred.mu) + np.logaddexp(np.log(beta0),
                                               np.log(1.0 - beta0) + loglik)
    mu = np.exp(log_w - log_w.max())

    nu = b @ y                                      # (M, 3) combined innovation
    K = pred.P[:, :, :3] @ Sinv                     # (M, 6, 3)
    Kt = K.swapaxes(1, 2)
    IKH = _I6 - K @ _H
    P_upd = IKH @ pred.P @ IKH.swapaxes(1, 2) + K @ cfg.R @ Kt
    spread = (y.swapaxes(1, 2) * b) @ y - nu[:, :, None] * nu[:, None, :]
    P = beta0 * pred.P + (1.0 - beta0) * P_upd + K @ spread @ Kt
    x = pred.x + (K @ nu[:, :, None])[:, :, 0]
    return IMMState(x=x, P=P, mu=mu / mu.sum())


def imm_correct(pred: IMMState, z, cfg: FilterConfig) -> IMMState:
    """Single-measurement update: `imm_correct_pda` with beta row [0, 1]."""
    return imm_correct_pda(pred, as_point(z)[None], _HIT, cfg)


def imm_step(s: IMMState, dt: float, z, cfg: FilterConfig) -> IMMState:
    """Full IMM cycle; z=None is a missed-detection (predict-only) step."""
    pred = imm_predict(s, dt, cfg)
    if z is None:
        return pred
    return imm_correct(pred, z, cfg)
