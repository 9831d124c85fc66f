"""Single-track filter references the tests compare the batched IMM against.

`transition_matrix` and `process_noise` are the constant-velocity F and Q
in closed form. `KState`, `kf_predict` and `kf_update` are the single
Kalman filter that the IMM reduces to with one model. `track_predict` and
`track_correct_pda` are the IMM predict and PDA update of one track's bank,
x (M, 6), P (M, 6, 6) and mu (M,), written per track, with the model
weights in log space (`log_space_weights`); `imm_step` runs the library's
batched IMM on a one-track bank.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sparsetrack.core import NumericalError, ValidationError, as_point
from sparsetrack.filter import IMMState, imm_correct, imm_predict

_LOG_2PI = float(np.log(2.0 * np.pi))
_I6 = np.eye(6)
_H = np.eye(3, 6)
_FV = np.eye(6, k=3)         # velocity-to-position block of F
# position, cross and velocity blocks of G G'
_PP = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
_PV = np.eye(6, k=3) + np.eye(6, k=-3)
_VV = np.diag([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


def transition_matrix(dt: float) -> np.ndarray:
    return _I6 + dt * _FV


def process_noise(dt: float, q: float) -> np.ndarray:
    """(q^2) G G' for G = [dt^2/2 I; dt I], from its three blocks."""
    h = 0.5 * dt * dt
    return (q * q) * (h * h * _PP + h * dt * _PV + dt * dt * _VV)


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
        if not np.isfinite(x.sum() + P.sum()):
            raise ValidationError("non-finite filter state")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "P", _sym(P))


def kf_predict(s: KState, dt: float, q: float) -> KState:
    """Constant-velocity time update."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    F = transition_matrix(dt)
    return KState(x=F @ s.x, P=_sym(F @ s.P @ F.T + process_noise(dt, q)))


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
    IKH = np.eye(6)
    IKH[:, :3] -= K
    P = _sym(IKH @ s.P @ IKH.T + K @ R @ K.T)
    return KState(x=s.x + K @ y, P=P), y, S, float(np.exp(loglik))


def imm_step(s: IMMState, dt: float, z, cfg) -> IMMState:
    """Full IMM cycle of a one-track bank; z=None is a missed detection."""
    pred = imm_predict(s, dt, cfg)
    if z is None:
        return pred
    return imm_correct(pred, as_point(z)[None], [0], cfg)


def _fuse(mu, x, P):
    xm = mu @ x
    d = x - xm
    return xm, _sym(np.einsum("m,mij->ij", mu, P)
                    + np.einsum("m,mi,mj->ij", mu, d, d))


def track_predict(x, P, mu, dt: float, cfg):
    """IMM mix and time update of one track's bank; returns (x, P, mu)."""
    m = cfg.n_models
    mu_pred = cfg.Pi.T @ mu
    w = np.full((m, m), 1.0 / m)
    for j in range(m):
        if mu_pred[j] > 0.0:
            w[j] = cfg.Pi[:, j] * mu / mu_pred[j]
    xs, Ps = [], []
    for j in range(m):
        xj, Pj = _fuse(w[j], x, P)
        xs.append(xj)
        Ps.append(Pj)
    F = transition_matrix(dt)
    x = np.array([F @ xj for xj in xs])
    P = np.array([_sym(F @ Pj @ F.T + process_noise(dt, q))
                  for Pj, q in zip(Ps, cfg.q_levels)])
    return x, P, mu_pred / mu_pred.sum()


def log_space_weights(mu, beta_row, loglik):
    """One track's PDA model weights, formed in log space: mu (M,), its
    beta row (n + 1,) and each model's detection log-likelihoods (M, n).

    Each model's likelihood is the b-weighted sum over detections,
    normalised over the models; the miss mass is uninformative.
    """
    beta0, b = float(beta_row[0]), np.asarray(beta_row[1:], dtype=float)
    ll = np.array([np.logaddexp.reduce([np.log(bk) + lk for bk, lk
                                        in zip(b, row) if bk > 0])
                   for row in loglik])
    ll -= np.logaddexp.reduce(ll)
    with np.errstate(divide="ignore"):
        log_w = np.log(mu) + np.logaddexp(np.log(beta0),
                                          np.log(1.0 - beta0) + ll)
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def track_correct_pda(x, P, mu, dets, beta_row, cfg):
    """PDA update of one track's bank with one beta row; returns (x, P, mu).

    Each model is updated on its own: Joseph-form Kalman update, combined
    innovation and PDA covariance; mu is reweighted in log space.
    """
    beta0, b = float(beta_row[0]), np.asarray(beta_row[1:], dtype=float)
    if beta0 >= 1.0 - 1e-12:
        return x, P, mu
    R = cfg.R
    xs, Ps, loglik = [], [], []
    for xm, Pm in zip(x, P):
        S = _sym(Pm[:3, :3] + R)
        ys = [z - xm[:3] for z in dets]
        loglik.append([gaussian_loglik(y, S) for y in ys])
        K = np.linalg.solve(S, Pm[:3, :]).T
        IKH = _I6 - K @ _H
        P_upd = IKH @ Pm @ IKH.T + K @ R @ K.T
        nu = sum(bk * y for bk, y in zip(b, ys))
        spread = sum(bk * np.outer(y, y) for bk, y in zip(b, ys)) \
            - np.outer(nu, nu)
        xs.append(xm + K @ nu)
        Ps.append(_sym(beta0 * Pm + (1.0 - beta0) * P_upd
                       + K @ spread @ K.T))
    return np.array(xs), np.array(Ps), log_space_weights(mu, beta_row,
                                                         loglik)


def track_fused(x, P, mu):
    """Moment-matched fusion of one track's bank: (x (6,), P (6, 6))."""
    return _fuse(mu, x, P)
