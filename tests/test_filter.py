import numpy as np
import pytest

from sparsetrack.core import NumericalError, ValidationError
from sparsetrack.filter import (FilterConfig, IMMState, KState,
                                gaussian_loglik, imm_correct, imm_init,
                                imm_mix, imm_predict, imm_step, kf_predict,
                                kf_update, process_noise, transition_matrix)

_LOG_2PI = np.log(2.0 * np.pi)


def kstate(x=None, P=None):
    return KState(x=np.zeros(6) if x is None else np.asarray(x, float),
                  P=np.eye(6) if P is None else np.asarray(P, float))


class TestKfPredict:
    def test_zero_velocity_position_fixed(self):
        s = kstate(x=[1, 2, 3, 0, 0, 0])
        out = kf_predict(s, dt=0.5, q=1.0)
        assert np.allclose(out.x[:3], (1, 2, 3))

    def test_position_integration(self):
        s = kstate(x=[0, 0, 0, 1, 0, 0])
        out = kf_predict(s, dt=0.1, q=1.0)
        assert np.allclose(out.x[:3], (0.1, 0, 0))

    def test_q_zero_pure_propagation(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6))
        P = A @ A.T + np.eye(6)
        s = kstate(P=P)
        out = kf_predict(s, dt=0.1, q=0.0)
        F = transition_matrix(0.1)
        assert np.allclose(out.P, F @ P @ F.T, atol=1e-12)

    def test_process_noise_form(self):
        dt, q = 0.1, 2.0
        G = np.zeros((6, 3))
        G[:3] = 0.5 * dt * dt * np.eye(3)
        G[3:] = dt * np.eye(3)
        assert np.allclose(process_noise(dt, q), q * q * G @ G.T)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValidationError):
            kf_predict(kstate(), dt=0.0, q=1.0)


class TestKfUpdate:
    def test_zero_innovation(self):
        s = kstate(x=[1, 2, 3, 0.5, 0, 0])
        out, y, S, lik = kf_update(s, (1, 2, 3), np.eye(3))
        assert np.allclose(y, 0)
        assert np.allclose(out.x[:3], (1, 2, 3))

    def test_tiny_prior_covariance_keeps_prior(self):
        s = kstate(x=[1, 0, 0, 0, 0, 0], P=1e-12 * np.eye(6))
        out, _, _, _ = kf_update(s, (2, 0, 0), np.eye(3))
        assert np.allclose(out.x, s.x, atol=1e-9)

    def test_half_gain_case(self):
        # P_pos = I, R = I, zero cross-covariance: position gain is 0.5 I
        s = kstate(x=np.zeros(6), P=np.diag([1, 1, 1, 4, 4, 4]))
        z = np.array([1.0, 1.0, 1.0])
        out, _, S, _ = kf_update(s, z, np.eye(3))
        assert np.allclose(S, 2 * np.eye(3))
        assert np.allclose(out.x[:3], 0.5 * z)
        assert np.allclose(out.x[3:], 0.0)

    def test_likelihood_matches_gaussian_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            A = rng.normal(size=(3, 3))
            S = A @ A.T + 0.5 * np.eye(3)
            y = rng.normal(size=3)
            direct = np.exp(-0.5 * (3 * _LOG_2PI + np.log(np.linalg.det(S))
                                    + y @ np.linalg.solve(S, y)))
            got = np.exp(gaussian_loglik(y, S))
            assert got == pytest.approx(direct, rel=1e-9)

    def test_singular_s_raises(self):
        with pytest.raises(NumericalError):
            gaussian_loglik(np.zeros(3), np.zeros((3, 3)))


class TestFilterConfig:
    def test_defaults_valid(self):
        cfg = FilterConfig()
        assert cfg.n_models == 3
        assert np.allclose(cfg.Pi.sum(axis=1), 1.0)
        assert np.allclose(cfg.mu0.sum(), 1.0)

    def test_rejects_bad_pi(self):
        with pytest.raises(ValidationError):
            FilterConfig(Pi=np.ones((3, 3)))

    def test_rejects_non_pd_r(self):
        with pytest.raises(ValidationError):
            FilterConfig(R=np.zeros((3, 3)))


class TestImm:
    def test_identity_mixing_is_noop(self):
        cfg = FilterConfig(Pi=np.eye(3))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 6))
        mu = np.array([0.2, 0.5, 0.3])
        s = IMMState(x=x, P=np.tile(np.eye(6), (3, 1, 1)), mu=mu)
        mixed_x, mixed_P, mu_pred = imm_mix(s, cfg)
        assert np.allclose(mu_pred, mu)
        for j in range(3):
            assert np.allclose(mixed_x[j], s.x[j], atol=1e-12)
            assert np.allclose(mixed_P[j], s.P[j], atol=1e-12)

    def test_equal_states_zero_spread(self):
        cfg = FilterConfig()
        base = kstate(x=np.arange(6, dtype=float))
        mu = np.array([0.2, 0.5, 0.3])
        s = IMMState(x=np.tile(base.x, (3, 1)), P=np.tile(base.P, (3, 1, 1)),
                     mu=mu)
        mixed_x, mixed_P, _ = imm_mix(s, cfg)
        for x, P in zip(mixed_x, mixed_P):
            assert np.allclose(x, base.x)
            assert np.allclose(P, base.P, atol=1e-12)

    def test_mixing_spread_is_psd(self):
        cfg = FilterConfig(q_levels=(0.5, 2.0),
                           Pi=np.full((2, 2), 0.5), mu0=(0.5, 0.5))
        s = IMMState(x=np.stack([np.zeros(6), np.ones(6)]),
                     P=np.tile(np.eye(6), (2, 1, 1)), mu=np.array([0.5, 0.5]))
        _, mixed_P, _ = imm_mix(s, cfg)
        for P in mixed_P:
            diff = P - np.eye(6)  # both priors are I; spread adds PSD term
            assert np.linalg.eigvalsh(diff).min() >= -1e-12

    def test_single_model_equals_kf(self):
        cfg = FilterConfig(q_levels=(2.0,), Pi=np.eye(1), mu0=(1.0,))
        s = imm_init((1.0, 2.0, 3.0), cfg)
        ref = KState(x=s.x[0], P=s.P[0])
        rng = np.random.default_rng(3)
        for _ in range(30):
            z = rng.normal(size=3) + (1, 2, 3)
            s = imm_step(s, 0.1, z, cfg)
            ref = kf_predict(ref, 0.1, 2.0)
            ref, _, _, _ = kf_update(ref, z, cfg.R)
            assert np.allclose(s.fused.x, ref.x, atol=1e-10)
            assert np.allclose(s.fused.P, ref.P, atol=1e-10)

    def test_equal_likelihoods_keep_mu(self):
        cfg = FilterConfig()
        s = imm_init((0, 0, 0), cfg)
        # identical model states -> identical likelihoods -> mu = predicted mu
        pred = imm_predict(s, 0.1, cfg)
        # models differ only through q; force them identical first
        pred_eq = IMMState(x=np.tile(pred.x[0], (3, 1)),
                           P=np.tile(pred.P[0], (3, 1, 1)), mu=pred.mu)
        out = imm_correct(pred_eq, (0.3, 0, 0), cfg)
        assert np.allclose(out.mu, pred.mu, atol=1e-12)

    def test_missed_step_is_fused_prediction(self):
        cfg = FilterConfig()
        s = imm_init((1, 1, 1), cfg)
        out = imm_step(s, 0.1, None, cfg)
        expected = sum(out.mu[j] * out.x[j, :3] for j in range(3))
        assert np.allclose(out.fused.x[:3], expected)

    def test_mu_stays_distribution(self):
        cfg = FilterConfig()
        s = imm_init((0, 0, 0), cfg)
        rng = np.random.default_rng(4)
        for k in range(200):
            z = None if rng.random() < 0.3 else rng.normal(scale=2, size=3)
            s = imm_step(s, 0.1, z, cfg)
            assert abs(s.mu.sum() - 1.0) < 1e-9
            assert np.all(s.mu >= 0) and np.all(s.mu <= 1 + 1e-12)

    def test_noiseless_cv_error_decreases(self):
        cfg = FilterConfig()
        v = np.array([1.0, -0.5, 0.2])
        s = imm_init((0, 0, 0), cfg)
        errs = []
        for k in range(1, 40):
            truth = v * (0.1 * k)
            s = imm_step(s, 0.1, truth, cfg)
            errs.append(float(np.linalg.norm(s.fused.x[:3] - truth)))
        assert errs[-1] < 0.02
        assert errs[-1] < errs[0]

    @pytest.mark.parametrize("step", [
        lambda s, cfg: imm_predict(s, 1e200, cfg),            # dt overflows
        lambda s, cfg: imm_correct(imm_predict(s, 0.1, cfg),
                                   (1e300, 0.0, 0.0), cfg),  # innovation overflows
    ], ids=["predict", "correct"])
    def test_non_finite_step_result_is_numerical_error(self, step):
        cfg = FilterConfig()
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            step(imm_init((0, 0, 0), cfg), cfg)

    def test_immstate_validates_mu(self):
        with pytest.raises(ValidationError):
            IMMState(x=np.zeros((1, 6)), P=np.eye(6)[None], mu=np.array([0.5]))


class TestKState:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            KState(x=np.full(6, np.nan), P=np.eye(6))

    def test_symmetrizes(self):
        P = np.eye(6)
        P[0, 1] = 1e-12
        s = KState(x=np.zeros(6), P=P)
        assert np.allclose(s.P, s.P.T)
