import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrack.core import NumericalError, ValidationError
from sparsetrack.filter import (FilterConfig, IMMState, imm_correct,
                                imm_correct_pda, imm_init, imm_mix,
                                imm_predict, process_noise, transition_matrix)

from reference_filter import (KState, gaussian_loglik, imm_step, kf_predict,
                              kf_update, track_correct_pda, track_fused,
                              track_predict)

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

    @pytest.mark.parametrize("field, value", [
        ("q_levels", (np.nan, 2.0, 8.0)), ("q_levels", (-1.0, 2.0, 8.0)),
        ("q_levels", (0.5, 2.0, "x")), ("q_levels", (0.5, 2.0, np.inf)),
        ("q_levels", (0.5, True, 8.0)),
        ("P0", np.full((6, 6), np.nan)), ("P0", np.eye(3)),
        ("P0", np.eye(6) + np.eye(6, k=1)), ("P0", -np.eye(6)),
        ("P0", np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1e-3])),
        ("Pi", np.full((3, 3), np.nan)), ("mu0", (np.nan,) * 3),
        ("R", np.full((3, 3), np.nan)), ("R", np.eye(2)),
    ])
    def test_rejects_non_finite_or_malformed(self, field, value):
        with pytest.raises(ValidationError, match=field):
            FilterConfig(**{field: value})

    def test_accepts_zero_noise_and_singular_p0(self):
        cfg = FilterConfig(q_levels=(0.0, 2, 8.0), P0=np.zeros((6, 6)))
        assert cfg.n_models == 3 and not cfg.P0.any()


class TestImm:
    def test_identity_mixing_is_noop(self):
        cfg = FilterConfig(Pi=np.eye(3))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 6))
        mu = np.array([0.2, 0.5, 0.3])
        s = IMMState(x=x[None], P=np.tile(np.eye(6), (1, 3, 1, 1)),
                     mu=mu[None])
        mixed_x, mixed_P, mu_pred = imm_mix(s, cfg)
        assert np.allclose(mu_pred, mu)
        for j in range(3):
            assert np.allclose(mixed_x[0, j], s.x[0, j], atol=1e-12)
            assert np.allclose(mixed_P[0, j], s.P[0, j], atol=1e-12)

    def test_equal_states_zero_spread(self):
        cfg = FilterConfig()
        base = kstate(x=np.arange(6, dtype=float))
        mu = np.array([0.2, 0.5, 0.3])
        s = IMMState(x=np.tile(base.x, (1, 3, 1)),
                     P=np.tile(base.P, (1, 3, 1, 1)), mu=mu[None])
        mixed_x, mixed_P, _ = imm_mix(s, cfg)
        for x, P in zip(mixed_x[0], mixed_P[0]):
            assert np.allclose(x, base.x)
            assert np.allclose(P, base.P, atol=1e-12)

    def test_mixing_spread_is_psd(self):
        cfg = FilterConfig(q_levels=(0.5, 2.0),
                           Pi=np.full((2, 2), 0.5), mu0=(0.5, 0.5))
        s = IMMState(x=np.stack([np.zeros(6), np.ones(6)])[None],
                     P=np.tile(np.eye(6), (1, 2, 1, 1)),
                     mu=np.array([[0.5, 0.5]]))
        _, mixed_P, _ = imm_mix(s, cfg)
        for P in mixed_P[0]:
            diff = P - np.eye(6)  # both priors are I; spread adds PSD term
            assert np.linalg.eigvalsh(diff).min() >= -1e-12

    def test_single_model_equals_kf(self):
        cfg = FilterConfig(q_levels=(2.0,), Pi=np.eye(1), mu0=(1.0,))
        s = imm_init([(1.0, 2.0, 3.0)], cfg)
        ref = KState(x=s.x[0, 0], P=s.P[0, 0])
        rng = np.random.default_rng(3)
        for _ in range(30):
            z = rng.normal(size=3) + (1, 2, 3)
            s = imm_step(s, 0.1, z, cfg)
            ref = kf_predict(ref, 0.1, 2.0)
            ref, _, _, _ = kf_update(ref, z, cfg.R)
            assert np.allclose(s.fused_x[0], ref.x, atol=1e-10)
            assert np.allclose(s.fused_P[0], ref.P, atol=1e-10)

    def test_equal_likelihoods_keep_mu(self):
        cfg = FilterConfig()
        s = imm_init([(0, 0, 0)], cfg)
        # identical model states -> identical likelihoods -> mu = predicted mu
        pred = imm_predict(s, 0.1, cfg)
        # models differ only through q; force them identical first
        pred_eq = IMMState(x=np.tile(pred.x[:, 0], (1, 3, 1)),
                           P=np.tile(pred.P[:, 0], (1, 3, 1, 1)), mu=pred.mu)
        out = imm_correct(pred_eq, [(0.3, 0, 0)], [0], cfg)
        assert np.allclose(out.mu, pred.mu, atol=1e-12)

    def test_missed_step_is_fused_prediction(self):
        cfg = FilterConfig()
        s = imm_init([(1, 1, 1)], cfg)
        out = imm_step(s, 0.1, None, cfg)
        expected = sum(out.mu[0, j] * out.x[0, j, :3] for j in range(3))
        assert np.allclose(out.fused_x[0, :3], expected)

    def test_mu_stays_distribution(self):
        cfg = FilterConfig()
        s = imm_init([(0, 0, 0)], cfg)
        rng = np.random.default_rng(4)
        for k in range(200):
            z = None if rng.random() < 0.3 else rng.normal(scale=2, size=3)
            s = imm_step(s, 0.1, z, cfg)
            assert abs(s.mu.sum() - 1.0) < 1e-9
            assert np.all(s.mu >= 0) and np.all(s.mu <= 1 + 1e-12)

    def test_noiseless_cv_error_decreases(self):
        cfg = FilterConfig()
        v = np.array([1.0, -0.5, 0.2])
        s = imm_init([(0, 0, 0)], cfg)
        errs = []
        for k in range(1, 40):
            truth = v * (0.1 * k)
            s = imm_step(s, 0.1, truth, cfg)
            errs.append(float(np.linalg.norm(s.fused_x[0, :3] - truth)))
        assert errs[-1] < 0.02
        assert errs[-1] < errs[0]

    @pytest.mark.parametrize("step", [
        lambda s, cfg: imm_predict(s, 1e200, cfg),            # dt overflows
        lambda s, cfg: imm_correct(imm_predict(s, 0.1, cfg),
                                   [(1e300, 0.0, 0.0)], [0],
                                   cfg),  # innovation overflows
    ], ids=["predict", "correct"])
    def test_non_finite_step_result_is_numerical_error(self, step):
        cfg = FilterConfig()
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            step(imm_init([(0, 0, 0)], cfg), cfg)

    def test_immstate_validates_mu(self):
        with pytest.raises(ValidationError):
            IMMState(x=np.zeros((1, 1, 6)), P=np.eye(6)[None, None],
                     mu=np.array([[0.5]]))

    @pytest.mark.parametrize("mu", [[[np.nan]], [0.5]])
    def test_immstate_rejects_nan_or_unbatched_mu(self, mu):
        with pytest.raises(ValidationError):
            IMMState(x=np.zeros((1, 1, 6)), P=np.eye(6)[None, None],
                     mu=np.array(mu))


class TestKState:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            KState(x=np.full(6, np.nan), P=np.eye(6))

    def test_symmetrizes(self):
        P = np.eye(6)
        P[0, 1] = 1e-12
        s = KState(x=np.zeros(6), P=P)
        assert np.allclose(s.P, s.P.T)


def _random_banks(rng, t, cfg):
    """T tracks' banks with random means, SPD covariances and mu rows."""
    m = cfg.n_models
    x = rng.normal(scale=3.0, size=(t, m, 6))
    A = rng.normal(size=(t, m, 6, 6))
    P = A @ A.swapaxes(-1, -2) + 0.1 * np.eye(6)
    mu = rng.uniform(0.05, 1.0, size=(t, m))
    return IMMState(x=x, P=P, mu=mu / mu.sum(axis=1, keepdims=True))


def _beta_row(rng, kind, n):
    row = np.zeros(n + 1)
    if kind == "miss":
        row[0] = 1.0
    elif kind == "one-hot":
        row[1 + rng.integers(n)] = 1.0
    else:
        row = rng.uniform(0.0, 1.0, size=n + 1)
        row /= row.sum()
    return row


def _assert_bank_hygiene(s):
    for P in (*s.P.reshape(-1, 6, 6), *s.fused_P):
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-9
    assert np.allclose(s.mu.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestBatchedBank:
    """One batched predict and PDA update equal T per-track reference steps."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 8),
           n=st.integers(1, 4), dt=st.floats(0.01, 0.5),
           kinds=st.lists(st.sampled_from(["random", "one-hot", "miss"]),
                          min_size=8, max_size=8))
    def test_batched_step_equals_per_track_reference(self, seed, t, n, dt,
                                                     kinds):
        cfg = FilterConfig()
        rng = np.random.default_rng(seed)
        bank = _random_banks(rng, t, cfg)
        dets = rng.normal(scale=3.0, size=(n, 3))
        beta = np.array([_beta_row(rng, kinds[i], n) for i in range(t)])

        pred = imm_predict(bank, dt, cfg)
        upd = imm_correct_pda(pred, dets, beta, cfg)
        for s in (pred, upd):
            _assert_bank_hygiene(s)

        close = dict(rtol=1e-12, atol=1e-12)
        for i in range(t):
            x, P, mu = track_predict(bank.x[i], bank.P[i], bank.mu[i], dt,
                                     cfg)
            for got, want in zip((pred.x[i], pred.P[i], pred.mu[i]),
                                 (x, P, mu)):
                np.testing.assert_allclose(got, want, **close)
            x, P, mu = track_correct_pda(pred.x[i], pred.P[i], pred.mu[i],
                                         dets, beta[i], cfg)
            for got, want in zip((upd.x[i], upd.P[i], upd.mu[i]),
                                 (x, P, mu)):
                np.testing.assert_allclose(got, want, **close)
            fx, fP = track_fused(x, upd.P[i], upd.mu[i])
            np.testing.assert_allclose(upd.fused_x[i], fx, **close)
            np.testing.assert_allclose(upd.fused_P[i], fP, **close)
            if kinds[i] == "miss":
                for a in ("x", "P", "mu", "fused_x", "fused_P"):
                    assert np.array_equal(getattr(upd, a)[i],
                                          getattr(pred, a)[i])

    def test_hungarian_update_equals_single_detection_update(self):
        # imm_correct's one-hot rows over all detections give the same bank
        # as updating each assigned track with its one detection alone.
        cfg = FilterConfig()
        rng = np.random.default_rng(9)
        pred = imm_predict(_random_banks(rng, 4, cfg), 0.1, cfg)
        dets = rng.normal(scale=3.0, size=(3, 3))
        assigned = np.array([2, -1, 0, 1])
        out = imm_correct(pred, dets, assigned, cfg)
        for i, j in enumerate(assigned):
            one = pred.rows([i])
            want = one if j < 0 else imm_correct(one, dets[j][None], [0], cfg)
            for a in ("x", "P", "mu", "fused_x", "fused_P"):
                np.testing.assert_allclose(getattr(out, a)[i],
                                           getattr(want, a)[0],
                                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("assigned", [[3], [-2], [0.0], [0, 0]])
    def test_bad_assignment_rejected(self, assigned):
        cfg = FilterConfig()
        pred = imm_init([(0, 0, 0)], cfg)
        with pytest.raises(ValidationError):
            imm_correct(pred, np.zeros((3, 3)), assigned, cfg)

    def test_rows_and_append_keep_each_track(self):
        cfg = FilterConfig()
        bank = _random_banks(np.random.default_rng(10), 3, cfg)
        sub = bank.rows([0, 2])
        assert np.array_equal(sub.fused_P[1], bank.fused_P[2])
        new = imm_init([(5.0, 5.0, 5.0)], cfg)
        # a row replaced by a fresh one: gather from the bank and the new row
        swapped = bank.append(new).rows([0, 3, 2])
        assert np.array_equal(swapped.x[1], new.x[0])
        assert np.array_equal(swapped.P[0], bank.P[0])
        both = sub.append(new)
        assert len(both) == 3
        assert np.array_equal(both.mu[2], new.mu[0])
        # rows are gathered in the order given
        back = bank.rows([2, 0])
        for a in ("x", "P", "mu", "fused_x", "fused_P"):
            assert np.array_equal(getattr(back, a),
                                  getattr(bank, a)[[2, 0]])
        assert bank.rows([0, 1, 2]) is bank
        assert bank.rows([2, 1, 0]) is not bank
