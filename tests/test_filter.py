import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrack.association import JpdaParams, gate
from sparsetrack.core import NumericalError, ValidationError
from sparsetrack.filter import (FilterConfig, IMMState, _f_and_q, _moments,
                                _sym, imm_correct, imm_correct_pda, imm_init,
                                imm_mix, imm_predict, innovation)

from reference_filter import (KState, gaussian_loglik, imm_step, kf_predict,
                              kf_update, log_space_weights, process_noise,
                              track_correct_pda, track_fused, track_predict,
                              transition_matrix)

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
        ("mu0", [True, 0, 0]), ("mu0", "abc"), ("mu0", [None, 0.5, 0.5]),
        ("R", "abc"), ("R", [[1.0, 0, 0], [0, 1.0, 0], [0, 0, "1"]]),
        ("P0", "abc"), ("Pi", "abc"), ("Pi", np.eye(3, dtype=bool)),
        ("q_levels", 5), ("q_levels", "abc"), ("q_levels", ()),
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
        # imm_correct over all detections gives the same bank as updating
        # each assigned track with its one detection alone.
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

    def test_mismatched_innovation_terms_rejected(self):
        # terms computed for one track, or for other detections, would
        # broadcast into a silently wrong update
        cfg = FilterConfig()
        pred = imm_init([(0, 0, 0), (1, 0, 0), (2, 0, 0)], cfg)
        dets = np.zeros((2, 3))
        for rows, n in ((1, 2), (3, 1)):
            inn = innovation(pred.x[:rows, :, :3],
                             pred.P[:rows, :, :3, :3] + cfg.R, dets[:n])
            with pytest.raises(ValidationError, match="innovation terms"):
                imm_correct(pred, dets, [0, 1, -1], cfg, inn)

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


def _eager_fused_P(s):
    """The fused covariances as each bank's constructor formed them before
    they were computed on read: one fusion over the whole bank."""
    return _sym(_moments(s.mu[:, None], s.x, s.P)[1][:, 0])


class TestFusedOnDemand:
    """fused_P, computed on each read, has the bits of eager fusion."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 6),
           n=st.integers(1, 3), idx=st.lists(st.integers(0, 5), max_size=8))
    def test_fused_p_on_read_equals_eager_fusion(self, seed, t, n, idx):
        cfg = FilterConfig()
        rng = np.random.default_rng(seed)
        init = imm_init(rng.normal(scale=5.0, size=(t, 3)), cfg)
        pred = imm_predict(_random_banks(rng, t, cfg), 0.1, cfg)
        dets = rng.normal(scale=3.0, size=(n, 3))
        beta = np.array([_beta_row(rng, k, n) for k in
                         rng.choice(["random", "one-hot", "miss"], size=t)])
        upd = imm_correct_pda(pred, dets, beta, cfg)
        idx = [i % t for i in idx]
        for s in (init, pred, upd):
            eager = _eager_fused_P(s)
            assert np.array_equal(
                s.fused_x, _moments(s.mu[:, None], s.x, s.P)[0][:, 0])
            assert s.fused_P is not s.fused_P  # computed on each read
            gathered = s.rows(idx).append(init)
            assert gathered.fused_P.tobytes() == np.concatenate(
                [eager[idx], _eager_fused_P(init)]).tobytes()
            for i in range(t):  # fusion is row-local
                assert s.rows([i]).fused_P.tobytes() == eager[i].tobytes()
            assert s.fused_P.tobytes() == eager.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(0, 6))
    def test_measurement_stack(self, seed, t):
        # row 0 is the fused position moment, rows 1.. each model's own
        cfg = FilterConfig()
        s = _random_banks(np.random.default_rng(seed), t, cfg)
        z, S = s.measurement_stack(cfg.R)
        m = cfg.n_models
        assert z.shape == (t, 1 + m, 3) and S.shape == (t, 1 + m, 3, 3)
        assert np.array_equal(z[:, 1:], s.x[..., :3])
        assert np.array_equal(S[:, 1:], s.P[..., :3, :3] + cfg.R)
        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(z[:, 0], s.fused_x[:, :3], **close)
        np.testing.assert_allclose(_sym(S[:, 0]),
                                   s.fused_P[:, :3, :3] + cfg.R, **close)


class TestTransitionTables:
    @settings(max_examples=200, deadline=None)
    @given(dt=st.floats(1e-300, 1e70),
           q=st.lists(st.floats(0.0, 1e10), min_size=1, max_size=4))
    def test_table_built_f_and_q_equal_closed_forms(self, dt, q):
        F, Q = _f_and_q(dt, tuple(q))
        assert F.tobytes() == transition_matrix(dt).tobytes()
        assert Q.tobytes() == np.stack(
            [process_noise(dt, qi) for qi in q]).tobytes()

    @pytest.mark.parametrize("dt", [0.1, 0.1 + 2**-56, 0.2])
    def test_cached_tables_are_read_only_closed_forms(self, dt):
        q = (0.5, 2.0, 8.0)
        F, Q = _f_and_q(dt, q)
        assert _f_and_q(dt, q)[0] is F and _f_and_q(dt, q)[1] is Q
        assert not F.flags.writeable and not Q.flags.writeable
        with pytest.raises(ValueError):
            F[0, 3] = 1.0
        with pytest.raises(ValueError):
            Q[0] *= 2.0
        assert F.tobytes() == transition_matrix(dt).tobytes()
        assert Q.tobytes() == np.stack(
            [process_noise(dt, qi) for qi in q]).tobytes()

    def test_zero_d_array_dt_predicts_as_its_float(self):
        cfg = FilterConfig()
        s = imm_init([(0.0, 1.0, 2.0)], cfg)
        got = imm_predict(s, np.array(0.1), cfg)
        want = imm_predict(s, 0.1, cfg)
        for a in ("x", "P", "mu"):
            assert getattr(got, a).tobytes() == getattr(want, a).tobytes()

    def test_q_levels_kept_as_a_float_tuple(self):
        # the cache key is hashable whatever sequence the config was given
        cfg = FilterConfig(q_levels=np.array([1, 2]), Pi=np.eye(2))
        assert cfg.q_levels == (1.0, 2.0)
        s = imm_init([(0.0, 0.0, 0.0)], cfg)
        np.testing.assert_allclose(
            imm_predict(s, 0.5, cfg).P[0, 1],
            transition_matrix(0.5) @ cfg.P0 @ transition_matrix(0.5).T
            + process_noise(0.5, 2.0), rtol=1e-12, atol=0.0)


class TestPdaModelWeights:
    """The one-pass model weights match the log-space reference, also where
    the largest detection term is one the track cannot take and where the
    models are more than exp's range apart."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 5),
           n=st.integers(1, 4), spread=st.sampled_from([0.3, 3.0, 30.0]),
           zeros=st.lists(st.booleans(), min_size=5, max_size=5))
    def test_one_pass_weights_equal_log_space_weights(self, seed, t, n,
                                                      spread, zeros):
        # beta rows with zeros, among them the miss and the detection
        # nearest each track; detections up to far beyond the gate
        cfg = FilterConfig()
        rng = np.random.default_rng(seed)
        pred = imm_predict(_random_banks(rng, t, cfg), 0.1, cfg)
        dets = rng.normal(scale=spread, size=(n, 3))
        beta = rng.uniform(0.0, 1.0, size=(t, n + 1))
        beta[:, zeros[:n + 1]] = 0.0
        beta[beta[:, 1:].sum(axis=1) == 0.0, 1 + rng.integers(n)] = 1.0
        beta /= beta.sum(axis=1, keepdims=True)
        upd = imm_correct_pda(pred, dets, beta, cfg)
        inn = innovation(pred.x[..., :3], pred.P[..., :3, :3] + cfg.R, dets)
        for i in range(t):
            want = log_space_weights(pred.mu[i], beta[i], inn.loglik[i])
            np.testing.assert_allclose(upd.mu[i], want, rtol=0, atol=1e-12)

    def test_underflow_fallback_is_row_local(self):
        # A track whose every weight underflows (its one likely model has
        # a likelihood exp's range below another's, as in
        # test_underflowing_selected_model_keeps_one_hot_mu) takes the
        # log-space form; a second track beside it changes none of its bits.
        cfg = FilterConfig(Pi=np.eye(3), mu0=(1.0, 0.0, 0.0))
        P = np.stack([1e-6 * np.eye(6), 100.0 * np.eye(6), np.eye(6)])
        one = IMMState(x=np.zeros((1, 3, 6)), P=P[None], mu=cfg.mu0[None])
        other = _random_banks(np.random.default_rng(3), 1, cfg)
        dets = np.array([[10.0, 0, 0], [0.5, 0.2, 0.0]])
        beta = np.array([[0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])
        alone = imm_correct_pda(one, dets, beta[:1], cfg)
        both = imm_correct_pda(one.append(other), dets, beta, cfg)
        assert np.array_equal(alone.mu, [[1.0, 0.0, 0.0]])
        for a in ("x", "P", "mu"):
            assert getattr(both, a)[0].tobytes() \
                == getattr(alone, a)[0].tobytes()
        self.check(other, dets, beta[1:], cfg)

    def test_subnormal_weight_total_takes_log_space_form(self):
        # The two models with probability lie about 730 nats below the
        # third, which has none: their linear-space weights are subnormal
        # and keep only a few significant digits, but their total is > 0.
        cfg = FilterConfig()
        Sinv = np.linalg.inv(np.eye(3) + cfg.R)[0, 0]
        x = np.zeros((1, 3, 6))
        x[0, :2, 0] = np.sqrt(2.0 * np.array([730.0 + np.log(2.0), 730.0])
                              / Sinv)
        pred = IMMState(x=x, P=np.broadcast_to(np.eye(6), (1, 3, 6, 6)),
                        mu=np.array([[0.5, 0.5, 0.0]]))
        dets, beta = np.zeros((1, 3)), np.array([[0.0, 1.0]])
        inn = innovation(pred.x[..., :3], pred.P[..., :3, :3] + cfg.R, dets)
        ll = inn.loglik[0, :, 0]
        assert 0.0 < 0.5 * np.exp(ll[:2] - ll[2]).sum() < sys.float_info.min
        mu = imm_correct_pda(pred, dets, beta, cfg).mu[0]
        want = log_space_weights(pred.mu[0], beta[0], inn.loglik[0])
        np.testing.assert_allclose(want, [1 / 3, 2 / 3, 0.0], atol=1e-12)
        np.testing.assert_allclose(mu, want, rtol=0, atol=1e-12)

    def check(self, pred, dets, beta, cfg):
        upd = imm_correct_pda(pred, dets, beta, cfg)
        assert np.isfinite(upd.mu).all()
        for i in range(len(pred)):
            x, P, mu = track_correct_pda(pred.x[i], pred.P[i], pred.mu[i],
                                         dets, beta[i], cfg)
            np.testing.assert_allclose(upd.mu[i], mu, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(upd.x[i], x, rtol=1e-12, atol=1e-12)
        return upd

    def bank(self, scales):
        m = len(scales)
        P = np.stack([s * np.eye(6) for s in scales])
        return IMMState(x=np.zeros((1, m, 6)), P=P[None],
                        mu=np.full((1, m), 1.0 / m))

    @pytest.mark.parametrize("b0", [0.0, 0.3])
    def test_largest_term_with_zero_beta(self, b0):
        # detection 0 sits on the track but has b = 0; detection 1 is
        # about 1000 nats less likely, beyond exp's range below the first
        cfg = FilterConfig()
        dets = np.array([[0.0, 0.0, 0.0], [45.0, 0.0, 0.0]])
        self.check(self.bank([1.0, 1.5, 2.0]), dets,
                   np.array([[b0, 0.0, 1.0 - b0]]), cfg)

    @pytest.mark.parametrize("b0", [0.0, 0.3])
    def test_models_beyond_exp_range_apart(self, b0):
        # model 0's log-likelihood is about 1000 nats below model 2's
        cfg = FilterConfig()
        upd = self.check(self.bank([0.1, 1.0, 10.0]),
                         np.array([[15.0, 0.0, 0.0]]),
                         np.array([[b0, 1.0 - b0]]), cfg)
        assert (upd.mu[0, 0] == 0.0) == (b0 == 0.0)


class TestHungarianUpdate:
    """`imm_correct`, the IMM Kalman correction of one detection per track,
    equals `imm_correct_pda` with one-hot beta rows bit for bit."""

    @staticmethod
    def assert_same_bits(got, want):
        for a in ("x", "P", "mu", "fused_x"):
            assert getattr(got, a).tobytes() == getattr(want, a).tobytes(), a

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 8),
           n=st.integers(1, 4),
           spread=st.sampled_from([0.3, 3.0, 30.0, 300.0]),
           picks=st.lists(st.integers(0, 4), min_size=8, max_size=8),
           zero_best=st.booleans(), gated=st.booleans())
    def test_equals_pda_update_of_one_hot_rows(self, seed, t, n, spread,
                                               picks, zero_best, gated):
        # detections up to far beyond the gate, so models' likelihoods lie
        # beyond exp's range apart; with zero_best the model most likely to
        # give each track's detection has no probability, which sends the
        # weights of such a track to log space
        cfg = FilterConfig()
        rng = np.random.default_rng(seed)
        pred = imm_predict(_random_banks(rng, t, cfg), 0.1, cfg)
        dets = rng.normal(scale=spread, size=(n, 3))
        assigned = np.array([p % (n + 1) - 1 for p in picks[:t]])
        if zero_best:
            ll = innovation(pred.x[..., :3], pred.P[..., :3, :3] + cfg.R,
                            dets).loglik[np.arange(t), :, assigned]
            mu = pred.mu.copy()
            mu[np.arange(t), ll.argmax(axis=1)] = 0.0
            pred = IMMState(pred.x, pred.P, mu / mu.sum(axis=1)[:, None])
        beta = np.zeros((t, n + 1))
        beta[np.arange(t), assigned + 1] = 1.0
        inn = gate(*pred.measurement_stack(cfg.R), dets,
                   JpdaParams()).rest if gated else None
        got = imm_correct(pred, dets, assigned, cfg, inn)
        if (assigned < 0).all():
            assert got is pred
        self.assert_same_bits(got, imm_correct_pda(pred, dets, beta, cfg))

    def test_subnormal_weight_total_takes_log_space_form(self):
        # test_subnormal_weight_total_takes_log_space_form's bank, run
        # through imm_correct beside a second detection
        cfg = FilterConfig()
        Sinv = np.linalg.inv(np.eye(3) + cfg.R)[0, 0]
        x = np.zeros((1, 3, 6))
        x[0, :2, 0] = np.sqrt(2.0 * np.array([730.0 + np.log(2.0), 730.0])
                              / Sinv)
        pred = IMMState(x=x, P=np.broadcast_to(np.eye(6), (1, 3, 6, 6)),
                        mu=np.array([[0.5, 0.5, 0.0]]))
        dets = np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        inn = innovation(pred.x[..., :3], pred.P[..., :3, :3] + cfg.R, dets)
        ll = inn.loglik[0, :, 1]
        assert 0.0 < 0.5 * np.exp(ll[:2] - ll[2]).sum() < sys.float_info.min
        got = imm_correct(pred, dets, [1], cfg)
        want = log_space_weights(pred.mu[0], np.array([0.0, 0.0, 1.0]),
                                 inn.loglik[0])
        np.testing.assert_allclose(want, [1 / 3, 2 / 3, 0.0], atol=1e-12)
        np.testing.assert_allclose(got.mu[0], want, rtol=0, atol=1e-12)
        self.assert_same_bits(got, imm_correct_pda(
            pred, dets, np.array([[0.0, 0.0, 1.0]]), cfg))
