import itertools
import math

import numpy as np
import pytest

from sparsetrack.core import ValidationError
from sparsetrack.association import (JpdaParams, TrackView, build_cost, gate,
                                     hungarian, jpda)
from sparsetrack.filter import (FilterConfig, IMMState, KState,
                                imm_correct_pda, kf_update)


def view(z_pred=(0, 0, 0), S=None, **kw):
    return TrackView(z_pred=np.asarray(z_pred, float),
                     S=np.eye(3) if S is None else np.asarray(S, float), **kw)


def brute_force_min(cost: np.ndarray) -> float:
    n, m = cost.shape
    if n <= m:
        best = min(sum(cost[i, p[i]] for i in range(n))
                   for p in itertools.permutations(range(m), n))
    else:
        best = min(sum(cost[p[j], j] for j in range(m))
                   for p in itertools.permutations(range(n), m))
    return best


class TestGate:
    params = JpdaParams()

    def test_exact_prediction(self):
        g = gate([view()], np.zeros((1, 3)), self.params)
        assert g.d2[0, 0] == pytest.approx(0.0)
        assert g.feasible[0, 0]

    def test_unit_offset_d2(self):
        g = gate([view()], np.ones((1, 3)), self.params)
        assert g.d2[0, 0] == pytest.approx(3.0)
        assert g.feasible[0, 0]

    def test_tight_gamma_infeasible(self):
        params = JpdaParams(gamma=2.0)
        g = gate([view()], np.ones((1, 3)), params)
        assert not g.feasible[0, 0]

    def test_dormant_gate_widened(self):
        z = np.sqrt(10.0) * np.array([[1.0, 0, 0]])  # d2 = 10 > 7.815
        g_active = gate([view()], z, self.params)
        g_dormant = gate([view(dormant=True)], z, self.params)
        assert not g_active.feasible[0, 0]
        assert g_dormant.feasible[0, 0]

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            S = A @ A.T + 0.5 * np.eye(3)
            y = rng.normal(size=3)
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            g1 = gate([view(S=S)], y.reshape(1, 3), self.params)
            g2 = gate([view(S=Q @ S @ Q.T)], (Q @ y).reshape(1, 3),
                      self.params)
            assert g1.d2[0, 0] == pytest.approx(g2.d2[0, 0], abs=1e-9)

    def test_singular_s_row_infeasible(self):
        g = gate([view(S=np.zeros((3, 3)))], np.zeros((1, 3)), self.params)
        assert not g.feasible.any()
        assert g.notes


class TestBuildCost:
    params = JpdaParams()

    def test_pure_mahalanobis_weights(self):
        tracks = [view()]
        dets = np.array([[0.5, 0, 0]])
        g = gate(tracks, dets, self.params)
        cost = build_cost(tracks, dets, g, (1.0, 0.0, 0.0))
        assert cost[0, 0] == pytest.approx(g.d2[0, 0])

    def test_anchor_vanishes_without_history(self):
        tracks = [view()]  # last_confident is None
        dets = np.array([[0.5, 0, 0]])
        g = gate(tracks, dets, self.params)
        c_full = build_cost(tracks, dets, g, (1.0, 10.0, 10.0), t_now=1.0)
        c_bare = build_cost(tracks, dets, g, (1.0, 0.0, 0.0), t_now=1.0)
        assert np.allclose(c_full, c_bare)

    def test_infeasible_all_unassigned(self):
        tracks = [view()]
        dets = np.array([[100.0, 0, 0]])
        g = gate(tracks, dets, self.params)
        cost = build_cost(tracks, dets, g, (1.0, 0.3, 0.3))
        pairs, un_rows, un_cols = hungarian(cost)
        assert pairs == [] and un_rows == [0] and un_cols == [0]


class TestHungarian:
    def test_two_by_two(self):
        pairs, _, _ = hungarian(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert sorted(pairs) == [(0, 1), (1, 0)]

    def test_diagonal_dominant(self):
        cost = np.full((3, 3), 9.0)
        np.fill_diagonal(cost, 0.0)
        pairs, _, _ = hungarian(cost)
        assert sorted(pairs) == [(0, 0), (1, 1), (2, 2)]

    def test_one_by_three(self):
        pairs, un_rows, un_cols = hungarian(np.array([[5.0, 1.0, 7.0]]))
        assert pairs == [(0, 1)]
        assert un_rows == [] and sorted(un_cols) == [0, 2]

    def test_empty(self):
        pairs, un_rows, un_cols = hungarian(np.zeros((0, 3)))
        assert pairs == [] and un_rows == [] and un_cols == [0, 1, 2]

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            hungarian(np.array([[np.inf]]))

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n, m = rng.integers(1, 6, size=2)
            cost = rng.uniform(0, 10, size=(n, m))
            pairs, _, _ = hungarian(cost)
            total = sum(cost[i, j] for i, j in pairs)
            assert total == pytest.approx(brute_force_min(cost), abs=1e-9)


class TestJpda:
    def test_two_event_formula(self):
        params = JpdaParams(Pd=0.7, lambda_c=1e-4)
        tracks = [view()]
        dets = np.array([[0.5, 0.2, -0.1]])
        g = gate(tracks, dets, params)
        beta = jpda(tracks, dets, g, params)
        lam = math.exp(g.loglik[0, 0])
        expected = params.Pd * lam / (params.Pd * lam
                                      + (1 - params.Pd) * params.lambda_c)
        assert beta[0, 1] == pytest.approx(expected, abs=1e-12)
        assert beta[0, 0] == pytest.approx(1 - expected, abs=1e-12)

    def test_symmetric_split(self):
        tracks = [view((-1, 0, 0)), view((1, 0, 0))]
        dets = np.zeros((1, 3))
        params = JpdaParams()
        g = gate(tracks, dets, params)
        beta = jpda(tracks, dets, g, params)
        assert beta[0, 1] == pytest.approx(beta[1, 1], abs=1e-12)

    def test_no_gated_detections(self):
        tracks = [view(), view((5, 5, 5))]
        dets = np.array([[100.0, 0, 0]])
        params = JpdaParams()
        g = gate(tracks, dets, params)
        beta = jpda(tracks, dets, g, params)
        assert np.allclose(beta[:, 0], 1.0)

    def test_single_feasible_event_hard_assignment(self):
        # Pd = 1 and disjoint gates: the only surviving event is the
        # diagonal assignment; beta must be exactly 0/1.
        params = JpdaParams(Pd=1.0)
        tracks = [view((0, 0, 0)), view((50, 0, 0))]
        dets = np.array([[0.1, 0, 0], [50.1, 0, 0]])
        g = gate(tracks, dets, params)
        beta = jpda(tracks, dets, g, params)
        assert beta[0, 1] == 1.0 and beta[1, 2] == 1.0
        assert beta[0, 0] == 0.0 and beta[1, 0] == 0.0

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(7)
        params = JpdaParams()
        for _ in range(100):
            n, m = rng.integers(1, 5, size=2)
            tracks = [view(rng.uniform(-2, 2, 3)) for _ in range(n)]
            dets = rng.uniform(-2, 2, size=(m, 3))
            g = gate(tracks, dets, params)
            beta = jpda(tracks, dets, g, params)
            assert np.allclose(beta.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(beta >= 0) and np.all(beta <= 1)

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            JpdaParams(Pd=0.0)
        with pytest.raises(ValidationError):
            JpdaParams(lambda_c=-1.0)


class TestJpdaUpdate:
    """`filter.imm_correct_pda`, the update both association modes run."""

    R = 0.01 * np.eye(3)
    cfg = FilterConfig(q_levels=(1.0,), Pi=np.eye(1), mu0=(1.0,), R=R)

    def state(self):
        return KState(x=np.zeros(6), P=np.diag([1, 1, 1, 4, 4, 4]))

    def update(self, s, dets, beta_row):
        bank = IMMState(x=s.x[None], P=s.P[None], mu=np.ones(1))
        return imm_correct_pda(bank, dets, beta_row, self.cfg).fused

    def test_concentrated_beta_equals_kf_update(self):
        s = self.state()
        det = np.array([[0.3, -0.2, 0.1]])
        out = self.update(s, det, np.array([0.0, 1.0]))
        ref, _, _, _ = kf_update(s, det[0], self.R)
        assert np.allclose(out.x, ref.x, atol=1e-12)
        assert np.allclose(out.P, ref.P, atol=1e-9)

    def test_all_miss_keeps_prediction(self):
        s = self.state()
        out = self.update(s, np.array([[1.0, 0, 0]]), np.array([1.0, 0.0]))
        assert np.allclose(out.x, s.x)
        assert np.allclose(out.P, s.P)

    def test_symmetric_pair_midpoint_innovation(self):
        s = self.state()
        dets = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        out = self.update(s, dets, np.array([0.0, 0.5, 0.5]))
        # combined innovation is zero: mean unchanged
        assert np.allclose(out.x, s.x, atol=1e-12)
        # covariance exceeds the certain single-detection posterior
        single, _, _, _ = kf_update(s, dets[0], self.R)
        assert np.linalg.eigvalsh(out.P - single.P).min() >= -1e-9

    def test_posterior_psd_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            A = rng.normal(size=(6, 6))
            P = A @ A.T + 0.1 * np.eye(6)
            s = KState(x=rng.normal(size=6), P=P)
            m = int(rng.integers(1, 4))
            dets = s.x[:3] + rng.normal(scale=0.5, size=(m, 3))
            w = rng.uniform(0, 1, size=m + 1)
            w /= w.sum()
            out = self.update(s, dets, w)
            assert np.allclose(out.P, out.P.T, atol=1e-9)
            assert np.linalg.eigvalsh(out.P).min() >= -1e-9

    def test_bad_beta_rejected(self):
        with pytest.raises(ValidationError):
            self.update(self.state(), np.zeros((1, 3)), np.array([0.5, 0.2]))

    def test_underflowing_selected_model_keeps_one_hot_mu(self):
        # Model 0 holds all the probability but is so confident that the
        # detection's likelihood underflows in linear space; model 1's does
        # not. With Pi = I the other models can never gain probability.
        cfg = FilterConfig(Pi=np.eye(3), mu0=(1.0, 0.0, 0.0), R=self.R)
        P = np.stack([1e-6 * np.eye(6), 100.0 * np.eye(6), np.eye(6)])
        bank = IMMState(x=np.zeros((3, 6)), P=P, mu=cfg.mu0)
        out = imm_correct_pda(bank, np.array([[10.0, 0, 0]]),
                              np.array([0.0, 1.0]), cfg)
        assert np.array_equal(out.mu, [1.0, 0.0, 0.0])
        assert np.all(np.isfinite(out.x)) and np.all(np.isfinite(out.P))
