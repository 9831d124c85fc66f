import itertools
import math

import numpy as np
import pytest

from sparsetrack.core import NumericalError, ValidationError
from sparsetrack.association import (SENTINEL_COST, JpdaParams, TrackView,
                                     build_cost, gate, hungarian, jpda)
from sparsetrack.filter import FilterConfig, IMMState, imm_correct_pda

from reference_filter import KState, kf_update


def views(*z_preds, S=None):
    """A TrackView of one track per predicted position, all with S (or I)."""
    z = np.asarray(z_preds, float).reshape(-1, 3)
    S = np.eye(3) if S is None else np.asarray(S, float)
    return TrackView(z_pred=z, S=np.broadcast_to(S, (len(z), 3, 3)))


def view(z_pred=(0, 0, 0), S=None):
    return views(z_pred, S=S)


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
        g = gate(view(), np.zeros((1, 3)), self.params)
        assert g.d2[0, 0] == pytest.approx(0.0)
        assert g.feasible[0, 0]

    def test_unit_offset_d2(self):
        g = gate(view(), np.ones((1, 3)), self.params)
        assert g.d2[0, 0] == pytest.approx(3.0)
        assert g.feasible[0, 0]

    def test_tight_gamma_infeasible(self):
        params = JpdaParams(gamma=2.0)
        g = gate(view(), np.ones((1, 3)), params)
        assert not g.feasible[0, 0]

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            S = A @ A.T + 0.5 * np.eye(3)
            y = rng.normal(size=3)
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            g1 = gate(view(S=S), y.reshape(1, 3), self.params)
            g2 = gate(view(S=Q @ S @ Q.T), (Q @ y).reshape(1, 3),
                      self.params)
            assert g1.d2[0, 0] == pytest.approx(g2.d2[0, 0], abs=1e-9)

    def test_singular_s_row_infeasible(self):
        g = gate(view(S=np.zeros((3, 3))), np.zeros((1, 3)), self.params)
        assert not g.feasible.any()
        assert g.notes

    def test_one_singular_s_among_three_tracks(self):
        # Only the singular row is infeasible and noted; the other rows equal
        # the single-track gate.
        rng = np.random.default_rng(12)
        A = rng.normal(size=(3, 3, 3))
        S = A @ A.swapaxes(1, 2) + 0.5 * np.eye(3)
        S[1] = np.diag([1.0, 1.0, 0.0])
        z = rng.normal(size=(3, 3))
        dets = z[[0, 2]] + rng.normal(scale=0.5, size=(2, 3))
        g = gate(TrackView(z_pred=z, S=S), dets, self.params)
        assert not g.feasible[1].any() and np.isinf(g.d2[1]).all()
        assert len(g.notes) == 1 and g.notes[0].startswith("track 1:")
        for i in (0, 2):
            one = gate(TrackView(z_pred=z[i:i + 1], S=S[i:i + 1]), dets,
                       self.params)
            assert one.notes == []
            for a in ("d2", "loglik"):
                np.testing.assert_allclose(getattr(g, a)[i],
                                           getattr(one, a)[0],
                                           rtol=1e-12, atol=1e-12)
            assert np.array_equal(g.feasible[i], one.feasible[0])


class TestBuildCost:
    params = JpdaParams()

    def test_pure_mahalanobis_weights(self):
        tracks = view()
        dets = np.array([[0.5, 0, 0]])
        g = gate(tracks, dets, self.params)
        cost = build_cost(tracks, dets, g, (1.0, 0.0, 0.0), t_now=1.0)
        assert cost[0, 0] == pytest.approx(g.d2[0, 0])

    def test_anchor_vanishes_without_history(self):
        tracks = view()  # no anchor
        dets = np.array([[0.5, 0, 0]])
        g = gate(tracks, dets, self.params)
        c_full = build_cost(tracks, dets, g, (1.0, 10.0, 10.0), t_now=1.0)
        c_bare = build_cost(tracks, dets, g, (1.0, 0.0, 0.0), t_now=1.0)
        assert np.allclose(c_full, c_bare)

    def test_infeasible_all_unassigned(self):
        tracks = view()
        dets = np.array([[100.0, 0, 0]])
        g = gate(tracks, dets, self.params)
        cost = build_cost(tracks, dets, g, (1.0, 0.3, 0.3), t_now=1.0)
        assert hungarian(cost).tolist() == [-1]

    def test_equals_per_pair_loop(self):
        # The array cost equals the per-pair definition, with tracks that
        # lack an anchor or whose anchor is not older than t_now.
        rng = np.random.default_rng(13)
        weights = (1.0, 0.3, 0.3)
        for _ in range(50):
            n, m = rng.integers(1, 5, size=2)
            z = rng.uniform(-2, 2, size=(n, 3))
            dets = rng.uniform(-2, 2, size=(m, 3))
            anchor = rng.uniform(-2, 2, size=(n, 3))
            anchor_t = rng.choice([np.nan, 0.5, 1.0], size=n)
            anchor[np.isnan(anchor_t)] = np.nan
            vel = rng.normal(size=(n, 3))
            tracks = TrackView(z_pred=z, S=np.broadcast_to(np.eye(3),
                                                            (n, 3, 3)),
                               velocity=vel, anchor=anchor, anchor_t=anchor_t)
            g = gate(tracks, dets, self.params)
            cost = build_cost(tracks, dets, g, weights, t_now=1.0)
            for i in range(n):
                for j in range(m):
                    want = SENTINEL_COST
                    if g.feasible[i, j]:
                        c = weights[0] * g.d2[i, j]
                        if not np.isnan(anchor_t[i]):
                            c += weights[1] * np.linalg.norm(dets[j]
                                                             - anchor[i])
                            if anchor_t[i] < 1.0:
                                v = (dets[j] - anchor[i]) / (1.0 - anchor_t[i])
                                c += weights[2] * np.linalg.norm(v - vel[i])
                        want = min(c, SENTINEL_COST - 1.0)
                    assert cost[i, j] == pytest.approx(want, rel=1e-12)


class TestHungarian:
    def test_two_by_two(self):
        assigned = hungarian(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert assigned.tolist() == [1, 0]

    def test_diagonal_dominant(self):
        cost = np.full((3, 3), 9.0)
        np.fill_diagonal(cost, 0.0)
        assert hungarian(cost).tolist() == [0, 1, 2]

    def test_one_by_three(self):
        # the one row takes column 1; columns 0 and 2 stay free
        assert hungarian(np.array([[5.0, 1.0, 7.0]])).tolist() == [1]

    def test_empty(self):
        assert hungarian(np.zeros((0, 3))).shape == (0,)
        assert hungarian(np.zeros((2, 0))).tolist() == [-1, -1]

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            hungarian(np.array([[np.inf]]))

    def test_matches_brute_force_small(self):
        # square and rectangular matrices: every row of the shorter side is
        # assigned, each column at most once, at the brute-force minimum
        rng = np.random.default_rng(6)
        shapes = [tuple(rng.integers(1, 6, size=2)) for _ in range(100)]
        shapes += [(2, 5), (5, 2), (1, 4), (4, 1)]
        for n, m in shapes:
            cost = rng.uniform(0, 10, size=(n, m))
            assigned = hungarian(cost)
            assert assigned.shape == (n,)
            cols = assigned[assigned >= 0]
            assert len(cols) == min(n, m)
            assert len(set(cols.tolist())) == len(cols)
            total = cost[np.flatnonzero(assigned >= 0), cols].sum()
            assert total == pytest.approx(brute_force_min(cost), abs=1e-9)

    def test_sentinel_row_unassigned(self):
        # a row with no feasible column comes back -1, and the other rows
        # keep their optimal columns
        cost = np.array([[1.0, 5.0, 9.0],
                         [SENTINEL_COST] * 3,
                         [6.0, 2.0, 9.0]])
        assert hungarian(cost).tolist() == [0, -1, 1]


class TestJpda:
    def test_two_event_formula(self):
        params = JpdaParams(Pd=0.7, lambda_c=1e-4)
        tracks = view()
        dets = np.array([[0.5, 0.2, -0.1]])
        g = gate(tracks, dets, params)
        beta = jpda(tracks, dets, g, params)
        lam = math.exp(g.loglik[0, 0])
        expected = params.Pd * lam / (params.Pd * lam
                                      + (1 - params.Pd) * params.lambda_c)
        assert beta[0, 1] == pytest.approx(expected, abs=1e-12)
        assert beta[0, 0] == pytest.approx(1 - expected, abs=1e-12)

    def test_symmetric_split(self):
        tracks = views((-1, 0, 0), (1, 0, 0))
        dets = np.zeros((1, 3))
        params = JpdaParams()
        g = gate(tracks, dets, params)
        beta = jpda(tracks, dets, g, params)
        assert beta[0, 1] == pytest.approx(beta[1, 1], abs=1e-12)

    def test_no_gated_detections(self):
        tracks = views((0, 0, 0), (5, 5, 5))
        dets = np.array([[100.0, 0, 0]])
        params = JpdaParams()
        g = gate(tracks, dets, params)
        beta = jpda(tracks, dets, g, params)
        assert np.allclose(beta[:, 0], 1.0)

    def test_single_feasible_event_hard_assignment(self):
        # Pd = 1 and disjoint gates: the only surviving event is the
        # diagonal assignment; beta must be exactly 0/1.
        params = JpdaParams(Pd=1.0)
        tracks = views((0, 0, 0), (50, 0, 0))
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
            tracks = views(*[rng.uniform(-2, 2, 3) for _ in range(n)])
            dets = rng.uniform(-2, 2, size=(m, 3))
            g = gate(tracks, dets, params)
            beta = jpda(tracks, dets, g, params)
            assert np.allclose(beta.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(beta >= 0) and np.all(beta <= 1)

    # the overflow must not reach numpy as a NaN division either
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weight_overflow_is_numeric(self):
        # each pair weight is about 1e301, so a joint event of both
        # overflows; it used to give NaN marginals
        params = JpdaParams(lambda_c=1e-300)
        tracks = views((0, 0, 10), (0.5, 0, 10), S=0.01 * np.eye(3))
        dets = np.array([[0.01, 0, 10], [0.49, 0, 10]])
        g = gate(tracks, dets, params)
        with pytest.raises(NumericalError, match="not finite"):
            jpda(tracks, dets, g, params)

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            JpdaParams(Pd=0.0)
        with pytest.raises(ValidationError):
            JpdaParams(lambda_c=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("Pd", True), ("lambda_c", math.nan),
        ("gamma", math.nan), ("gamma", math.inf), ("max_events", 0),
        ("max_events", 2.5), ("max_events", True),
    ])
    def test_non_finite_or_mistyped_params_rejected(self, field, value):
        # NaN would otherwise pass every range test and, for gamma, put
        # every pair outside the gate
        with pytest.raises(ValidationError):
            JpdaParams(**{field: value})


class TestJpdaUpdate:
    """`filter.imm_correct_pda`, the update both association modes run."""

    R = 0.01 * np.eye(3)
    cfg = FilterConfig(q_levels=(1.0,), Pi=np.eye(1), mu0=(1.0,), R=R)

    def state(self):
        return KState(x=np.zeros(6), P=np.diag([1, 1, 1, 4, 4, 4]))

    def update(self, s, dets, beta_row):
        bank = IMMState(x=s.x[None, None], P=s.P[None, None],
                        mu=np.ones((1, 1)))
        out = imm_correct_pda(bank, dets, np.asarray(beta_row)[None], self.cfg)
        return KState(x=out.fused_x[0], P=out.fused_P[0])

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
        bank = IMMState(x=np.zeros((1, 3, 6)), P=P[None], mu=cfg.mu0[None])
        out = imm_correct_pda(bank, np.array([[10.0, 0, 0]]),
                              np.array([[0.0, 1.0]]), cfg)
        assert np.array_equal(out.mu, [[1.0, 0.0, 0.0]])
        assert np.all(np.isfinite(out.x)) and np.all(np.isfinite(out.P))
