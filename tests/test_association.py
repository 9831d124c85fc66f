import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from sparsetrack.core import NumericalError, ValidationError
from sparsetrack.association import (SENTINEL_COST, GateResult, JpdaParams,
                                     build_cost, gate, hungarian, jpda)
from sparsetrack.filter import (FilterConfig, IMMState, imm_correct,
                                imm_correct_pda)

from reference_filter import KState, kf_update


def views(*z_preds, S=None):
    """`gate`'s (z_pred, S) for one track per predicted position, all with
    S (or I)."""
    z = np.asarray(z_preds, float).reshape(-1, 3)
    S = np.eye(3) if S is None else np.asarray(S, float)
    return z, np.broadcast_to(S, (len(z), 3, 3))


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
        g = gate(*view(), np.zeros((1, 3)), self.params)
        assert g.d2[0, 0] == pytest.approx(0.0)
        assert g.feasible[0, 0]

    def test_unit_offset_d2(self):
        g = gate(*view(), np.ones((1, 3)), self.params)
        assert g.d2[0, 0] == pytest.approx(3.0)
        assert g.feasible[0, 0]

    def test_tight_gamma_infeasible(self):
        params = JpdaParams(gamma=2.0)
        g = gate(*view(), np.ones((1, 3)), params)
        assert not g.feasible[0, 0]

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            S = A @ A.T + 0.5 * np.eye(3)
            y = rng.normal(size=3)
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            g1 = gate(*view(S=S), y.reshape(1, 3), self.params)
            g2 = gate(*view(S=Q @ S @ Q.T), (Q @ y).reshape(1, 3),
                      self.params)
            assert g1.d2[0, 0] == pytest.approx(g2.d2[0, 0], abs=1e-9)

    def test_singular_s_row_infeasible(self):
        g = gate(*view(S=np.zeros((3, 3))), np.zeros((1, 3)), self.params)
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
        g = gate(z, S, dets, self.params)
        assert not g.feasible[1].any() and np.isinf(g.d2[1]).all()
        assert len(g.notes) == 1 and g.notes[0].startswith("track 1:")
        for i in (0, 2):
            one = gate(z[i:i + 1], S[i:i + 1], dets, self.params)
            assert one.notes == []
            for a in ("d2", "loglik"):
                np.testing.assert_allclose(getattr(g, a)[i],
                                           getattr(one, a)[0],
                                           rtol=1e-12, atol=1e-12)
            assert np.array_equal(g.feasible[i], one.feasible[0])


    def test_stacked_gate_shares_one_innovation_pass(self):
        # Row 0 of each track's stack gates as the unstacked gate does; the
        # other rows' terms come back as `rest`, a singular one included,
        # which neither notes nor blocks the gate.
        rng = np.random.default_rng(21)
        A = rng.normal(size=(2, 4, 3, 3))
        S = A @ A.swapaxes(-1, -2) + 0.5 * np.eye(3)
        S[1, 2] = 0.0
        z = rng.normal(size=(2, 4, 3))
        dets = z[:, 0] + rng.normal(scale=0.5, size=(2, 3))
        g = gate(z, S, dets, self.params)
        one = gate(z[:, 0], S[:, 0], dets, self.params)
        assert g.notes == [] and g.d2.shape == g.feasible.shape == (2, 2)
        assert np.array_equal(g.feasible, one.feasible)
        for a in ("d2", "loglik"):
            np.testing.assert_allclose(getattr(g, a), getattr(one, a),
                                       rtol=1e-12, atol=1e-12)
        assert g.rest.ok.tolist() == [[True] * 3, [True, False, True]]
        assert g.rest.y.shape == (2, 3, 2, 3)
        for i, k in ((0, 1), (1, 3)):
            row = gate(z[i, k][None], S[i, k][None], dets, self.params)
            np.testing.assert_allclose(g.rest.d2[i, k - 1], row.d2[0],
                                       rtol=1e-12, atol=1e-12)

    def test_detections_not_three_columns_rejected(self):
        # not two 3-vectors read from a (3, 2) array
        with pytest.raises(ValidationError, match=r"\(N, 3\)"):
            gate(np.zeros((1, 3)), np.eye(3)[None],
                 np.arange(6.0).reshape(3, 2), self.params)

    def test_flat_z_pred_rejected(self):
        # not two tracks read from a (6,) array
        with pytest.raises(ValidationError, match="z_pred"):
            gate(np.zeros(6), np.broadcast_to(np.eye(3), (2, 3, 3)),
                 np.zeros((1, 3)), self.params)

    @pytest.mark.parametrize("z_shape, s_shape", [
        ((2, 3), (1, 3, 3)),           # one S for two tracks
        ((2, 3), (2, 3, 3, 1)),
        ((2, 4, 3), (2, 3, 3, 3)),     # one S fewer than stacked rows
        ((2, 0, 3), (2, 0, 3, 3)),     # no row to gate on
        ((2, 2), (2, 2, 2)),
    ])
    def test_mismatched_z_pred_and_s_rejected(self, z_shape, s_shape):
        # neither reshaped into other tracks nor a raw reshape ValueError
        with pytest.raises(ValidationError, match="z_pred"):
            gate(np.zeros(z_shape), np.ones(s_shape), np.zeros((1, 3)),
                 self.params)

    def test_empty_detections_and_tracks_accepted(self):
        g = gate(np.zeros((2, 3)), np.broadcast_to(np.eye(3), (2, 3, 3)),
                 np.zeros((0, 3)), self.params)
        assert g.d2.shape == g.feasible.shape == (2, 0)
        g = gate(np.zeros((0, 4, 3)), np.zeros((0, 4, 3, 3)),
                 np.zeros((2, 3)), self.params)
        assert g.d2.shape == (0, 2) and g.rest.y.shape == (0, 3, 2, 3)

    def test_singular_model_s_raises_from_the_update(self):
        # one model's S is singular while the fused S is not: the tracker's
        # stacked gate passes, and the update it feeds raises
        cfg = FilterConfig()
        P = np.stack([np.eye(6)] * 3)
        P[1, :3, :3] = -cfg.R
        pred = IMMState(x=np.zeros((1, 3, 6)), P=P[None],
                        mu=np.full((1, 3), 1 / 3))
        dets = np.array([[0.1, 0.0, 0.0]])
        g = gate(*pred.measurement_stack(cfg.R), dets, self.params)
        assert g.notes == [] and g.feasible.all()
        with pytest.raises(NumericalError, match="singular"):
            imm_correct(pred, dets, [0], cfg, g.rest)
        with pytest.raises(NumericalError, match="singular"):
            imm_correct(pred, dets, [0], cfg)


class TestBuildCost:
    params = JpdaParams()
    # one track with no confident history: NaN anchor, zero velocity
    bare = (np.full((1, 3), np.nan), np.full(1, np.nan), np.zeros((1, 3)))

    def test_pure_mahalanobis_weights(self):
        dets = np.array([[0.5, 0, 0]])
        g = gate(*view(), dets, self.params)
        cost = build_cost(dets, g, *self.bare, (1.0, 0.0, 0.0), t_now=1.0)
        assert cost[0, 0] == pytest.approx(g.d2[0, 0])

    def test_anchor_vanishes_without_history(self):
        dets = np.array([[0.5, 0, 0]])
        g = gate(*view(), dets, self.params)
        c_full = build_cost(dets, g, *self.bare, (1.0, 10.0, 10.0), t_now=1.0)
        c_bare = build_cost(dets, g, *self.bare, (1.0, 0.0, 0.0), t_now=1.0)
        assert np.allclose(c_full, c_bare)

    def test_infeasible_all_unassigned(self):
        dets = np.array([[100.0, 0, 0]])
        g = gate(*view(), dets, self.params)
        cost = build_cost(dets, g, *self.bare, (1.0, 0.3, 0.3), t_now=1.0)
        assert hungarian(cost).tolist() == [-1]

    def test_detections_not_three_columns_rejected(self):
        g = gate(*view(), np.zeros((3, 3)), self.params)
        with pytest.raises(ValidationError, match="build_cost needs"):
            build_cost(np.arange(6.0).reshape(3, 2), g, *self.bare,
                       (1.0, 0.3, 0.3), t_now=1.0)

    def test_detection_count_other_than_the_gate_rejected(self):
        g = gate(*view(), np.zeros((2, 3)), self.params)
        with pytest.raises(ValidationError, match="build_cost needs"):
            build_cost(np.zeros((3, 3)), g, *self.bare, (1.0, 0.3, 0.3),
                       t_now=1.0)

    @pytest.mark.parametrize("which, bad", [
        (0, np.zeros((2, 3))),         # an anchor for a track the gate lacks
        (0, np.zeros(3)),
        (1, np.zeros(2)),
        (1, np.zeros((1, 1))),
        (2, np.zeros((1, 2))),
        (2, np.zeros(3)),
    ])
    def test_one_row_per_gate_row_required(self, which, bad):
        # a short row is not dropped by zip, and a long one gives no raw
        # reshape ValueError
        g = gate(*view(), np.zeros((2, 3)), self.params)
        rows = list(self.bare)
        rows[which] = bad
        with pytest.raises(ValidationError, match="build_cost needs"):
            build_cost(np.zeros((2, 3)), g, *rows, (1.0, 0.3, 0.3),
                       t_now=1.0)

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
            g = gate(z, np.broadcast_to(np.eye(3), (n, 3, 3)), dets,
                     self.params)
            cost = build_cost(dets, g, anchor, anchor_t, vel, weights,
                              t_now=1.0)
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


def array_cost(dets, gate_result, anchor, anchor_t, velocity, weights,
               t_now):
    """`build_cost`'s formula as whole-array numpy operations."""
    w_m, w_a, w_v = weights
    feasible = gate_result.feasible
    has = ~np.isnan(anchor_t)[:, None]
    diff = dets - anchor[:, None]
    lag = t_now - anchor_t
    moving = lag > 0                                    # False where NaN
    implied = diff / np.where(moving, lag, 1.0)[:, None, None]
    miss = np.linalg.norm(implied - velocity[:, None], axis=2)
    cost = w_m * np.where(feasible, gate_result.d2, 0.0) \
        + np.where(has, w_a * np.linalg.norm(diff, axis=2), 0.0) \
        + np.where(moving[:, None], w_v * miss, 0.0)
    return np.where(feasible, np.minimum(cost, SENTINEL_COST - 1.0),
                    SENTINEL_COST)


class TestBuildCostBits:
    """build_cost on Python floats against its formula on arrays, bit for
    bit."""

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_equals_array_formula(self, data):
        # NaN anchors, anchors not older than t_now, infeasible pairs, d2
        # whose cost is clamped to SENTINEL_COST - 1, a lag so small that
        # the implied velocity overflows to inf, and zero weights (0 * inf)
        n = data.draw(st.integers(0, 8))
        m = data.draw(st.integers(0, 8))
        coord = st.floats(-50.0, 50.0) | st.sampled_from((0.0, -0.0))
        point = st.tuples(coord, coord, coord)
        t_now = data.draw(st.sampled_from((0.0, 1.0, 123.4)))
        anchor_t = data.draw(st.lists(st.sampled_from(
            (np.nan, t_now, t_now + 0.5, t_now - 0.1, t_now - 5e-324,
             t_now - 1e-310)), min_size=n, max_size=n))
        anchor = [(np.nan,) * 3 if np.isnan(a_t) else data.draw(point)
                  for a_t in anchor_t]
        d2 = data.draw(st.lists(st.lists(
            st.floats(0.0, 10.0) | st.sampled_from((0.0, 2e9, 1e300)),
            min_size=m, max_size=m), min_size=n, max_size=n))
        feasible = data.draw(st.lists(st.lists(
            st.booleans(), min_size=m, max_size=m), min_size=n, max_size=n))
        g = GateResult(d2=np.array(d2, dtype=float).reshape(n, m),
                       feasible=np.array(feasible, dtype=bool).reshape(n, m),
                       loglik=np.zeros((n, m)))
        weight = st.floats(0.0, 10.0) | st.just(0.0)
        args = (np.array(data.draw(st.lists(point, min_size=m, max_size=m)),
                         dtype=float).reshape(m, 3), g,
                np.array(anchor, dtype=float).reshape(n, 3),
                np.array(anchor_t, dtype=float),
                np.array(data.draw(st.lists(point, min_size=n, max_size=n)),
                         dtype=float).reshape(n, 3),
                (data.draw(weight), data.draw(weight), data.draw(weight)),
                t_now)
        got = build_cost(*args)
        with np.errstate(all="ignore"):     # the array formula's overflow
            want = array_cost(*args)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def scipy_assignment(cost: np.ndarray) -> np.ndarray:
    """`hungarian`'s result built from scipy's solver: the assigned column
    of each row, -1 where there is none or it is at the sentinel cost."""
    rows, cols = linear_sum_assignment(cost)
    keep = cost[rows, cols] < SENTINEL_COST - 0.5
    assigned = np.full(len(cost), -1)
    assigned[rows[keep]] = cols[keep]
    return assigned


@st.composite
def cost_matrices(draw):
    """Empty, wide, tall and square matrices of uniform costs or of small
    integers (many ties), sometimes with many sentinel entries."""
    shape = draw(st.tuples(st.integers(0, 7), st.integers(0, 7)))
    cell = draw(st.sampled_from([
        st.floats(0.0, 100.0), st.integers(0, 3).map(float),
        st.floats(-1e6, 1e6)]))
    if draw(st.booleans()):
        cell = st.one_of(cell, st.just(SENTINEL_COST))
    return draw(hnp.arrays(float, shape, elements=cell))


class TestHungarian:
    @settings(max_examples=1000, deadline=None)
    @given(cost_matrices())
    def test_equals_scipy(self, cost):
        got, want = hungarian(cost), scipy_assignment(cost)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_rejects_a_non_matrix(self):
        for bad in (np.zeros(3), np.zeros((2, 2, 2)), 1.0):
            with pytest.raises(ValidationError, match="matrix"):
                hungarian(bad)

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


def event_weights(g, params: JpdaParams) -> tuple[np.ndarray, float]:
    """(sum of the weights of the events in which track i takes column c
    (0 miss, j + 1 detection j), total weight) over every joint event: each
    track takes a distinct gated detection or misses, with weight
    prod(Pd * N_ij / lambda_c) over its assignments times (1 - Pd) per
    miss. Events are visited, and their weights multiplied, in `jpda`'s
    order."""
    n, m = g.feasible.shape
    acc = np.zeros((n, m + 1))
    total = 0.0
    for event in itertools.product(range(-1, m), repeat=n):
        dets = [j for j in event if j >= 0]
        if len(set(dets)) < len(dets) or not all(
                j < 0 or g.feasible[i, j] for i, j in enumerate(event)):
            continue
        w = math.prod(1 - params.Pd if j < 0 else
                      params.Pd * math.exp(g.loglik[i, j]) / params.lambda_c
                      for i, j in enumerate(event))
        total += w
        for i, j in enumerate(event):
            acc[i, j + 1] += w
    return acc, total


def brute_force_jpda(g, params: JpdaParams) -> np.ndarray:
    """JPDA marginals from every joint event."""
    acc, total = event_weights(g, params)
    return acc / total


class TestJpda:
    def test_matches_brute_force_marginals(self):
        # 1-4 tracks and 0-5 detections in one 3 m box, so gates overlap:
        # detections shared by several tracks, tracks with several
        # detections, and events that leave a shared detection to either
        rng = np.random.default_rng(21)
        shared = 0
        for _ in range(300):
            n, m = int(rng.integers(1, 5)), int(rng.integers(0, 6))
            params = JpdaParams(Pd=float(rng.uniform(0.3, 0.99)),
                                lambda_c=float(10 ** rng.uniform(-4, -1)))
            tracks = views(*rng.uniform(-1.5, 1.5, size=(n, 3)))
            dets = rng.uniform(-1.5, 1.5, size=(m, 3))
            g = gate(*tracks, dets, params)
            shared += bool((g.feasible.sum(axis=0) >= 2).any())
            np.testing.assert_allclose(jpda(g, params),
                                       brute_force_jpda(g, params),
                                       rtol=0, atol=1e-12)
        assert shared >= 100

    def test_marginals_equal_the_array_post_processing(self):
        # the marginals are normalised on Python lists; the array form they
        # replace divided by the total, set beta0 to 1 minus the row sum of
        # the rest and clipped to [0, 1]
        rng = np.random.default_rng(22)
        for _ in range(300):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            params = JpdaParams(Pd=float(rng.uniform(0.3, 0.99)),
                                lambda_c=float(10 ** rng.uniform(-4, -1)))
            tracks = views(*rng.uniform(-1.5, 1.5, size=(n, 3)))
            g = gate(*tracks, rng.uniform(-1.5, 1.5, size=(m, 3)), params)
            acc, total = event_weights(g, params)
            want = acc / total
            want[:, 0] = 1.0 - want[:, 1:].sum(axis=1)
            np.clip(want, 0.0, 1.0, out=want)
            beta = jpda(g, params)
            np.testing.assert_allclose(beta, want, rtol=0, atol=1e-15)
            assert ((beta >= 0.0) & (beta <= 1.0)).all()

    def test_two_event_formula(self):
        params = JpdaParams(Pd=0.7, lambda_c=1e-4)
        tracks = view()
        dets = np.array([[0.5, 0.2, -0.1]])
        g = gate(*tracks, dets, params)
        beta = jpda(g, params)
        lam = math.exp(g.loglik[0, 0])
        expected = params.Pd * lam / (params.Pd * lam
                                      + (1 - params.Pd) * params.lambda_c)
        assert beta[0, 1] == pytest.approx(expected, abs=1e-12)
        assert beta[0, 0] == pytest.approx(1 - expected, abs=1e-12)

    def test_symmetric_split(self):
        tracks = views((-1, 0, 0), (1, 0, 0))
        dets = np.zeros((1, 3))
        params = JpdaParams()
        g = gate(*tracks, dets, params)
        beta = jpda(g, params)
        assert beta[0, 1] == pytest.approx(beta[1, 1], abs=1e-12)

    def test_no_gated_detections(self):
        tracks = views((0, 0, 0), (5, 5, 5))
        dets = np.array([[100.0, 0, 0]])
        params = JpdaParams()
        g = gate(*tracks, dets, params)
        beta = jpda(g, params)
        assert np.allclose(beta[:, 0], 1.0)

    def test_single_feasible_event_hard_assignment(self):
        # Pd = 1 and disjoint gates: the only surviving event is the
        # diagonal assignment; beta must be exactly 0/1.
        params = JpdaParams(Pd=1.0)
        tracks = views((0, 0, 0), (50, 0, 0))
        dets = np.array([[0.1, 0, 0], [50.1, 0, 0]])
        g = gate(*tracks, dets, params)
        beta = jpda(g, params)
        assert beta[0, 1] == 1.0 and beta[1, 2] == 1.0
        assert beta[0, 0] == 0.0 and beta[1, 0] == 0.0

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(7)
        params = JpdaParams()
        for _ in range(100):
            n, m = rng.integers(1, 5, size=2)
            tracks = views(*[rng.uniform(-2, 2, 3) for _ in range(n)])
            dets = rng.uniform(-2, 2, size=(m, 3))
            g = gate(*tracks, dets, params)
            beta = jpda(g, params)
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
        g = gate(*tracks, dets, params)
        with pytest.raises(NumericalError, match="not finite"):
            jpda(g, params)

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

    @pytest.mark.parametrize("row", [[1.5, -0.5], [-0.5, 1.5],
                                     [0.5, 0.7, -0.2]])
    def test_beta_entries_outside_unit_interval_rejected(self, row):
        # each row sums to 1, but an entry lies outside [0, 1]
        dets = np.zeros((len(row) - 1, 3))
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            self.update(self.state(), dets, np.array(row))

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
