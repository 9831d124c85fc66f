"""Acceptance suite: one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`); the
test verdict itself carries the same information under `pytest -v`.
"""
import dataclasses
import itertools
import time

import numpy as np
import pytest
from click.testing import CliRunner

from sparsetrack.association import (JpdaParams, TrackView, gate, hungarian,
                                     jpda)
from sparsetrack.cli import main as cli_main
from sparsetrack.detector import Detector, DetectorConfig, dbscan, get_preset
from sparsetrack.filter import (FilterConfig, KState, imm_init, imm_step,
                                kf_predict, kf_update)
from sparsetrack.metrics import DetectionReport, eval_detection, eval_mot
from sparsetrack.simulator import (Scenario, SensorModel, TRACKING_SENSOR,
                                   run_scenario)
from sparsetrack.trackman import Tracker, TrackerConfig

from test_detector import partition, reference_dbscan
from test_metrics import frame, make_gt


def report(ok: bool, label: str) -> None:
    print(("PASS" if ok else "FAIL") + f": {label}")
    assert ok, label


def detect_frames(scans, preset="A_s"):
    det = Detector(get_preset(preset))
    return [(s.t, det.detect(s)) for s in scans]


def test_criterion_01_hungarian_optimality():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    perm_cache = {n: np.array(list(itertools.permutations(range(n))))
                  for n in range(1, 8)}
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        cost = rng.uniform(0, 10, size=(n, n))
        pairs, _, _ = hungarian(cost)
        total = sum(cost[i, j] for i, j in pairs)
        perms = perm_cache[n]
        brute = cost[np.arange(n), perms].sum(axis=1).min()
        assert total == pytest.approx(brute, abs=1e-12)
    elapsed = time.perf_counter() - t0
    report(elapsed < 5.0,
           f"criterion 1: Hungarian = brute force on 1000 matrices "
           f"({elapsed:.2f}s < 5s)")


def test_criterion_02_dbscan_oracle_equivalence():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(0, 201))
        pts = rng.uniform(-5, 5, size=(n, 3))
        eps = float(rng.uniform(0.3, 1.5))
        mp = int(rng.integers(1, 6))
        assert partition(dbscan(pts, eps, mp)) == \
            partition(reference_dbscan(pts, eps, mp))
    elapsed = time.perf_counter() - t0
    report(elapsed < 10.0,
           f"criterion 2: DBSCAN = naive reference on 500 clouds "
           f"({elapsed:.2f}s < 10s)")


def test_criterion_03_jpda_normalization():
    rng = np.random.default_rng(303)
    params = JpdaParams()
    for _ in range(1000):
        n, m = rng.integers(1, 5, size=2)
        tracks = [TrackView(z_pred=rng.uniform(-3, 3, 3), S=np.eye(3))
                  for _ in range(n)]
        dets = rng.uniform(-3, 3, size=(m, 3))
        g = gate(tracks, dets, params)
        beta = jpda(tracks, dets, g, params)
        assert np.allclose(beta.sum(axis=1), 1.0, atol=1e-9)
    # single-feasible-event cases: Pd = 1 with disjoint gates
    hard = JpdaParams(Pd=1.0)
    for n in (1, 2, 3):
        tracks = [TrackView(z_pred=np.array([30.0 * i, 0, 0]), S=np.eye(3))
                  for i in range(n)]
        dets = np.array([[30.0 * i + 0.2, 0, 0] for i in range(n)])
        g = gate(tracks, dets, hard)
        beta = jpda(tracks, dets, g, hard)
        want = np.zeros((n, n + 1))
        for i in range(n):
            want[i, i + 1] = 1.0
        assert np.array_equal(beta, want)
    report(True, "criterion 3: JPDA rows sum to 1 (1e-9, 1000 cases); "
                 "single-event cases are exact hard assignments")


def test_criterion_04_imm_degeneracy():
    rng = np.random.default_rng(404)
    cfg_base = FilterConfig()
    for model in range(cfg_base.n_models):
        mu0 = np.zeros(cfg_base.n_models)
        mu0[model] = 1.0
        cfg = FilterConfig(Pi=np.eye(cfg_base.n_models), mu0=mu0)
        s = imm_init((1.0, -2.0, 3.0), cfg)
        ref = KState(x=s.x[model], P=s.P[model])
        q = cfg.q_levels[model]
        for _ in range(1000):
            z = rng.normal(scale=2.0, size=3) + (1.0, -2.0, 3.0)
            s = imm_step(s, 0.1, z, cfg)
            ref = kf_predict(ref, 0.1, q)
            ref, _, _, _ = kf_update(ref, z, cfg.R)
            assert np.allclose(s.fused.x, ref.x, atol=1e-10)
            assert np.allclose(s.fused.P, ref.P, atol=1e-10)
            assert s.mu[model] == pytest.approx(1.0, abs=1e-12)
    report(True, "criterion 4: IMM with Pi=I and one-hot mu0 matches the "
                 "single Kalman filter to 1e-10 over 1000 steps")


def test_criterion_05_covariance_hygiene():
    rng = np.random.default_rng(505)
    cfg = FilterConfig()
    steps = 0
    while steps < 10_000:
        s = imm_init(rng.uniform(-10, 10, 3), cfg)
        for _ in range(25):
            if rng.random() < 0.25:
                z = None
            else:
                z = s.fused.x[:3] + rng.normal(scale=1.0, size=3)
            s = imm_step(s, float(rng.uniform(0.05, 0.3)), z, cfg)
            steps += 1
            for P in [*s.P, s.fused.P]:
                assert np.allclose(P, P.T, atol=1e-9)
                assert np.linalg.eigvalsh(P).min() >= -1e-9
    report(True, "criterion 5: covariances symmetric PSD (eig >= -1e-9) "
                 "over 10000 randomized steps incl. misses")


def test_criterion_06_mota_formula():
    A = np.array([0.0, 0.0, 10.0])
    B = np.array([10.0, 0.0, 10.0])
    # permanent swap over 4 frames: IDSW = 2 (one per identity)
    gt = make_gt(np.stack([np.stack([A, B])] * 4))
    swap_log = [
        frame(0.0, [(1, A), (2, B)]),
        frame(0.1, [(1, A), (2, B)]),
        frame(0.2, [(2, A), (1, B)]),
        frame(0.3, [(2, A), (1, B)]),
    ]
    rep = eval_mot(swap_log, gt)
    assert rep.id_switches == 2
    assert rep.mota == pytest.approx(1.0 - 2 / 8)
    # mixed toy: FP=1, FN=2, IDSW=1 on gt_total=8 -> MOTA = 0.5
    mixed_log = [
        frame(0.0, [(1, A), (2, B), (9, np.array([50.0, 0, 0]))]),
        frame(0.1, [(1, A), (2, B)]),
        frame(0.2, [(3, A), (2, B)]),
        frame(0.3, [(3, A)]),
    ]
    rep = eval_mot(mixed_log, gt)
    assert (rep.fp, rep.fn, rep.id_switches) == (1, 1, 1)
    assert rep.mota == pytest.approx(1.0 - 3 / 8)
    # perfect log
    perfect = [frame(0.1 * k, [(1, A), (2, B)]) for k in range(4)]
    rep = eval_mot(perfect, gt)
    assert rep.mota == pytest.approx(1.0) and rep.id_switches == 0
    report(True, "criterion 6: eval_mot matches hand-computed MOTA/IDSW on "
                 "4-frame toys incl. permanent swap (IDSW=2)")


def test_criterion_07_minpts_sparsity_sweep():
    t0 = time.perf_counter()
    sensor = SensorModel(p_hit=0.95,
                         n_return_dist={1: 0.45, 2: 0.35, 3: 0.15, 4: 0.05},
                         sigma_meas=0.08, clutter_rate=0.0)
    scans, gt = run_scenario(Scenario(kind="separated", n_frames=400, seed=7,
                                      sensor=sensor))
    base = DetectorConfig(eps0=0.5, voxel=0.01)
    pcts = []
    for mp in (1, 2, 3, 4):
        det = Detector(dataclasses.replace(base, min_pts=mp))
        frames = [det.detect(s) for s in scans]
        pcts.append(eval_detection(frames, gt).det_pct)
    elapsed = time.perf_counter() - t0
    strictly_decreasing = all(a > b for a, b in zip(pcts, pcts[1:]))
    ratio = pcts[0] / pcts[3]
    report(strictly_decreasing and ratio >= 3.0 and elapsed < 30.0,
           f"criterion 7: det_pct strictly decreasing over minPts 1..4 "
           f"({['%.1f' % p for p in pcts]}), ratio {ratio:.1f} >= 3 "
           f"({elapsed:.1f}s < 30s)")


def test_criterion_08_identity_switch_comparison():
    t0 = time.perf_counter()
    idsw = {"hungarian": [], "jpda": []}
    mota = {"hungarian": [], "jpda": []}
    for seed in range(20):
        scans, gt = run_scenario(Scenario(kind="crossings", seed=seed))
        frames = detect_frames(scans, "A_s")
        for mode in idsw:
            tracker = Tracker(TrackerConfig(association_mode=mode))
            log = [tracker.step(ms, t) for t, ms in frames]
            rep = eval_mot(log, gt)
            idsw[mode].append(rep.id_switches)
            mota[mode].append(rep.mota)
    elapsed = time.perf_counter() - t0
    mean_j, mean_h = np.mean(idsw["jpda"]), np.mean(idsw["hungarian"])
    dmota = abs(np.mean(mota["jpda"]) - np.mean(mota["hungarian"]))
    report(mean_j < mean_h and dmota <= 0.05 and elapsed < 180.0,
           f"criterion 8: crossings/A_s over 20 seeds, mean IDSW jpda "
           f"{mean_j:.2f} < hungarian {mean_h:.2f}, |dMOTA| {dmota:.3f} "
           f"<= 0.05 ({elapsed:.0f}s < 180s)")


def test_criterion_09_separated_control():
    t0 = time.perf_counter()
    switches = []
    for seed in range(20):
        scans, gt = run_scenario(Scenario(kind="separated", seed=seed))
        frames = detect_frames(scans, "A_s")
        for mode in ("hungarian", "jpda"):
            tracker = Tracker(TrackerConfig(association_mode=mode))
            log = [tracker.step(ms, t) for t, ms in frames]
            switches.append(eval_mot(log, gt).id_switches)
    elapsed = time.perf_counter() - t0
    report(all(s == 0 for s in switches) and elapsed < 120.0,
           f"criterion 9: separated over 20 seeds, IDSW = 0 in both modes "
           f"({elapsed:.0f}s < 120s)")


def test_criterion_10_occlusion_recovery():
    t0 = time.perf_counter()
    recovered = 0
    n_seeds = 50
    windows = ((40.0, 44.0, 0), (70.0, 74.0, 1))  # forced 4 s gaps
    sensor = dataclasses.replace(TRACKING_SENSOR, occlusion_windows=windows)
    for seed in range(n_seeds):
        scans, gt = run_scenario(Scenario(kind="occlusion", seed=seed,
                                          sensor=sensor))
        frames = detect_frames(scans, "A_s")
        tracker = Tracker(TrackerConfig(association_mode="jpda"))
        log = [tracker.step(ms, t) for t, ms in frames]

        def id_near(k, pos):
            best, best_d = None, 2.0
            for tr in log[k].tracks:
                if tr["status"] != "confirmed":
                    continue
                d = float(np.linalg.norm(tr["position"] - pos))
                if d < best_d:
                    best, best_d = tr["id"], d
            return best

        pre = id_near(395, gt.positions[395, 0])    # t = 39.5 s, before gap
        post = id_near(465, gt.positions[465, 0])   # t = 46.5 s, after gap
        if pre is not None and pre == post:
            recovered += 1
    elapsed = time.perf_counter() - t0
    report(recovered >= int(0.9 * n_seeds) and elapsed < 120.0,
           f"criterion 10: dormant resurrection keeps the original id in "
           f"{recovered}/{n_seeds} occlusion seeds (>= 90%), "
           f"({elapsed:.0f}s < 120s)")


def test_criterion_11_cli_determinism(tmp_path):
    runner = CliRunner()
    sim_bytes, track_bytes = [], []
    for attempt in ("r1", "r2"):
        d = tmp_path / attempt
        res = runner.invoke(cli_main, ["simulate", "--kind", "crossings",
                                       "--frames", "300", "--seed", "13",
                                       "--out", str(d)])
        assert res.exit_code == 0, res.output
        sim_bytes.append((d / "scans.jsonl").read_bytes()
                         + (d / "truth.jsonl").read_bytes())
        log = d / "log.jsonl"
        res = runner.invoke(cli_main, ["track", "--scans",
                                       str(d / "scans.jsonl"),
                                       "--preset", "A_s", "--truth",
                                       str(d / "truth.jsonl"),
                                       "--association", "jpda",
                                       "--out", str(log)])
        assert res.exit_code == 0, res.output
        track_bytes.append(log.read_bytes()
                           + (d / "log.report.json").read_bytes())
    report(sim_bytes[0] == sim_bytes[1] and track_bytes[0] == track_bytes[1],
           "criterion 11: simulate and track outputs are byte-identical "
           "across reruns with the same seed/config")


def test_criterion_12_table_self_consistency():
    rows = {  # name -> (tp, fp, fn, precision, recall)
        "O": (46, 1, 582, 0.979, 0.073),
        "A": (21, 0, 607, 1.000, 0.033),
        "B": (124, 45, 504, 0.734, 0.197),
        "C": (45, 1, 583, 0.978, 0.072),
        "D": (48, 1, 580, 0.980, 0.076),
        "S1": (189, 58, 439, 0.765, 0.301),
        "S4": (28, 0, 600, 1.000, 0.045),
    }
    for name, (tp, fp, fn, prec, rec) in rows.items():
        rep = DetectionReport.from_counts(tp, fp, fn)
        assert round(rep.precision, 3) == prec, name
        assert round(rep.recall, 3) == rec, name
    # The MR row is a documented known inconsistency: its published
    # precision/recall (0.891/0.804) do not follow from its own counts.
    mr = DetectionReport.from_counts(318, 36, 310)
    assert round(mr.precision, 3) == 0.898 and round(mr.precision, 3) != 0.891
    assert round(mr.recall, 3) == 0.506 and round(mr.recall, 3) != 0.804
    report(True, "criterion 12: precision/recall reproduce all "
                 "self-consistent table rows exactly; the MR row "
                 "inconsistency is asserted as documented")
