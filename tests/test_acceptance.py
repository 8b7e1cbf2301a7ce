"""End-to-end acceptance checks.

Each test pins one headline guarantee of the engine at its stated tolerance
and asserts a wall-clock budget around the workload.
"""

import math
import time

import numpy as np

import oracles
from actseg.align import CropGeometry, enhance, fallback_geometry, footprint
from actseg.classify import NoiseModel, make_synthetic_backend, synth_timeline
from actseg.cleaning import CleanerConfig, clean_timeline
from actseg.grid import FeatureMap, MixerWeights, mix_1x1, resize_nearest, zero_pad_place
from actseg.hands import HandLossConfig, HandTarget, hand_loss, hand_loss_grad
from actseg.metrics import edit_score, f1_at_iou
from actseg.pipeline import PipelineConfig, run_offline, stream_all
from actseg.refstats import reference_class_stats
from actseg.sampling import (clip_span_seconds, inference_clip, middle_offset,
                             prediction_lag, surround_sample_start)
from actseg.timeline import BACKGROUND_ID, segments_from_timeline

DEPLOY = dict(full_w=920, full_h=720, scale_short=256, crop_size=224,
              crop_off_x=50, crop_off_y=16, hand_w=224, hand_h=224)


def _sampled_timeline(rng, stats, n_actions=15):
    """Ground truth shaped like the reference stats: background-separated
    action segments whose lengths stay comfortably above their thresholds."""

    def draw(cid):
        st = stats[cid]
        lo = math.ceil(st.mean_frames - st.std_frames)
        hi = int(st.mean_frames + 3 * st.std_frames)
        n = int(np.rint(rng.normal(st.mean_frames, st.std_frames)))
        return min(max(n, lo), hi)

    labels = [BACKGROUND_ID] * draw(BACKGROUND_ID)
    for _ in range(n_actions):
        cid = int(rng.integers(0, BACKGROUND_ID))
        labels += [cid] * draw(cid)
        labels += [BACKGROUND_ID] * draw(BACKGROUND_ID)
    return np.asarray(labels, dtype=np.int64)


def test_deployment_geometry_footprint_is_twenty_by_twenty():
    t0 = time.perf_counter()
    g = CropGeometry(**DEPLOY, hand_x=348, hand_y=248)
    rows, cols, off_y, off_x = footprint(g, 56, 56)
    elapsed = time.perf_counter() - t0
    assert (rows, cols) == (20, 20)
    assert (off_y, off_x) == (18, 18)
    # the fallback central window lands on the same footprint
    fb = fallback_geometry(**DEPLOY)
    assert footprint(fb, 56, 56)[:2] == (20, 20)
    assert elapsed < 1.0, f"geometry took {elapsed:.3f}s"


def test_deployment_window_spans_four_and_a_quarter_seconds_with_lag_32():
    t0 = time.perf_counter()
    span = clip_span_seconds(8, 8, 15.0)
    lag = prediction_lag(8, 8)
    clip = inference_clip(500, 8, 8, 10_000)
    elapsed = time.perf_counter() - t0
    assert abs(span - 4.27) <= 0.01
    assert lag == 32
    assert clip.middle == 500 - 32
    assert elapsed < 1.0, f"window arithmetic took {elapsed:.3f}s"


def test_surround_sampling_covers_the_segment_and_never_escapes_it():
    rng = np.random.default_rng(7)
    n_s, n_e, t, tau = 100, 200, 8, 8
    d = middle_offset(t, tau)
    t0 = time.perf_counter()
    starts = np.fromiter(
        (surround_sample_start(n_s, n_e, t, tau, rng) for _ in range(100_000)),
        dtype=np.int64, count=100_000)
    elapsed = time.perf_counter() - t0
    middles = starts + d
    assert middles.min() >= n_s and middles.max() <= n_e
    assert middles.min() == n_s, "lower endpoint never sampled"
    assert middles.max() == n_e, "upper endpoint never sampled"
    assert elapsed < 5.0, f"100k draws took {elapsed:.2f}s"


def test_cleaning_removes_short_runs_and_improves_f1_on_synthetic_noise():
    stats = reference_class_stats()
    cfg = CleanerConfig(kappa=1.4, stats=stats)
    nm_base = dict(spike_rate=5.0, spike_len=3)
    t0 = time.perf_counter()
    gains = []
    for i in range(50):
        gt = _sampled_timeline(np.random.default_rng(1000 + i), stats)
        raw = synth_timeline(gt, NoiseModel(**nm_base, seed=i))
        cleaned = clean_timeline(raw, cfg)
        for seg in segments_from_timeline(cleaned):
            short = seg.length < cfg.threshold_for(seg.class_id)
            assert not short, (
                f"timeline {i}: finalized run of class {seg.class_id} has "
                f"length {seg.length} < threshold {cfg.threshold_for(seg.class_id)}"
            )
        gains.append(f1_at_iou(cleaned, gt, 0.5) - f1_at_iou(raw, gt, 0.5))
    elapsed = time.perf_counter() - t0
    assert np.mean(gains) > 0.0, f"mean F1@0.5 gain {np.mean(gains):.2f}"
    assert elapsed < 30.0, f"50 timelines took {elapsed:.2f}s"


def test_streaming_and_batch_inference_are_byte_identical():
    stats = reference_class_stats()
    shapes = [(8, 8), (1, 1), (2, 3), (3, 2), (5, 7), (16, 2), (4, 4), (7, 5),
              (8, 8), (6, 1), (1, 9), (2, 2), (9, 3), (8, 8), (3, 8), (5, 5),
              (10, 2), (2, 10), (8, 4), (4, 8)]
    t0 = time.perf_counter()
    for trial, (t, tau) in enumerate(shapes):
        rng = np.random.default_rng(300 + trial)
        n_segs = int(rng.integers(5, 15))
        gt = np.repeat(rng.integers(0, 25, n_segs),
                       rng.integers(10, 80, n_segs)).astype(np.int64)
        backend = make_synthetic_backend(
            gt, NoiseModel(substitution_prob=0.05, boundary_jitter_std=1.0,
                           spike_rate=2.0, spike_len=2, seed=trial))
        cleaner = CleanerConfig(kappa=1.4, stats=stats) if trial % 2 else None
        cfg = PipelineConfig(t=t, tau=tau, cleaner=cleaner)
        _, batch = run_offline(cfg, backend)
        streamed = stream_all(cfg, backend)
        assert batch.tobytes() == streamed.tobytes(), f"fixture {trial} diverged"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"20 fixtures took {elapsed:.2f}s"


def test_segment_metrics_match_brute_force_oracles_exactly():
    rng = np.random.default_rng(99)
    thresholds = (0.1, 0.25, 0.5)
    t0 = time.perf_counter()
    for case in range(1000):
        segs = int(rng.integers(1, 11))
        classes = rng.integers(0, 6, segs)
        classes[rng.random(segs) < 0.3] = BACKGROUND_ID
        lengths = rng.integers(1, 30, segs)
        gt = np.repeat(classes, lengths).astype(np.int64)
        # prediction: same length, independently segmented
        psegs = int(rng.integers(1, min(11, gt.size + 1)))
        pclasses = rng.integers(0, 6, psegs)
        pclasses[rng.random(psegs) < 0.3] = BACKGROUND_ID
        cuts = np.sort(rng.choice(np.arange(1, gt.size), psegs - 1, replace=False)) \
            if psegs > 1 else np.empty(0, dtype=np.int64)
        plengths = np.diff(np.concatenate(([0], cuts, [gt.size])))
        pred = np.repeat(pclasses[:plengths.size], plengths).astype(np.int64)
        thr = thresholds[case % 3]
        assert f1_at_iou(pred, gt, thr) == oracles.f1_at_iou_ref(pred, gt, thr)
        assert edit_score(pred, gt) == oracles.edit_score_ref(pred, gt)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"1000 instances took {elapsed:.2f}s"


def test_hand_loss_gradient_matches_central_differences():
    rng = np.random.default_rng(5)
    cfg = HandLossConfig()
    t0 = time.perf_counter()
    for case in range(1000):
        pred = rng.uniform(0.02, 0.98, 6)
        present = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        if case % 10 == 0:
            present = (0, 0)  # fully masked
        gt = (HandTarget(present[0], rng.uniform(), rng.uniform()),
              HandTarget(present[1], rng.uniform(), rng.uniform()))
        analytic = hand_loss_grad(pred, gt, cfg)
        fd = oracles.central_diff(lambda v: hand_loss(v, gt, cfg), pred, 1e-6)
        scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
        rel = np.abs(analytic - fd) / scale
        assert rel.max() <= 1e-6, f"case {case}: rel err {rel.max():.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"1000 gradient checks took {elapsed:.2f}s"


def test_enhancement_identity_locality_and_mass_conservation():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for _ in range(200):
        t = int(rng.integers(1, 4))
        c = int(rng.integers(1, 5))
        h, w = int(rng.integers(4, 15)), int(rng.integers(4, 15))
        f = FeatureMap(rng.standard_normal((t, c, h, w)))

        # zero mixer + identity bn reproduce the backbone map bit for bit
        hands = [FeatureMap(rng.standard_normal((t, c, 3, 3))) for _ in range(2)]
        geoms = [CropGeometry(500, 500, 250, 250, 0, 0, 100, 100,
                              int(rng.integers(0, 401)), int(rng.integers(0, 401)))
                 for _ in range(2)]
        out = enhance(f, hands[0], hands[1], geoms[0], geoms[1],
                      MixerWeights.zero(c, 3 * c))
        assert np.array_equal(out.values, f.values)

        # 1x1 mixing is purely per-pixel: a one-pixel edit stays one pixel
        wmix = MixerWeights.identity_bn(rng.standard_normal((c, c)))
        v2 = f.values.copy()
        i, j = int(rng.integers(0, h)), int(rng.integers(0, w))
        v2[:, :, i, j] += 1.0
        a = mix_1x1(f, wmix).values
        b = mix_1x1(FeatureMap(v2), wmix).values
        spared = np.ones((h, w), dtype=bool)
        spared[i, j] = False
        assert np.array_equal(a[:, :, spared], b[:, :, spared])

        # zero-pad placement: visible cells copied exactly, the rest zero
        sh, sw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        src = rng.standard_normal((t, c, sh, sw))
        oy, ox = int(rng.integers(-sh, h)), int(rng.integers(-sw, w))
        placed = zero_pad_place(FeatureMap(src), h, w, oy, ox)
        assert np.array_equal(placed.values, oracles.pad_place_ref(src, h, w, oy, ox))

        # resizing to the native grid is the identity
        assert np.array_equal(resize_nearest(f, h, w).values, f.values)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"200 maps took {elapsed:.2f}s"


def test_streaming_pipeline_sustains_real_time_label_rate():
    stats = reference_class_stats()
    rng = np.random.default_rng(42)
    n_segs = 400
    gt = np.repeat(rng.integers(0, 25, n_segs),
                   rng.integers(20, 90, n_segs)).astype(np.int64)
    backend = make_synthetic_backend(gt, NoiseModel(spike_rate=2.0, spike_len=2, seed=3))
    cfg = PipelineConfig(t=8, tau=8, cleaner=CleanerConfig(kappa=1.4, stats=stats))
    t0 = time.perf_counter()
    cleaned = stream_all(cfg, backend)
    elapsed = time.perf_counter() - t0
    rate = cleaned.size / elapsed
    assert rate >= 15.0, f"sustained only {rate:.1f} labels/s"
    assert elapsed < 60.0, f"{cleaned.size} frames took {elapsed:.2f}s"
