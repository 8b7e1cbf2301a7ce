import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import actseg
from actseg.sampling import (ClipSpec, center_sample_start, clip_span_seconds,
                             inference_clip, middle_clip, middle_offset, prediction_lag,
                             surround_sample_start, training_clip, window_offsets)


class TestInferenceClip:
    def test_deployment_configuration(self):
        c = inference_clip(100, 8, 8, 1000)
        assert c.frames == (44, 52, 60, 68, 76, 84, 92, 100)
        assert c.middle == 68
        assert c.middle == 100 - prediction_lag(8, 8)

    def test_small_clip(self):
        c = inference_clip(100, 4, 2, 1000)
        assert c.frames == (94, 96, 98, 100)
        assert c.middle == 96

    def test_leading_clamp(self):
        c = inference_clip(5, 8, 8, 1000)
        assert c.frames == (0, 0, 0, 0, 0, 0, 0, 5)
        assert c.middle == 0

    def test_single_frame(self):
        c = inference_clip(42, 1, 8, 1000)
        assert c.frames == (42,)
        assert c.middle == 42
        assert prediction_lag(1, 8) == 0

    def test_stride_honored_away_from_edges(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = int(rng.integers(1, 12))
            tau = int(rng.integers(1, 10))
            t0 = int(rng.integers((t - 1) * tau, (t - 1) * tau + 500))
            c = inference_clip(t0, t, tau, t0 + 1)
            assert len(c.frames) == t
            assert c.frames[-1] == t0
            diffs = np.diff(c.frames)
            assert np.all(diffs == tau)
            assert c.middle == t0 - prediction_lag(t, tau)
            assert c.middle in c.frames

    def test_out_of_range_trigger_rejected(self):
        with pytest.raises(ValueError):
            inference_clip(10, 8, 8, 10)
        with pytest.raises(ValueError):
            inference_clip(-1, 8, 8, 10)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            inference_clip(5, 0, 8, 10)
        with pytest.raises(ValueError):
            inference_clip(5, 8, 0, 10)
        with pytest.raises(ValueError, match=r"^t must be an integer >= 1, got 8\.0$"):
            inference_clip(50, 8.0, 8, 100)  # it gave float frames


class TestWindowOffsets:
    def test_deployment_configuration(self):
        assert window_offsets(8, 8).tolist() == [-24, -16, -8, 0, 8, 16, 24, 32]

    def test_single_frame(self):
        assert window_offsets(1, 5).tolist() == [0]

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            window_offsets(0, 8)
        with pytest.raises(ValueError):
            window_offsets(8, 0)
        for t, tau, message in [(8.0, 8, "t must be an integer >= 1, got 8.0"),
                                (8, 2.5, "tau must be an integer >= 1, got 2.5"),
                                (8, "8", "tau must be an integer >= 1, got '8'")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                window_offsets(t, tau)

    @pytest.mark.parametrize("t, tau", [(8, 3 * 10**18), (8, 2**62), (2, 2**62 + 1), (2**62, 2)])
    def test_span_beyond_int64_rejected(self, t, tau):
        # offsets or frame + offset would wrap in int64, or overflow converting to it
        with pytest.raises(ValueError, match=f"t={t} and tau={tau} "):
            window_offsets(t, tau)

    def test_widest_span_fits_int64(self):
        offsets = window_offsets(2, 2**62)
        assert offsets.tolist() == [0, 2**62]
        assert (offsets + (2**62 - 1)).tolist() == [2**62 - 1, 2**63 - 1]
        assert window_offsets(3, 2**61).tolist() == [-(2**61), 0, 2**61]


class TestMiddleClip:
    def test_recovers_inference_clip(self):
        a = inference_clip(100, 8, 8, 1000)
        b = middle_clip(68, 8, 8, 1000)
        assert a == b

    def test_tail_clamps_forward(self):
        c = middle_clip(99, 8, 8, 100)
        assert c.middle == 99
        assert max(c.frames) == 99
        assert min(c.frames) == 99 - 3 * 8

    def test_out_of_range_middle_rejected(self):
        for middle in (100, -1):
            with pytest.raises(ValueError, match=rf"^middle must be in \[0, 100\), got {middle}$"):
                middle_clip(middle, 8, 8, 100)

    def test_every_middle_is_reachable(self):
        seq_len = 300
        for m in range(seq_len):
            c = middle_clip(m, 8, 8, seq_len)
            assert c.middle == m
            assert all(0 <= f < seq_len for f in c.frames)


class TestTrainingClip:
    def test_grows_forward(self):
        c = training_clip(10, 4, 3)
        assert c.frames == (10, 13, 16, 19)
        assert c.middle == 13

    def test_negative_start_clamps(self):
        c = training_clip(-5, 4, 3)
        assert c.frames == (0, 0, 1, 4)

    def test_seq_len_clamps_tail(self):
        c = training_clip(10, 4, 3, seq_len=15)
        assert c.frames == (10, 13, 14, 14)


class TestSurroundSampling:
    def test_support_bounds(self):
        rng = np.random.default_rng(123)
        starts = {surround_sample_start(100, 200, 8, 8, rng) for _ in range(20000)}
        assert min(starts) == 100 - middle_offset(8, 8)
        assert max(starts) == 200 - middle_offset(8, 8)
        assert min(starts) == 76 and max(starts) == 176

    def test_middles_cover_segment_exactly(self):
        rng = np.random.default_rng(7)
        n_s, n_e = 100, 200
        middles = []
        for _ in range(20000):
            start = surround_sample_start(n_s, n_e, 8, 8, rng)
            middles.append(training_clip(start, 8, 8).middle)
        assert min(middles) == n_s
        assert max(middles) == n_e
        assert all(n_s <= m <= n_e for m in middles)

    def test_degenerate_segment_is_deterministic(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            start = surround_sample_start(150, 150, 8, 8, rng)
            assert start == 150 - middle_offset(8, 8)
            assert training_clip(start, 8, 8).middle == 150

    def test_seeded_reproducibility(self):
        a = [surround_sample_start(10, 90, 8, 4, np.random.default_rng(s)) for s in range(20)]
        b = [surround_sample_start(10, 90, 8, 4, np.random.default_rng(s)) for s in range(20)]
        assert a == b

    def test_property_for_random_shapes(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            t = int(rng.integers(1, 10))
            tau = int(rng.integers(1, 8))
            n_s = int(rng.integers(0, 500))
            n_e = n_s + int(rng.integers(0, 100))
            start = surround_sample_start(n_s, n_e, t, tau, rng)
            mid = training_clip(start, t, tau).middle
            assert n_s <= mid <= n_e

    def test_inverted_segment_rejected(self):
        with pytest.raises(ValueError):
            surround_sample_start(10, 9, 8, 8, np.random.default_rng(0))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^t must be an integer >= 1, got 8\.0$"):
            surround_sample_start(10, 20, 8.0, 8, np.random.default_rng(0))


class TestCenterSampling:
    def test_reference_segment(self):
        start = center_sample_start(100, 200, 8, 8)
        assert training_clip(start, 8, 8).middle == 150
        assert start == 126

    def test_odd_segment_rounds_the_midpoint_down(self):
        start = center_sample_start(100, 201, 8, 8)
        assert start == 126 and isinstance(start, int)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^tau must be an integer >= 1, got 0$"):
            center_sample_start(100, 200, 8, 0)

    def test_short_segment(self):
        start = center_sample_start(0, 64, 8, 8)
        assert training_clip(start, 8, 8).middle == 32
        assert start == 8

    def test_degenerate_segment(self):
        start = center_sample_start(40, 40, 8, 8)
        assert start == 40 - middle_offset(8, 8)
        assert training_clip(start, 8, 8).middle == 40

    def test_midpoint_property(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            t = int(rng.integers(1, 10))
            tau = int(rng.integers(1, 8))
            n_s = int(rng.integers(0, 500))
            n_e = n_s + int(rng.integers(0, 200))
            start = center_sample_start(n_s, n_e, t, tau)
            assert training_clip(start, t, tau).middle == n_s + (n_e - n_s) // 2


class TestSpan:
    def test_deployment_span(self):
        assert clip_span_seconds(8, 8, 15.0) == pytest.approx(4.27, abs=0.01)
        assert clip_span_seconds(8, 8, 15.0) == pytest.approx(64 / 15, abs=1e-12)

    def test_single_frame_span(self):
        assert clip_span_seconds(1, 1, 10.0) == pytest.approx(0.1)
        assert clip_span_seconds(1, 1, 0.5) == 2.0  # a rate below 1 fps is a rate

    def test_bad_fps_rejected(self):
        for fps in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^fps must be finite and > 0, got "):
                clip_span_seconds(8, 8, fps)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^t must be an integer >= 1, got 0$"):
            clip_span_seconds(0, 8, 15.0)


class TestClipSpecInvariants:
    def test_clip_length_and_stride(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            t = int(rng.integers(1, 12))
            tau = int(rng.integers(1, 9))
            start = int(rng.integers(0, 400))
            c = training_clip(start, t, tau)
            assert isinstance(c, ClipSpec)
            assert len(c.frames) == t
            assert all(b - a == tau for a, b in zip(c.frames, c.frames[1:]))
            assert c.middle == c.frames[0] + middle_offset(t, tau)
            assert middle_offset(t, tau) + prediction_lag(t, tau) == (t - 1) * tau


def test_import_actseg_loads_no_numpy_random():
    # surround_sample_start's Generator annotation is a string, because evaluating it at
    # import loads numpy.random. numpy 1.24 loads it itself, so compare with numpy alone.
    code = ("import sys, numpy; alone = 'numpy.random' in sys.modules; import actseg; "
            "print(alone, 'numpy.random' in sys.modules)")
    src = str(Path(actseg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    alone, with_actseg = result.stdout.split()
    assert with_actseg == alone
