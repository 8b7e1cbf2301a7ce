import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from actseg.align import (CropGeometry, alignment, enhance, fallback_geometry, footprint,
                          load_geometry, place_hand_features)
from actseg.grid import FeatureMap, MixerWeights
from oracles import enhance_ref

# downscale-shorter-side-to-256, center-crop-224 deployment geometry
REF = dict(full_w=920, full_h=720, scale_short=256, crop_size=224,
           crop_off_x=50, crop_off_y=16, hand_w=224, hand_h=224)


def ref_geometry(hand_x=348, hand_y=248):
    return CropGeometry(**REF, hand_x=hand_x, hand_y=hand_y)


def normalized_size(g):
    return dataclasses.astuple(alignment(g))[:2]


def normalized_offset(g):
    return dataclasses.astuple(alignment(g))[2:]


class TestNormalizedSize:
    def test_reference_configuration(self):
        nw, nh = normalized_size(ref_geometry())
        assert nw == pytest.approx(256 / 720, abs=1e-12)
        assert nh == pytest.approx(256 / 720, abs=1e-12)

    def test_ratios_cancel(self):
        g = CropGeometry(500, 500, 250, 250, 0, 0, 500, 500, 0, 0)
        nw, nh = normalized_size(g)
        assert nw == pytest.approx(1.0)
        assert nh == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        g = CropGeometry(600, 500, 250, 125, 0, 0, 100, 50, 0, 0)
        nw, nh = normalized_size(g)
        assert nw == pytest.approx(0.4, abs=1e-12)
        assert nh == pytest.approx(0.2, abs=1e-12)


class TestNormalizedOffset:
    def test_zero_when_hand_matches_crop_origin(self):
        # hand_x * 256/720 = 50 at hand_x = 140.625; use a geometry where it lands exactly
        g = CropGeometry(920, 720, 256, 224, 32, 16, 224, 224, 90, 45)
        nx, ny = normalized_offset(g)
        assert nx == pytest.approx((90 * 256 / 720 - 32) / 224, abs=1e-12)
        assert ny == pytest.approx(0.0, abs=1e-12)

    def test_centered_hand_in_reference_frame(self):
        nx, ny = normalized_offset(ref_geometry())
        assert nx == pytest.approx(0.329, abs=1e-3)
        assert ny == pytest.approx(0.322, abs=1e-3)

    def test_negative_when_hand_left_of_crop(self):
        g = ref_geometry(hand_x=0)
        nx, _ = normalized_offset(g)
        assert nx < 0

    def test_shift_linearity(self):
        g0 = ref_geometry(hand_x=300)
        base, _ = normalized_offset(g0)
        k = (256 / 720) / 224
        for delta in (1, 7, 40, -100):
            nx, _ = normalized_offset(ref_geometry(hand_x=300 + delta))
            assert nx - base == pytest.approx(delta * k, rel=1e-12)


class TestFootprintAndPlacement:
    def test_reference_footprint_is_twenty(self):
        rows, cols, off_y, off_x = footprint(ref_geometry(), 56, 56)
        assert (rows, cols) == (20, 20)
        assert (off_y, off_x) == (18, 18)

    def test_full_cover_geometry(self):
        g = CropGeometry(500, 500, 250, 250, 0, 0, 500, 500, 0, 0)
        rows, cols, off_y, off_x = footprint(g, 56, 56)
        assert (rows, cols, off_y, off_x) == (56, 56, 0, 0)

    def test_placement_masks_outside_footprint(self):
        fh = FeatureMap(np.ones((1, 2, 14, 14)))
        placed = place_hand_features(fh, ref_geometry(), 56, 56)
        assert placed.shape == (1, 2, 56, 56)
        inside = placed.values[:, :, 18:38, 18:38]
        assert np.array_equal(inside, np.ones((1, 2, 20, 20)))
        total = placed.values.sum()
        assert total == pytest.approx(inside.sum())

    def test_truncated_at_right_edge(self):
        g = ref_geometry(hand_x=696)  # pushes the footprint past the map edge
        rows, cols, off_y, off_x = footprint(g, 56, 56)
        fh = FeatureMap(np.ones((1, 1, 14, 14)))
        placed = place_hand_features(fh, g, 56, 56)
        visible_cols = max(0, min(56, off_x + cols) - max(0, off_x))
        visible_rows = max(0, min(56, off_y + rows) - max(0, off_y))
        assert placed.values.sum() == visible_rows * visible_cols
        assert visible_cols < cols

    def test_minimum_footprint_clamps_to_one(self):
        g = CropGeometry(920, 720, 256, 224, 50, 16, 1, 1, 100, 100)
        rows, cols, _, _ = footprint(g, 56, 56)
        assert rows == 1 and cols == 1


class TestEnhance:
    def _inputs(self, rng, t=2, c=3, hw=10):
        f = FeatureMap(rng.normal(size=(t, c, hw, hw)))
        fl = FeatureMap(rng.normal(size=(t, c, 4, 4)))
        fr = FeatureMap(rng.normal(size=(t, c, 4, 4)))
        gl = ref_geometry()
        gr = fallback_geometry(**REF)
        return f, fl, fr, gl, gr

    def test_zero_mixer_identity(self):
        rng = np.random.default_rng(0)
        f, fl, fr, gl, gr = self._inputs(rng)
        w = MixerWeights.zero(f.c, 3 * f.c)
        out = enhance(f, fl, fr, gl, gr, w)
        assert np.array_equal(out.values, f.values)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        f, fl, fr, gl, gr = self._inputs(rng)
        w = MixerWeights.identity_bn(rng.normal(size=(f.c, 3 * f.c)))
        a = enhance(f, fl, fr, gl, gr, w)
        b = enhance(f, fl, fr, gl, gr, w)
        assert np.array_equal(a.values, b.values)

    def test_reference_shapes(self):
        rng = np.random.default_rng(2)
        c = 16  # scaled-down stand-in for the 256-channel deployment
        f = FeatureMap(rng.normal(size=(8, c, 56, 56)))
        fl = FeatureMap(rng.normal(size=(8, c, 14, 14)))
        fr = FeatureMap(rng.normal(size=(8, c, 14, 14)))
        w = MixerWeights.identity_bn(rng.normal(size=(c, 3 * c)) * 0.01)
        out = enhance(f, fl, fr, ref_geometry(), fallback_geometry(**REF), w)
        assert out.shape == (8, c, 56, 56)

    def test_out_of_crop_hand_keeps_shape(self):
        rng = np.random.default_rng(3)
        f, fl, fr, _, gr = self._inputs(rng)
        far = CropGeometry(2000, 720, 256, 224, 0, 16, 100, 100, 1900, 0)
        w = MixerWeights.identity_bn(rng.normal(size=(f.c, 3 * f.c)))
        out = enhance(f, fl, fr, far, gr, w)
        assert out.shape == f.shape

    def test_frame_count_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        f, fl, fr, gl, gr = self._inputs(rng)
        bad = FeatureMap(rng.normal(size=(f.t + 1, f.c, 4, 4)))
        with pytest.raises(ValueError):
            enhance(f, bad, fr, gl, gr, MixerWeights.zero(f.c, 3 * f.c))

    def test_mixer_input_channels_checked(self):
        rng = np.random.default_rng(5)
        f, fl, fr, gl, gr = self._inputs(rng)
        with pytest.raises(ValueError, match=r"expects 10 input channels.* 9 \(3 \+ 3 \+ 3\)"):
            enhance(f, fl, fr, gl, gr, MixerWeights.zero(f.c, 10))

    def test_mixer_output_channels_checked(self):
        rng = np.random.default_rng(6)
        f, fl, fr, gl, gr = self._inputs(rng)
        with pytest.raises(ValueError, match="emits 4 channels but the backbone has 3"):
            enhance(f, fl, fr, gl, gr, MixerWeights.zero(4, 3 * f.c))


def random_mixer(rng, c_out, c_in):
    """Mixer with random weights, bias and non-identity bn statistics."""
    return MixerWeights(rng.normal(size=(c_out, c_in)), rng.normal(size=c_out),
                        rng.normal(size=c_out), rng.normal(size=c_out), rng.normal(size=c_out),
                        rng.uniform(0.2, 3.0, size=c_out))


# one geometry per placement case, on the deployment crop unless named otherwise
PLACEMENTS = {
    "in_crop": ref_geometry(),
    "partial_negative_offsets": ref_geometry(hand_x=0, hand_y=0),
    "right_bottom_truncated": ref_geometry(hand_x=696, hand_y=496),
    "out_of_crop": CropGeometry(2000, 720, 256, 224, 0, 16, 100, 100, 1900, 0),
    "fallback": fallback_geometry(**REF),
    "clamped_1x1": CropGeometry(920, 720, 256, 224, 50, 16, 1, 1, 400, 300),
    "full_cover": CropGeometry(500, 500, 250, 250, 0, 0, 500, 500, 0, 0),
}
ENHANCE_TOL = 1e-9


class TestEnhanceValues:
    """enhance against the per-frame float64 loop in oracles.enhance_ref."""

    def _check(self, rng, g_left, g_right, c=3, c_l=3, c_r=3, h=40, w=48):
        f = rng.normal(size=(2, c, h, w))
        left = rng.normal(size=(2, c_l, 14, 14))
        right = rng.normal(size=(2, c_r, 9, 11))
        mixer = random_mixer(rng, c, c + c_l + c_r)
        out = enhance(FeatureMap(f), FeatureMap(left), FeatureMap(right), g_left, g_right, mixer)
        ref = enhance_ref(f, left, right, footprint(g_left, h, w), footprint(g_right, h, w), mixer)
        assert out.shape == ref.shape
        assert np.max(np.abs(out.values - ref)) <= ENHANCE_TOL

    @pytest.mark.parametrize("case", sorted(PLACEMENTS))
    def test_placement_cases(self, case):
        names = sorted(PLACEMENTS)
        other = names[(names.index(case) + 1) % len(names)]
        rng = np.random.default_rng(names.index(case))
        self._check(rng, PLACEMENTS[case], PLACEMENTS[other])

    def test_hand_channel_counts_differ_from_backbone(self):
        rng = np.random.default_rng(8)
        self._check(rng, PLACEMENTS["in_crop"], PLACEMENTS["full_cover"], c=3, c_l=2, c_r=5)
        self._check(rng, PLACEMENTS["partial_negative_offsets"], PLACEMENTS["fallback"],
                    c=4, c_l=1, c_r=1)


class TestEnhanceFrames:
    """enhance runs one frame at a time: frames are independent, and no temporary outgrows one."""

    def _clip(self, rng, t, c=16, h=56, w=56, hw=14):
        return (FeatureMap(rng.normal(size=(t, c, h, w))), FeatureMap(rng.normal(size=(t, c, hw, hw))),
                FeatureMap(rng.normal(size=(t, c, hw, hw))))

    @pytest.mark.parametrize("case", sorted(PLACEMENTS))
    def test_frame_equals_one_frame_clip(self, case):
        rng = np.random.default_rng(sorted(PLACEMENTS).index(case))
        f, left, right = self._clip(rng, 4, c=5, h=40, w=48)
        mixer = random_mixer(rng, 5, 15)
        g_left, g_right = PLACEMENTS[case], PLACEMENTS["in_crop"]
        out = enhance(f, left, right, g_left, g_right, mixer).values
        for k in range(f.t):
            one = enhance(*(FeatureMap(m.values[k:k + 1]) for m in (f, left, right)),
                          g_left, g_right, mixer).values
            assert one.tobytes() == out[k:k + 1].tobytes()

    def test_zero_mixer_identity_at_scale(self):
        f, left, right = self._clip(np.random.default_rng(9), 8)
        out = enhance(f, left, right, PLACEMENTS["full_cover"], PLACEMENTS["in_crop"],
                      MixerWeights.zero(16, 48))
        assert out.values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize("g_left, g_right", [
        (PLACEMENTS["full_cover"], PLACEMENTS["full_cover"]),
        (PLACEMENTS["in_crop"], PLACEMENTS["fallback"]),  # the deployment geometry
    ], ids=["full_cover", "deployment"])
    def test_temporaries_stay_within_two_frames(self, g_left, g_right):
        rng = np.random.default_rng(10)
        f, left, right = self._clip(rng, 8)
        mixer = random_mixer(rng, 16, 48)
        frame = f.values[0].nbytes
        tracemalloc.start()
        try:
            out = enhance(f, left, right, g_left, g_right, mixer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.values.nbytes <= 2 * frame


class TestGeometry:
    def test_fallback_reference_frame(self):
        g = fallback_geometry(**REF)
        assert (g.hand_x, g.hand_y) == (348, 248)

    def test_fallback_degenerate(self):
        g = fallback_geometry(224, 224, 256, 224, 0, 0, 224, 224)
        assert (g.hand_x, g.hand_y) == (0, 0)

    def test_fallback_square(self):
        g = fallback_geometry(720, 720, 256, 224, 0, 0, 224, 224)
        assert (g.hand_x, g.hand_y) == (248, 248)

    def test_fallback_is_the_centred_from_center(self):
        # the central window, corner round-half-up((full - hand) / 2), at 2,000 random geometries
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 2000:
            full_w, full_h = (int(v) for v in rng.integers(1, 4000, 2))
            hand_w, hand_h = int(rng.integers(1, full_w + 1)), int(rng.integers(1, full_h + 1))
            scale_short = int(rng.integers(1, 1000))
            crop_size = int(rng.integers(1, scale_short + 1))
            dims = (full_w, full_h, scale_short, crop_size, 0, 0, hand_w, hand_h)
            try:
                central = CropGeometry(*dims, math.floor((full_w - hand_w) / 2 + 0.5),
                                       math.floor((full_h - hand_h) / 2 + 0.5))
            except ValueError:  # crop larger than the scaled image
                continue
            assert fallback_geometry(*dims) == CropGeometry.from_center(*dims, 0.5, 0.5) == central
            checked += 1

    def test_from_center_matches_reference(self):
        g = CropGeometry.from_center(**REF, center_x_norm=0.5, center_y_norm=0.5)
        assert (g.hand_x, g.hand_y) == (348, 248)

    def test_from_center_clamps_to_frame(self):
        g = CropGeometry.from_center(**REF, center_x_norm=0.0, center_y_norm=1.0)
        assert (g.hand_x, g.hand_y) == (0, 720 - 224)
        assert (g.hand_w, g.hand_h) == (224, 224)

    def test_crop_outside_scaled_image_rejected(self):
        with pytest.raises(ValueError):
            CropGeometry(920, 720, 256, 224, 200, 16, 224, 224, 0, 0)

    def test_hand_outside_frame_rejected(self):
        with pytest.raises(ValueError):
            CropGeometry(**REF, hand_x=900, hand_y=0)

    def test_load_geometry(self, tmp_path):
        path = tmp_path / "geom.txt"
        path.write_text(
            "# deployment geometry\n"
            "full_w=920\nfull_h=720\nscale_short=256\ncrop_size=224\n"
            "crop_off_x=50\ncrop_off_y=16\nhand_w=224\nhand_h=224\n"
            "hand_cx=0.5\nhand_cy=0.5\n"
        )
        g = load_geometry(path)
        assert (g.hand_x, g.hand_y) == (348, 248)
        assert footprint(g, 56, 56)[:2] == (20, 20)

    def test_load_geometry_missing_key(self, tmp_path):
        path = tmp_path / "geom.txt"
        path.write_text("full_w=920\n")
        with pytest.raises(ValueError, match="missing"):
            load_geometry(path)
