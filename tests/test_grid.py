import numpy as np
import pytest

from actseg.grid import (FeatureMap, MixerWeights, concat_channels, mix_1x1, residual_norm,
                         resize_nearest, zero_pad_place)
from oracles import pad_place_ref, resize_nearest_ref


def fm(values):
    return FeatureMap(np.asarray(values, dtype=np.float64))


def rand_map(rng, t=None, c=None, h=None, w=None):
    t = t or int(rng.integers(1, 3))
    c = c or int(rng.integers(1, 5))
    h = h or int(rng.integers(1, 13))
    w = w or int(rng.integers(1, 13))
    return FeatureMap(rng.normal(size=(t, c, h, w)))


class TestFeatureMap:
    def test_validates_rank(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((2, 3, 4)))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((1, 0, 2, 2)))

    def test_values_read_only(self):
        m = fm(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0, 0, 0] = 1.0


class TestResizeNearest:
    def test_two_by_two_upsample_duplicates_blocks(self):
        m = fm([[[[1, 2], [3, 4]]]])
        out = resize_nearest(m, 4, 4)
        expected = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        assert np.array_equal(out.values[0, 0], expected)

    def test_same_dims_is_identity(self):
        rng = np.random.default_rng(0)
        m = rand_map(rng)
        out = resize_nearest(m, m.h, m.w)
        assert np.array_equal(out.values, m.values)

    def test_constant_fourteen_to_twenty_stays_constant(self):
        m = fm(np.full((1, 1, 14, 14), 5.0))
        out = resize_nearest(m, 20, 20)
        assert out.shape == (1, 1, 20, 20)
        assert np.array_equal(out.values, np.full((1, 1, 20, 20), 5.0))

    def test_rejects_zero_target(self):
        m = fm(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            resize_nearest(m, 0, 2)

    def test_matches_cell_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = rand_map(rng)
            nh, nw = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            out = resize_nearest(m, nh, nw)
            assert np.array_equal(out.values, resize_nearest_ref(m.values, nh, nw))

    def test_up_then_down_on_block_constant_map(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = rand_map(rng, h=int(rng.integers(1, 7)), w=int(rng.integers(1, 7)))
            k = int(rng.integers(1, 4))
            up = resize_nearest(m, m.h * k, m.w * k)
            down = resize_nearest(up, m.h, m.w)
            assert np.array_equal(down.values, m.values)


class TestZeroPadPlace:
    def test_interior_placement(self):
        m = fm(np.ones((1, 1, 2, 2)))
        out = zero_pad_place(m, 4, 4, 1, 1)
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 1
        assert np.array_equal(out.values[0, 0], expected)

    def test_zero_offset_same_dims_is_identity(self):
        rng = np.random.default_rng(1)
        m = rand_map(rng)
        out = zero_pad_place(m, m.h, m.w, 0, 0)
        assert np.array_equal(out.values, m.values)

    def test_corner_truncation(self):
        m = fm(np.ones((1, 1, 2, 2)))
        out = zero_pad_place(m, 4, 4, 3, 3)
        expected = np.zeros((4, 4))
        expected[3, 3] = 1
        assert np.array_equal(out.values[0, 0], expected)

    def test_fully_out_of_bounds_gives_zeros(self):
        m = fm(np.ones((1, 1, 3, 3)))
        for oy, ox in ((-5, 0), (0, 9), (7, 7), (-3, -3)):
            out = zero_pad_place(m, 4, 4, oy, ox)
            assert not out.values.any()

    def test_matches_cell_oracle_with_negative_offsets(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            m = rand_map(rng)
            th, tw = int(rng.integers(1, 16)), int(rng.integers(1, 16))
            oy, ox = int(rng.integers(-6, 16)), int(rng.integers(-6, 16))
            out = zero_pad_place(m, th, tw, oy, ox)
            assert np.array_equal(out.values, pad_place_ref(m.values, th, tw, oy, ox))

    def test_in_bounds_placement_conserves_mass(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            m = rand_map(rng, h=3, w=4)
            oy, ox = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            out = zero_pad_place(m, 3 + 5, 4 + 5, oy, ox)
            assert out.values.sum() == pytest.approx(m.values.sum(), rel=1e-12)


class TestConcatChannels:
    def test_channel_order_preserved(self):
        a = fm(np.full((1, 2, 3, 3), 1.0))
        b = fm(np.full((1, 1, 3, 3), 2.0))
        out = concat_channels([a, b])
        assert out.shape == (1, 3, 3, 3)
        assert np.array_equal(out.values[0, 0], np.ones((3, 3)))
        assert np.array_equal(out.values[0, 2], np.full((3, 3), 2.0))

    def test_single_map_identity(self):
        m = fm(np.arange(8.0).reshape(1, 2, 2, 2))
        assert concat_channels([m]) is m

    def test_reference_dims(self):
        maps = [fm(np.zeros((1, 256, 8, 8))) for _ in range(3)]
        assert concat_channels(maps).shape == (1, 768, 8, 8)

    def test_mismatch_names_offending_map(self):
        a = fm(np.zeros((1, 1, 3, 3)))
        b = fm(np.zeros((1, 1, 4, 3)))
        with pytest.raises(ValueError, match="map 1"):
            concat_channels([a, b])


class TestMix1x1:
    def test_identity_weight(self):
        rng = np.random.default_rng(2)
        m = rand_map(rng, c=3)
        w = MixerWeights.identity_bn(np.eye(3))
        out = mix_1x1(m, w)
        assert np.allclose(out.values, m.values, rtol=1e-13, atol=0)

    def test_zero_weight_zero_bias(self):
        rng = np.random.default_rng(3)
        m = rand_map(rng, c=4)
        w = MixerWeights.identity_bn(np.zeros((2, 4)))
        assert not mix_1x1(m, w).values.any()

    def test_hand_arithmetic(self):
        m = fm(np.array([3.0, 4.0]).reshape(1, 2, 1, 1))
        w = MixerWeights.identity_bn(np.array([[1.0, 1.0], [1.0, -1.0]]))
        out = mix_1x1(m, w)
        assert out.values[0, 0, 0, 0] == 7.0
        assert out.values[0, 1, 0, 0] == -1.0

    def test_channel_mismatch_rejected(self):
        m = fm(np.zeros((1, 3, 2, 2)))
        w = MixerWeights.identity_bn(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            mix_1x1(m, w)

    def test_spatial_locality(self):
        rng = np.random.default_rng(4)
        m = rand_map(rng, t=1, c=3, h=5, w=5)
        w = MixerWeights.identity_bn(rng.normal(size=(2, 3)), rng.normal(size=2))
        base = mix_1x1(m, w).values
        for _ in range(5):
            i, j = int(rng.integers(5)), int(rng.integers(5))
            bumped = m.values.copy()
            bumped[0, :, i, j] += rng.normal(size=3)
            delta = mix_1x1(FeatureMap(bumped), w).values - base
            touched = np.argwhere(np.abs(delta) > 1e-14)
            assert touched.size
            assert set(map(tuple, touched[:, 2:])) == {(i, j)}

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(5)
        w = MixerWeights.identity_bn(rng.normal(size=(3, 4)))
        x = rng.normal(size=(2, 4, 3, 3))
        y = rng.normal(size=(2, 4, 3, 3))
        a, b = 1.7, -0.4
        lhs = mix_1x1(FeatureMap(a * x + b * y), w).values
        rhs = a * mix_1x1(FeatureMap(x), w).values + b * mix_1x1(FeatureMap(y), w).values
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestResidualNorm:
    def test_zero_enhancement_identity_bn(self):
        rng = np.random.default_rng(6)
        m = rand_map(rng, c=3)
        w = MixerWeights.zero(3, 9)
        out = residual_norm(m, fm(np.zeros(m.shape)), w)
        assert np.array_equal(out.values, m.values)

    def test_zero_base(self):
        rng = np.random.default_rng(7)
        e = rand_map(rng, c=2)
        w = MixerWeights.zero(2, 6)
        out = residual_norm(fm(np.zeros(e.shape)), e, w)
        assert np.array_equal(out.values, e.values)

    def test_hand_arithmetic(self):
        base = fm(np.full((1, 1, 1, 1), 2.0))
        enh = fm(np.full((1, 1, 1, 1), 1.0))
        w = MixerWeights(np.zeros((1, 1)), [0.0], [2.0], [1.0], [3.0], [1.0])
        assert residual_norm(base, enh, w).values[0, 0, 0, 0] == 1.0

    def test_reproduces_bn_of_base(self):
        rng = np.random.default_rng(8)
        base = rand_map(rng, c=3)
        w = MixerWeights(np.zeros((3, 3)), np.zeros(3), rng.normal(size=3),
                         rng.normal(size=3), rng.normal(size=3), rng.uniform(0.5, 2.0, 3))
        out = residual_norm(base, fm(np.zeros(base.shape)), w).values
        expected = (base.values - w.bn_mean.reshape(1, 3, 1, 1)) \
            * (w.bn_scale / np.sqrt(w.bn_var)).reshape(1, 3, 1, 1) \
            + w.bn_shift.reshape(1, 3, 1, 1)
        assert np.allclose(out, expected, rtol=1e-12, atol=0)

    def test_dim_mismatch_rejected(self):
        w = MixerWeights.zero(2, 4)
        with pytest.raises(ValueError):
            residual_norm(fm(np.zeros((1, 2, 2, 2))), fm(np.zeros((1, 2, 3, 2))), w)


class TestMixerWeights:
    def test_bn_var_must_be_positive(self):
        with pytest.raises(ValueError):
            MixerWeights(np.eye(2), np.zeros(2), np.ones(2), np.zeros(2),
                         np.zeros(2), np.array([1.0, 0.0]))

    def test_vector_shapes_checked(self):
        with pytest.raises(ValueError):
            MixerWeights(np.eye(2), np.zeros(3), np.ones(2), np.zeros(2),
                         np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["weight", "bias", "bn_scale", "bn_shift", "bn_mean",
                                       "bn_var"])
    def test_non_finite_entry_rejected(self, field, bad):
        fields = dict(weight=np.eye(2), bias=np.zeros(2), bn_scale=np.ones(2),
                      bn_shift=np.zeros(2), bn_mean=np.zeros(2), bn_var=np.ones(2))
        fields[field] = fields[field].copy()
        fields[field].flat[1] = bad  # a NaN bn_var would pass the bn_var > 0 check
        with pytest.raises(ValueError, match=f"^{field} entries must be finite$"):
            MixerWeights(**fields)
