"""Oracle and property tests for the dense array primitives: the
feature-map type, block-average downsampling (block_mean), and the
spatial average, 2x2 max pooling and softmax steps that the prototype
builder and the batched scorer compute inline.

Operations are checked against straightforward nested-loop references
on random inputs, written independently of the vectorized code.
"""

import numpy as np
import pytest

from preselect.episodes import prototype_matrices
from preselect.scorer import _softmax
from preselect.tensor_ops import FeatureMap, Level, block_mean

from helpers import map_vectors


def fmap(arr):
    return FeatureMap(np.asarray(arr, dtype=np.float32))


def random_map(rng, c, h, w):
    return fmap(rng.standard_normal((c, h, w)))


def spatial_average(m):
    """Per-channel spatial mean, as prototype_matrices takes it of one shot."""
    return prototype_matrices({Level.L4: m.data[None, None]})[0]


def max_pool_average(data):
    """Local confidence half: per-channel mean of the 2x2 max-pooled map."""
    data = np.asarray(data, dtype=np.float32)
    return map_vectors(data[None])[0, : data.shape[0]]


def softmax2(z):
    return _softmax(np.asarray(z)[None])[0]


class TestSpatialAverage:
    def test_single_channel(self):
        np.testing.assert_allclose(spatial_average(fmap([[[1, 2], [3, 4]]])), [2.5])

    def test_zero_map_dim(self):
        out = spatial_average(fmap(np.zeros((7, 4, 4))))
        assert out.shape == (7,)
        assert not out.any()

    def test_summation_oracle(self):
        rng = np.random.default_rng(3)
        m = random_map(rng, 6, 5, 4)
        out = spatial_average(m)
        for ch in range(6):
            acc = 0.0
            for y in range(5):
                for x in range(4):
                    acc += float(m.data[ch, y, x])
            assert out[ch] == pytest.approx(acc / 20, abs=1e-6)


class TestMaxPool2:
    def test_single_window(self):
        np.testing.assert_array_equal(max_pool_average([[[1, 2], [3, 4]]]), [4])

    def test_odd_dims_dropped(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((1, 5, 5)).astype(np.float32)
        out = max_pool_average(data)
        window_maxima = [
            max(data[0, 2 * i + dy, 2 * j + dx] for dy in range(2) for dx in range(2))
            for i in range(2)
            for j in range(2)
        ]
        assert out[0] == pytest.approx(sum(window_maxima) / 4, rel=1e-6)
        data[0, 4, :] = 100.0
        data[0, :, 4] = 100.0
        np.testing.assert_array_equal(max_pool_average(data), out)

    def test_constant_map(self):
        out = max_pool_average(np.full((3, 4, 6), 2.5))
        np.testing.assert_array_equal(out, np.full(3, 2.5))

    def test_rejects_undersized(self):
        with pytest.raises(ValueError):
            max_pool_average(np.ones((1, 1, 4)))


class TestSoftmax2:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax2(np.float32([0, 0])), [0.5, 0.5])

    def test_no_overflow(self):
        out = softmax2(np.float32([1000, 0]))
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = rng.standard_normal(2).astype(np.float32)
            c = rng.standard_normal()
            np.testing.assert_allclose(
                softmax2(z), softmax2((z + c).astype(np.float32)), atol=1e-6
            )

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            out = softmax2(rng.standard_normal(2).astype(np.float32) * 10)
            assert abs(float(out.sum()) - 1.0) < 1e-6
            assert np.all(out > 0)


class TestDownsampleAvg:
    def test_constant(self):
        out = block_mean(np.full((1, 4, 4), 3.0, np.float32), 2, 2)
        np.testing.assert_allclose(out, np.full((1, 2, 2), 3.0))

    def test_to_single_cell(self):
        out = block_mean(np.float32([[[1, 2], [3, 4]]]), 1, 1)
        np.testing.assert_allclose(out, [[[2.5]]])

    def test_block_mean_oracle(self):
        rng = np.random.default_rng(9)
        m = random_map(rng, 2, 8, 8)
        out = block_mean(m.data, 2, 2)
        assert out.dtype == np.float64
        for ch in range(2):
            for i in range(2):
                for j in range(2):
                    acc = 0.0
                    for dy in range(4):
                        for dx in range(4):
                            acc += float(m.data[ch, 4 * i + dy, 4 * j + dx])
                    assert out[ch, i, j] == pytest.approx(acc / 16, rel=1e-12)

    def test_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            block_mean(np.ones((1, 6, 6), np.float32), 4, 4)


class TestSharedInvariants:
    def test_channel_counts_preserved(self):
        rng = np.random.default_rng(10)
        m = random_map(rng, 5, 6, 6)
        assert block_mean(m.data, 3, 3).shape == (5, 3, 3)

    def test_no_nan_on_finite_input(self):
        rng = np.random.default_rng(11)
        m = random_map(rng, 3, 4, 4)
        assert np.all(np.isfinite(block_mean(m.data, 2, 2)))

    def test_feature_map_rejects_nonfinite(self):
        bad = np.ones((1, 2, 2), np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureMap(bad)

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int32])
    def test_feature_map_rejects_non_float32(self, dtype):
        """A map of another dtype is rejected, not cast."""
        with pytest.raises(ValueError, match="rank-3 float32"):
            FeatureMap(np.ones((1, 2, 2), dtype))
