"""Oracle and property tests for the dense array primitives: the
feature-map type, block-average downsampling (block_mean), and the
spatial average, 2x2 max pooling and softmax steps that the prototype
builder and the batched scorer compute inline.

Operations are checked against straightforward nested-loop references
on random inputs, written independently of the vectorized code.
"""

import itertools
import math

import numpy as np
import pytest

from preselect.episodes import prototype_matrices
from preselect.scorer import _softmax
from preselect.tensor_ops import FeatureMap, Level, block_mean

from helpers import (ODD_QUERY, map_vectors, numpy_block_mean, order_sensitive,
                     order_sensitive_map)


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
        """Nested loops in numpy's order: each block row left to right from
        -0.0, the rows into a sum from +0.0, on entries whose sums depend
        on that order; one channel is all -0.0."""
        rng = np.random.default_rng(9)
        x = order_sensitive_map(rng, 3, (8, 8), (2, 2))
        x[2] = -0.0
        out = block_mean(x, 2, 2)
        assert out.dtype == np.float64
        for ch in range(3):
            for i in range(2):
                for j in range(2):
                    acc = 0.0
                    for dy in range(4):
                        row = -0.0
                        for dx in range(4):
                            row += float(x[ch, 4 * i + dy, 4 * j + dx])
                        acc += row
                    assert out[ch, i, j].tobytes() == np.float64(acc / 16).tobytes()

    # (source grid, target grid): the synthetic query alignments, a 7x7 map
    # onto one cell, rows of 8 cells, targets of width 1 (where numpy sums
    # each block as one run) over runs under 8 cells, of 8 and over 8, and
    # every ODD_QUERY grid onto each grid that divides it.
    ORDER_CASES = [((32, 32), (8, 8)), ((16, 16), (8, 8)), ((8, 8), (8, 8)), ((7, 7), (1, 1)),
                   ((64, 64), (8, 8)), ((16, 24), (2, 3)), ((2, 2), (1, 1)), ((1, 7), (1, 1)),
                   ((7, 1), (1, 1)), ((6, 1), (2, 1)), ((4, 3), (2, 1)), ((2, 4), (1, 1)),
                   ((4, 8), (2, 1))] + [
        ((h, w), (th, tw)) for h, w in ODD_QUERY.values()
        for th, tw in itertools.product(range(1, h + 1), range(1, w + 1))
        if h % th == 0 and w % tw == 0]

    @pytest.mark.parametrize("grid,target", ORDER_CASES,
                             ids=[f"{g[0]}x{g[1]}to{t[0]}x{t[1]}" for g, t in ORDER_CASES])
    def test_bitwise_numpy_order(self, grid, target):
        """On entries whose sums depend on the order of the adds, bitwise
        numpy's mean over the block axes; an all -0.0 channel averages to
        +0.0 there as well."""
        rng = np.random.default_rng(grid[0] * 100 + grid[1])
        for _ in range(6):
            x = order_sensitive_map(rng, 5, grid, target)
            x[0] = -0.0
            got = block_mean(x, *target)
            assert got.dtype == np.float64
            assert got.tobytes() == numpy_block_mean(x, *target).tobytes()

    STACK_CASES = [((2, 2), (1, 1)), ((4, 4), (1, 1)), ((8, 8), (1, 1)), ((5, 2), (1, 1)),
                   ((8, 8), (4, 4)), ((4, 16), (2, 2))]

    @pytest.mark.parametrize("grid,target", STACK_CASES,
                             ids=[f"{g[0]}x{g[1]}to{t[0]}x{t[1]}" for g, t in STACK_CASES])
    def test_leading_dims_match_per_map_calls(self, grid, target):
        """An (N, k, C, H, W) stack, as prototype_matrices passes it, gives
        the bits of one call per (C, H, W) map."""
        rng = np.random.default_rng(math.prod(grid))
        x = order_sensitive_map(rng, 4 * 3 * 5, grid, target).reshape(4, 3, 5, *grid)
        got = block_mean(x, *target)
        assert got.shape == (4, 3, 5, *target)
        want = np.stack([np.stack([block_mean(m, *target) for m in row]) for row in x])
        assert got.tobytes() == want.tobytes()

    def test_order_sensitive_data(self):
        """The data of the order tests tells orders apart: summed left to
        right and right to left, about four runs in five differ (not those
        whose pair sits at both ends)."""
        x = order_sensitive(np.random.default_rng(13), (1000,), 4).astype(np.float64)
        forward = ((x[:, 0] + x[:, 1]) + x[:, 2]) + x[:, 3]
        backward = ((x[:, 3] + x[:, 2]) + x[:, 1]) + x[:, 0]
        assert (forward != backward).mean() > 0.7

    def test_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            block_mean(np.ones((1, 6, 6), np.float32), 4, 4)

    @pytest.mark.parametrize("shape,target", [((1, 4, 4), (0, 2)), ((1, 4, 4), (2, 0)),
                                              ((0, 4, 4), (2, 2)), ((1, 0, 4), (1, 2)),
                                              ((1, 4, 0), (2, 1))])
    def test_rejects_zero_dims(self, shape, target):
        """A zero target or a map with a zero dim is a ValueError, not a
        ZeroDivisionError or a NaN average."""
        with pytest.raises(ValueError, match="must be positive"):
            block_mean(np.ones(shape, np.float32), *target)


class TestSharedInvariants:
    def test_channel_counts_preserved(self):
        rng = np.random.default_rng(10)
        m = random_map(rng, 5, 6, 6)
        assert block_mean(m.data, 3, 3).shape == (5, 3, 3)

    def test_no_nan_on_finite_input(self):
        rng = np.random.default_rng(11)
        m = random_map(rng, 3, 4, 4)
        assert np.all(np.isfinite(block_mean(m.data, 2, 2)))

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_feature_map_rejects_zero_dims(self, shape):
        with pytest.raises(ValueError, match="must be positive"):
            FeatureMap(np.ones(shape, np.float32))

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
