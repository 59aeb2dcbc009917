"""Tests for prototype building, correlation, fusion, and the synthetic
episode generator."""

import itertools
import math

import numpy as np
import pytest

from preselect.episodes import (
    CHANNELS,
    FEATURE_LEVELS,
    QUERY_GRIDS,
    SUPPORT_GRIDS,
    Episode,
    FusionProjector,
    SynthConfig,
    align_query,
    build_prototype,
    correlate,
    fuse_batch,
    fuse_levels,
    prototype_matrices,
    synth_episode,
    synth_episodes,
)
from preselect.pack_io import read_pack, write_pack
from preselect.scorer import _fuse_pairs
from preselect.tensor_ops import FeatureMap, Level, block_mean

from helpers import (ODD_CHANNELS, ODD_SUPPORT, numpy_block_mean, numpy_prototype_matrices,
                     odd_episodes, order_sensitive, order_sensitive_map, random_projector)


def fmap(arr):
    return FeatureMap(np.asarray(arr, dtype=np.float32))


def make_shot(rng, channels, level=Level.L4, hw=(2, 2)):
    return {level: fmap(rng.standard_normal((channels, *hw)))}


class TestBuildPrototype:
    def test_single_shot(self):
        rng = np.random.default_rng(0)
        shot = make_shot(rng, 4)
        proto = build_prototype(0, [shot])
        np.testing.assert_allclose(
            proto.vectors[Level.L4], shot[Level.L4].data.mean(axis=(1, 2)), rtol=1e-6
        )

    def test_identical_shots_match_single(self):
        rng = np.random.default_rng(1)
        shot = make_shot(rng, 4)
        one = build_prototype(0, [shot])
        two = build_prototype(0, [shot, shot])
        np.testing.assert_allclose(one.vectors[Level.L4], two.vectors[Level.L4],
                                   rtol=1e-6)

    def test_loop_mean_oracle(self):
        rng = np.random.default_rng(2)
        shots = [make_shot(rng, 3, hw=(3, 3)) for _ in range(3)]
        proto = build_prototype(5, shots)
        for ch in range(3):
            acc = 0.0
            for shot in shots:
                data = shot[Level.L4].data[ch]
                acc += sum(float(data[y, x]) for y in range(3) for x in range(3)) / 9
            assert proto.vectors[Level.L4][ch] == pytest.approx(acc / 3, abs=1e-6)

    def test_rejects_channel_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            build_prototype(0, [make_shot(rng, 3), make_shot(rng, 4)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_prototype(0, [])


def loop_prototype(shots):
    """One class's prototype at one level from its (k, C, h, w) shots, the
    per-shot way: float64 mean of each shot, rounded to float32, summed in
    shot order, divided by the shot count."""
    acc = np.zeros(shots.shape[1], dtype=np.float64)
    for shot in shots:
        acc += shot.astype(np.float64).mean(axis=(1, 2)).astype(np.float32)
    return (acc / len(shots)).astype(np.float32)


def assert_loop_prototypes(ep):
    """prototype_matrices of ep's stacks is, bitwise, every class's
    loop_prototype per level, concatenated in FEATURE_LEVELS order."""
    mats = prototype_matrices(ep.shots)
    assert mats.dtype == np.float32
    assert mats.shape == (len(ep.class_ids), sum(a.shape[2] for a in ep.shots.values()))
    for i in ep.class_ids:
        want = np.concatenate([loop_prototype(ep.shots[lv][i]) for lv in FEATURE_LEVELS])
        assert mats[i].tobytes() == want.tobytes()


def assert_blocks(shots, rows):
    """prototype_matrices of every nonempty level subset of shots, on the
    rows in the given order, is bitwise that block of the full matrix: the
    rows, and each level's columns in FEATURE_LEVELS order."""
    full = prototype_matrices(shots)
    levels = [lv for lv in FEATURE_LEVELS if lv in shots]
    ends = np.cumsum([shots[lv].shape[2] for lv in levels])
    cols = {lv: slice(end - shots[lv].shape[2], end) for lv, end in zip(levels, ends)}
    for r in range(1, len(levels) + 1):
        for subset in itertools.combinations(levels, r):
            got = prototype_matrices({lv: shots[lv][rows] for lv in subset})
            want = np.concatenate([full[rows, cols[lv]] for lv in subset], axis=1)
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def selections(n, seed):
    """Row lists as selections give them: one row, a few rows in score
    order, and every row in score order."""
    order = np.random.default_rng(seed).permutation(n).tolist()
    return [order[:1], order[: max(1, n // 3)], order]


class TestPrototypeMatrices:
    @pytest.mark.parametrize("classes,k,seed", [(20, 3, 0), (7, 1, 1), (12, 5, 2)])
    def test_bitwise_equal_to_per_shot_loop(self, classes, k, seed):
        ep = synth_episode(SynthConfig(num_classes=classes, k=k), seed)
        assert prototype_matrices(ep.shots).shape == (classes, sum(CHANNELS.values()))
        assert_loop_prototypes(ep)
        for i in ep.class_ids:
            proto = build_prototype(i, ep.supports[i])
            for lv in FEATURE_LEVELS:
                want = loop_prototype(ep.shots[lv][i])
                assert proto.vectors[lv].tobytes() == want.tobytes()

    def test_bitwise_equal_to_per_shot_loop_on_read_back_packs(self, tmp_path):
        """On packs read back from disk: the synthetic dims, and the odd
        channels and grids of the pack tests."""
        path = tmp_path / "pack.epk"
        for eps in (synth_episodes(SynthConfig(num_classes=9, k=4), 21, 3),
                    odd_episodes(n=3, num_classes=4, k=3)):
            write_pack(path, eps)
            for ep in read_pack(path):
                assert_loop_prototypes(ep)

    @pytest.mark.parametrize("classes,k,seed", [(20, 3, 0), (5, 2, 3)])
    def test_rows_are_per_level_loop_in_align_query_order(self, classes, k, seed):
        """Each row is, bitwise, the per-level per-shot loop prototypes
        concatenated in the order align_query stacks the query channels."""
        ep = synth_episode(SynthConfig(num_classes=classes, k=k), seed)
        mats = prototype_matrices(ep.shots)
        order = (Level.L2, Level.L3, Level.L4)  # align_query's, see test_align_query_is_block_mean
        assert len(align_query(ep.levels)) == mats.shape[1]
        for i in ep.class_ids:
            want = np.concatenate([loop_prototype(ep.shots[lv][i]) for lv in order])
            assert mats[i].tobytes() == want.tobytes()

    def test_odd_grids_and_negative_zero(self):
        rng = np.random.default_rng(10)
        stack = rng.standard_normal((4, 2, 5, 3, 5)).astype(np.float32)
        stack[2] = -0.0
        mat = prototype_matrices({Level.L4: stack})
        for i, cls in enumerate(stack):
            assert mat[i].tobytes() == loop_prototype(cls).tobytes()

    @pytest.mark.parametrize("classes,k,seed", [(20, 3, 0), (7, 1, 1), (100, 5, 2)])
    def test_level_and_row_subsets_are_blocks(self, classes, k, seed):
        """Building only some levels, for only some rows, gives bitwise the
        matching block of the full matrix: inference builds every class's L4
        prototypes and the selected classes' L2/L3 ones apart."""
        ep = synth_episode(SynthConfig(num_classes=classes, k=k), seed)
        for rows in selections(classes, seed):
            assert_blocks(ep.shots, rows)

    def test_blocks_on_read_back_packs(self, tmp_path):
        """The same on packs read back from disk, at the synthetic and the
        odd dims."""
        path = tmp_path / "pack.epk"
        for eps in (synth_episodes(SynthConfig(num_classes=9, k=4), 21, 3),
                    odd_episodes(n=3, num_classes=4, k=3)):
            write_pack(path, eps)
            for i, ep in enumerate(read_pack(path)):
                for rows in selections(len(ep.class_ids), i):
                    assert_blocks(ep.shots, rows)

    def test_blocks_on_odd_grids_and_negative_zero(self):
        """Odd channels and grids at every level, with a class whose shots
        are all -0.0 and one whose first shot is."""
        shots = odd_episodes(n=1, num_classes=5, k=2, seed=10)[0].shots
        for a in shots.values():
            a[2] = -0.0
            a[4, 0] = -0.0
        for rows in selections(5, 10) + [[2], [4, 2, 0]]:
            assert_blocks(shots, rows)

    # Shot grids: the synthetic L4, L3 and L2 ones, ODD_SUPPORT's, and one
    # past numpy's 128-cell pairwise block.
    ORDER_GRIDS = [(2, 2), (4, 4), (8, 8), *ODD_SUPPORT.values(), (12, 12)]

    @pytest.mark.parametrize("grid", ORDER_GRIDS, ids=[f"{h}x{w}" for h, w in ORDER_GRIDS])
    def test_bitwise_numpy_order(self, grid):
        """On shots whose sums depend on the order of the adds, bitwise
        numpy's mean over each shot's grid, with a class whose shots are
        all -0.0 and one whose first shot is."""
        rng = np.random.default_rng(grid[0] * 100 + grid[1])
        for _ in range(4):
            stack = order_sensitive(rng, (7, 3, 5), math.prod(grid)).reshape(7, 3, 5, *grid)
            stack[2] = -0.0
            stack[4, 0] = -0.0
            got = prototype_matrices({Level.L4: stack})
            assert got.tobytes() == numpy_prototype_matrices({Level.L4: stack}).tobytes()

    @pytest.mark.parametrize("grids,channels", [(SUPPORT_GRIDS, CHANNELS),
                                                (ODD_SUPPORT, ODD_CHANNELS)],
                             ids=["synthetic", "odd"])
    def test_bitwise_numpy_order_all_levels(self, grids, channels):
        """The same with every level in one call, each on its own grid."""
        rng = np.random.default_rng(17)
        shots = {lv: order_sensitive(rng, (6, 2, channels[lv]), math.prod(grids[lv]))
                 .reshape(6, 2, channels[lv], *grids[lv]) for lv in FEATURE_LEVELS}
        assert prototype_matrices(shots).tobytes() == numpy_prototype_matrices(shots).tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4], ids=["C", "h", "w"])
    def test_rejects_zero_size_dims(self, dim):
        """A stack with no channels or an empty shot grid is a ValueError,
        not NaN prototypes."""
        shape = [3, 2, 4, 2, 2]
        shape[dim] = 0
        shots = {Level.L4: np.ones(shape, np.float32)}
        with pytest.raises(ValueError, match="must be positive"):
            prototype_matrices(shots)

    @pytest.mark.parametrize("counts", [[2, 4], [3, 0], [1, 2, 3]])
    def test_rejects_ragged_shot_counts(self, counts):
        """Levels whose stacks hold different shot counts, or none."""
        rng = np.random.default_rng(11)
        shots = {lv: rng.standard_normal((2, n, 3, 2, 2)).astype(np.float32)
                 for lv, n in zip(FEATURE_LEVELS, counts)}
        with pytest.raises(ValueError, match="support s"):
            prototype_matrices(shots)

    def test_rejects_mismatched_shapes(self):
        """Levels whose stacks hold different class counts."""
        rng = np.random.default_rng(12)
        shots = {Level.L3: rng.standard_normal((3, 1, 3, 2, 2)).astype(np.float32),
                 Level.L4: rng.standard_normal((2, 1, 3, 2, 2)).astype(np.float32)}
        with pytest.raises(ValueError, match="share one"):
            prototype_matrices(shots)


class TestCorrelate:
    def test_ones_prototype_is_identity(self):
        rng = np.random.default_rng(4)
        q = fmap(rng.standard_normal((5, 3, 3)))
        out = correlate(q, np.ones(5, np.float32))
        np.testing.assert_array_equal(out.data, q.data)

    def test_zero_prototype(self):
        rng = np.random.default_rng(5)
        out = correlate(fmap(rng.standard_normal((4, 2, 2))), np.zeros(4, np.float32))
        assert not out.data.any()

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(6)
        q = fmap(rng.standard_normal((4, 3, 2)))
        p = rng.standard_normal(4).astype(np.float32)
        out = correlate(q, p)
        for ch in range(4):
            for y in range(3):
                for x in range(2):
                    assert out.data[ch, y, x] == pytest.approx(
                        float(q.data[ch, y, x]) * float(p[ch]), rel=1e-6
                    )

    def test_linear_in_prototype(self):
        rng = np.random.default_rng(7)
        q = fmap(rng.standard_normal((6, 4, 4)))
        p = rng.standard_normal(6).astype(np.float32)
        a = correlate(q, (2.5 * p).astype(np.float32))
        b = correlate(q, p)
        np.testing.assert_allclose(a.data, 2.5 * b.data, rtol=1e-5)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            correlate(fmap(np.ones((3, 2, 2))), np.ones(4, np.float32))


def oracle_fuse(maps, proj):
    """Level fusion one level at a time: block-average the level onto the
    L4 grid and round to float32, project it in float64, then average."""
    h, w = maps[Level.L4].data.shape[1:]
    projected = []
    for lv in (Level.L2, Level.L3, Level.L4):
        x = block_mean(maps[lv].data, h, w).astype(np.float32)
        flat = x.reshape(len(x), h * w).astype(np.float64)
        projected.append(proj.weights[lv].astype(np.float64) @ flat + proj.biases[lv][:, None])
    return np.mean(projected, axis=0).reshape(-1, h, w).astype(np.float32)


class TestFuseLevels:
    @staticmethod
    def _same_grid_maps(rng, c=4, hw=(4, 4)):
        return {
            lv: fmap(rng.standard_normal((c, *hw)))
            for lv in (Level.L2, Level.L3, Level.L4)
        }

    def test_identity_on_identical_maps(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((4, 4, 4)).astype(np.float32)
        maps = {lv: FeatureMap(data.copy()) for lv in (Level.L2, Level.L3, Level.L4)}
        proj = FusionProjector.identity({lv: 4 for lv in maps}, 4)
        fused = fuse_levels(maps, proj)
        np.testing.assert_allclose(fused.data, data, atol=1e-6)

    def test_zero_maps_fuse_to_zero(self):
        maps = {
            lv: fmap(np.zeros((4, 4, 4))) for lv in (Level.L2, Level.L3, Level.L4)
        }
        proj = FusionProjector.identity({lv: 4 for lv in maps}, 4)
        assert not fuse_levels(maps, proj).data.any()

    def test_identity_pads_and_truncates_the_eye(self):
        """Fewer input channels than outputs leave zero rows; more leave
        zero columns."""
        proj = FusionProjector.identity({Level.L2: 3, Level.L3: 5, Level.L4: 4}, 4)
        expected = {
            Level.L2: [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
            Level.L3: [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
            Level.L4: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        }
        for lv, rows in expected.items():
            w, b = proj.weights[lv], proj.biases[lv]
            assert w.dtype == b.dtype == np.float32
            assert w.shape == (4, len(rows[0])) and b.shape == (4,)
            assert w.tobytes() == np.array(rows, np.float32).tobytes()
            assert b.tobytes() == np.zeros(4, np.float32).tobytes()

    def test_composition_of_primitives_oracle(self):
        """Downsample + per-pixel channel affine + mean across levels."""
        rng = np.random.default_rng(9)
        maps = {
            Level.L2: fmap(rng.standard_normal((2, 8, 8))),
            Level.L3: fmap(rng.standard_normal((3, 4, 4))),
            Level.L4: fmap(rng.standard_normal((4, 4, 4))),
        }
        channels = {Level.L2: 2, Level.L3: 3, Level.L4: 4}
        proj = random_projector(channels, 4, rng)
        fused = fuse_levels(maps, proj)
        assert fused.data.shape == (4, 4, 4)
        for y in range(4):
            for x in range(4):
                acc = np.zeros(4)
                for lv in (Level.L2, Level.L3, Level.L4):
                    m = maps[lv].data
                    if m.shape[1] == 8:
                        block = m[:, 2 * y : 2 * y + 2, 2 * x : 2 * x + 2]
                        pix = block.reshape(m.shape[0], -1).mean(axis=1)
                    else:
                        pix = m[:, y, x]
                    acc += proj.weights[lv].astype(np.float64) @ pix + proj.biases[lv]
                np.testing.assert_allclose(fused.data[:, y, x], acc / 3, rtol=1e-4,
                                           atol=1e-5)

    def test_batch_matches_correlate_and_fuse_levels(self):
        """fuse_batch against correlate + oracle_fuse, to 1e-6 relative."""
        rng = np.random.default_rng(13)
        cfg = SynthConfig(num_classes=9, k=2)
        for proj in (FusionProjector.identity(CHANNELS, 64),
                     random_projector(CHANNELS, 40, rng)):
            out = len(proj.biases[Level.L4])
            proj.biases = {lv: rng.standard_normal(out).astype(np.float32)
                           for lv in proj.biases}
            for ep in synth_episodes(cfg, 14, 3):
                protos = prototype_matrices(ep.shots)
                got = fuse_batch(align_query(ep.levels), protos, proj)
                assert got.dtype == np.float32
                assert got.shape == (9, out, 8, 8)
                for i, cid in enumerate(ep.class_ids):
                    proto = build_prototype(cid, ep.supports[cid])
                    per_level = {lv: correlate(ep.levels[lv], proto.vectors[lv])
                                 for lv in ep.levels}
                    want = oracle_fuse(per_level, proj)
                    err = np.abs(got[i] - want).max() / np.abs(want).max()
                    assert err < 1e-6

    def test_one_aligned_query_per_class(self):
        """scorer._fuse_pairs, training's fusion of rows from several
        episodes interleaved, each on its own aligned query, equals each row
        fused alone by fuse_batch byte for byte, and returns the queries it
        stacked."""
        rng = np.random.default_rng(16)
        proj = random_projector(CHANNELS, 40, rng)
        proj.biases = {lv: rng.standard_normal(40).astype(np.float32) for lv in proj.biases}
        eps = synth_episodes(SynthConfig(num_classes=5, k=2), 17, 3)
        protos = [prototype_matrices(ep.shots) for ep in eps]
        picks = [(0, 1), (2, 4), (1, 0), (0, 3), (2, 2), (1, 1)]  # (episode, class)
        queries = [align_query(eps[ei].levels) for ei, _ in picks]
        rows = np.stack([protos[ei][cid] for ei, cid in picks])
        got, stacked = _fuse_pairs(proj, queries, rows, {})
        assert got.shape == (len(picks), 40, 8, 8)
        for fused, (ei, cid) in zip(got, picks):
            want = fuse_batch(align_query(eps[ei].levels), protos[ei][[cid]], proj)[0]
            assert fused.tobytes() == want.tobytes()
        assert stacked.tobytes() == np.stack(queries).tobytes()

    def test_align_query_is_block_mean(self):
        rng = np.random.default_rng(15)
        levels = {
            Level.L2: fmap(rng.standard_normal((2, 8, 8))),
            Level.L3: fmap(rng.standard_normal((3, 4, 4))),
            Level.L4: fmap(rng.standard_normal((4, 2, 2))),
        }
        aligned = align_query(levels)
        assert aligned.shape == (9, 2, 2) and aligned.dtype == np.float64
        want = levels[Level.L2].data.astype(np.float64).reshape(2, 2, 4, 2, 4).mean(axis=(2, 4))
        np.testing.assert_allclose(aligned[:2], want, rtol=1e-12)
        np.testing.assert_array_equal(aligned[5:], levels[Level.L4].data)

    @pytest.mark.parametrize("grids", [QUERY_GRIDS, {Level.L2: (7, 7), Level.L3: (3, 1),
                                                      Level.L4: (1, 1)}],
                             ids=["synthetic", "one-cell"])
    def test_align_query_bitwise_numpy_order(self, grids):
        """On maps whose sums depend on the order of the adds, align_query
        is bitwise every level's numpy mean over its blocks, stacked."""
        rng = np.random.default_rng(16)
        for _ in range(4):
            h, w = grids[Level.L4]
            levels = {lv: fmap(order_sensitive_map(rng, CHANNELS[lv], grids[lv], (h, w)))
                      for lv in FEATURE_LEVELS}
            want = np.concatenate([numpy_block_mean(levels[lv].data, h, w)
                                   for lv in FEATURE_LEVELS])
            assert align_query(levels).tobytes() == want.tobytes()

    def test_rejects_nondivisible_grids(self):
        maps = {
            Level.L2: fmap(np.ones((2, 6, 6))),
            Level.L3: fmap(np.ones((2, 4, 4))),
            Level.L4: fmap(np.ones((2, 4, 4))),
        }
        proj = FusionProjector.identity({lv: 2 for lv in maps}, 2)
        with pytest.raises(ValueError):
            fuse_levels(maps, proj)


class TestSynthEpisode:
    def test_determinism(self):
        cfg = SynthConfig()
        a = synth_episode(cfg, 42, 3)
        b = synth_episode(cfg, 42, 3)
        assert a.present_classes == b.present_classes
        assert a.gt_boxes == b.gt_boxes
        for lv in a.levels:
            np.testing.assert_array_equal(a.levels[lv].data, b.levels[lv].data)
        for lv in a.shots:
            np.testing.assert_array_equal(a.shots[lv], b.shots[lv])

    def test_no_present_classes(self):
        ep = synth_episode(SynthConfig(present_count=0), 1)
        assert not ep.present_classes
        assert not ep.gt_boxes

    def test_noise_free_max_activation_separation(self):
        cfg = SynthConfig(noise_sigma=0.0)
        for seed in (0, 1, 2):
            ep = synth_episode(cfg, seed)
            for lv in ep.levels:
                maxima = {}
                for cid in ep.class_ids:
                    proto = build_prototype(cid, ep.supports[cid])
                    c = correlate(ep.levels[lv], proto.vectors[lv])
                    maxima[cid] = float(c.data.max())
                present = [maxima[c] for c in ep.present_classes]
                absent = [
                    maxima[c] for c in ep.class_ids if c not in ep.present_classes
                ]
                assert min(present) > max(absent)

    def test_noise_free_energy_separation(self):
        """Mean correlation energy of present classes beats absent at
        every level (aggregate comparison; individual absent classes may
        overlap when classes outnumber channels)."""
        cfg = SynthConfig(noise_sigma=0.0)
        for seed in (3, 4):
            ep = synth_episode(cfg, seed)
            for lv in ep.levels:
                energy = {}
                for cid in ep.class_ids:
                    proto = build_prototype(cid, ep.supports[cid])
                    c = correlate(ep.levels[lv], proto.vectors[lv])
                    energy[cid] = float((c.data.astype(np.float64) ** 2).mean())
                present = [energy[c] for c in ep.present_classes]
                absent = [energy[c] for c in ep.class_ids if c not in ep.present_classes]
                assert np.mean(present) > np.mean(absent)

    def test_every_present_class_has_boxes(self):
        ep = synth_episode(SynthConfig(), 5)
        for cid in ep.present_classes:
            assert ep.gt_boxes[cid]
            for x1, y1, x2, y2 in ep.gt_boxes[cid]:
                assert 0 <= x1 < x2 <= 8
                assert 0 <= y1 < y2 <= 8

    def test_all_classes_have_k_shots(self):
        cfg = SynthConfig(k=2, num_classes=5)
        ep = synth_episode(cfg, 6)
        assert ep.class_ids == list(range(5))
        for lv in FEATURE_LEVELS:
            stack = ep.shots[lv]
            assert stack.shape == (5, 2, CHANNELS[lv], *SUPPORT_GRIDS[lv])
            assert stack.dtype == np.float32 and stack.flags.c_contiguous

    def test_supports_view_the_stacks(self):
        """supports[i][j][lv] is shot j of class i at level lv, a view of
        the episode's stack."""
        ep = synth_episode(SynthConfig(k=3, num_classes=4), 6)
        assert sorted(ep.supports) == ep.class_ids
        for i, shots in ep.supports.items():
            assert len(shots) == 3
            for j, shot in enumerate(shots):
                assert list(shot) == list(FEATURE_LEVELS)
                for lv, fm in shot.items():
                    assert np.shares_memory(fm.data, ep.shots[lv])
                    assert fm.data.tobytes() == ep.shots[lv][i, j].tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(num_classes=0)
        with pytest.raises(ValueError):
            SynthConfig(present_count=30, num_classes=20)
        with pytest.raises(ValueError):
            SynthConfig(k=0)


class TestEpisodeInvariants:
    @staticmethod
    def _with_shots(ep, **stacks):
        """ep's levels and labels, with the named levels' stacks replaced."""
        shots = {**ep.shots, **{Level(name): a for name, a in stacks.items()}}
        return Episode(query_id="bad", levels=ep.levels, shots=shots, gt_boxes={})

    @pytest.mark.parametrize("cut", [(slice(0, 2),), (slice(None), slice(0, 1)),
                                     (slice(None), slice(0, 0)), (slice(0, 0),),
                                     (slice(None),) * 2 + (slice(0, 0),),
                                     (slice(None),) * 3 + (slice(0, 0),),
                                     (slice(None),) * 4 + (slice(0, 0),)],
                             ids=["fewer-classes", "fewer-shots", "no-shots", "no-classes",
                                  "no-channels", "no-rows", "no-columns"])
    def test_stack_sizes_must_agree(self, cut):
        """Every level's stack has the same class count and shot count,
        both at least 1, and shots of at least one channel, row and
        column."""
        ep = synth_episode(SynthConfig(num_classes=3, k=2, present_count=0), 9)
        with pytest.raises(ValueError, match="support s"):
            self._with_shots(ep, L3=ep.shots[Level.L3][cut])

    @pytest.mark.parametrize("bad", ["float64", "rank4", "rank6", "list"])
    def test_stack_must_be_rank5_float32(self, bad):
        ep = synth_episode(SynthConfig(num_classes=3, k=2, present_count=0), 9)
        stack = ep.shots[Level.L2]
        stack = {"float64": stack.astype(np.float64), "rank4": stack[0],
                 "rank6": stack[None], "list": stack.tolist()}[bad]
        with pytest.raises(ValueError, match="L2 support shots must be one rank-5 float32"):
            self._with_shots(ep, L2=stack)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_shot_rejected(self, value):
        ep = synth_episode(SynthConfig(num_classes=3, k=2, present_count=0), 9)
        stack = ep.shots[Level.L4].copy()
        stack[2, 1, 5, 0, 1] = value
        with pytest.raises(ValueError, match="L4 support shots contain non-finite"):
            self._with_shots(ep, L4=stack)

    def test_degenerate_box_rejected(self):
        ep = synth_episode(SynthConfig(), 8)
        cid = sorted(ep.present_classes)[0]
        with pytest.raises(ValueError):
            Episode(
                query_id="bad",
                levels=ep.levels,
                shots=ep.shots,
                gt_boxes={**ep.gt_boxes, cid: [(3.0, 2.0, 3.0, 4.0)]},
            )

    def test_unknown_class_id_rejected(self):
        """Present classes and boxes must name candidate classes: recall
        would count a class that can never be selected."""
        ep = synth_episode(SynthConfig(num_classes=5), 10)
        boxes = dict(ep.gt_boxes)
        boxes[99] = [(0.0, 0.0, 1.0, 1.0)]
        with pytest.raises(ValueError, match="99"):
            Episode(query_id="bad", levels=ep.levels, shots=ep.shots, gt_boxes=boxes)
