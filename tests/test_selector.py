"""Tests for selection strategies, the toy blob detector, and the
minor-loop inference orchestration."""

import dataclasses

import numpy as np
import pytest

from preselect import selector
from preselect.episodes import (
    BOX_LEVEL,
    FusionProjector,
    SynthConfig,
    _gaussian_blob,
    align_query,
    fuse_batch,
    prototype_matrices,
    synth_episode,
)
from preselect.scorer import ScoreModel
from preselect.selector import (
    Adaptive,
    All,
    TopN,
    detect_batch,
    label4,
    run_inference,
    select,
)
from preselect.tensor_ops import FeatureMap, Level

from helpers import heat_oracle, order_sensitive, random_projector


def flood_fill_labels(mask):
    """4-connected component labels of one (H, W) mask by flood fill:
    0 for background, 1.. in row-major order of each component's first
    cell."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    current = 0
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or labels[sy, sx]:
                continue
            current += 1
            stack = [(sy, sx)]
            labels[sy, sx] = current
            while stack:
                y, x = stack.pop()
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not labels[ny, nx]:
                        labels[ny, nx] = current
                        stack.append((ny, nx))
    return labels


def canonical(labels, background=-1):
    """Relabel one (H, W) labelling 0 (background) and 1.. in row-major
    order of each component's first cell, so equal partitions compare
    equal."""
    out = np.zeros(labels.shape, dtype=np.int32)
    seen: dict[int, int] = {}
    for idx, lab in np.ndenumerate(labels):
        if lab == background:
            continue
        out[idx] = seen.setdefault(int(lab), len(seen) + 1)
    return out


def spiral(n):
    """A one-cell-wide square spiral on an n x n grid: one component whose
    cells are up to ~n*n/2 steps apart."""
    m = np.zeros((n, n), dtype=bool)
    y, x, dy, dx = 0, 0, 0, 1
    m[y, x] = True
    turns = 0
    while turns < 2:
        ny, nx, ay, ax = y + dy, x + dx, y + 2 * dy, x + 2 * dx
        ahead_free = 0 <= ny < n and 0 <= nx < n and not m[ny, nx]
        beyond_taken = 0 <= ay < n and 0 <= ax < n and m[ay, ax]
        if ahead_free and not beyond_taken:
            y, x, turns = ny, nx, 0
            m[y, x] = True
        else:
            dy, dx, turns = dx, -dy, turns + 1
    return m


def mask_cases():
    rng = np.random.default_rng(21)
    cases = {
        "spiral": spiral(11),
        "all_true": np.ones((6, 7), dtype=bool),
        "all_false": np.zeros((6, 7), dtype=bool),
        "checkerboard": (np.indices((7, 6)).sum(axis=0) % 2).astype(bool),
        "single_row": rng.random((1, 9)) < 0.6,
        "single_column": rng.random((9, 1)) < 0.6,
    }
    for i, density in enumerate((0.3, 0.5, 0.6, 0.7, 0.9)):
        for j in range(4):
            shape = tuple(int(d) for d in rng.integers(1, 12, size=2))
            cases[f"random_{density}_{j}"] = rng.random(shape) < density
    return cases


MASKS = mask_cases()


class TestSelect:
    SCORES = {0: 0.9, 1: 0.2, 2: 0.7, 3: 0.4}

    def test_topn_keeps_best(self):
        assert select(self.SCORES, TopN(2)) == [0, 2]

    def test_topn_larger_than_pool(self):
        assert select(self.SCORES, TopN(10)) == [0, 2, 3, 1]

    def test_topn_monotone_nesting(self):
        rng = np.random.default_rng(0)
        scores = {cid: float(rng.uniform()) for cid in range(12)}
        prev: set[int] = set()
        for n in range(1, 13):
            cur = set(select(scores, TopN(n)))
            assert prev <= cur
            prev = cur

    def test_adaptive_threshold(self):
        assert select(self.SCORES, Adaptive(0.5)) == [0, 2]

    def test_adaptive_zero_equals_all(self):
        assert select(self.SCORES, Adaptive(0.0)) == select(self.SCORES, All())

    def test_adaptive_may_select_nothing(self):
        assert select(self.SCORES, Adaptive(0.99)) == []

    def test_tie_break_by_class_id(self):
        assert select({3: 0.5, 1: 0.5, 2: 0.5}, TopN(2)) == [1, 2]

    def test_all_sorted_by_score(self):
        assert select(self.SCORES, All()) == [0, 2, 3, 1]

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            select({}, All())

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            TopN(0)
        with pytest.raises(ValueError):
            Adaptive(1.5)


class TestDetectToy:
    """detect_batch on one map (N=1)."""

    def test_single_hot_cell(self):
        heat = np.zeros((1, 1, 4, 4), np.float32)
        heat[0, 0, 1, 2] = 5.0
        dets = detect_batch(heat)[0]
        assert len(dets) == 1
        assert dets[0].box == (2.0, 1.0, 3.0, 2.0)
        assert dets[0].confidence == pytest.approx(5.0)

    def test_nonpositive_peak_yields_nothing(self):
        assert detect_batch(np.full((1, 2, 3, 3), -1.0, np.float32)) == [[]]

    def test_two_separate_components(self):
        heat = np.zeros((1, 1, 5, 5), np.float32)
        heat[0, 0, 0, 0] = 4.0
        heat[0, 0, 4, 4] = 3.0
        dets = detect_batch(heat)[0]
        assert len(dets) == 2
        # Sorted by confidence, descending.
        assert dets[0].confidence == pytest.approx(4.0)
        assert dets[1].confidence == pytest.approx(3.0)

    def test_diagonal_cells_not_connected(self):
        # 4-connectivity: diagonal neighbors form separate components.
        heat = np.zeros((1, 1, 3, 3), np.float32)
        heat[0, 0, 0, 0] = 2.0
        heat[0, 0, 1, 1] = 2.0
        assert len(detect_batch(heat)[0]) == 2

    def test_plus_shape_single_component(self):
        heat = np.zeros((1, 1, 3, 3), np.float32)
        for y, x in ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1)):
            heat[0, 0, y, x] = 3.0
        dets = detect_batch(heat)[0]
        assert len(dets) == 1
        assert dets[0].box == (0.0, 0.0, 3.0, 3.0)

    def test_channel_mean_oracle(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((4, 6, 6)).astype(np.float32)
        dets = detect_batch(data[None])[0]
        heat = data.astype(np.float64).mean(axis=0)
        peak = heat.max()
        n_cells = int((heat >= BOX_LEVEL * peak).sum())
        covered = sum(
            int((d.box[2] - d.box[0]) * (d.box[3] - d.box[1])) for d in dets
        )
        # Boxes cover at least every above-threshold cell.
        assert covered >= n_cells
        assert max(d.confidence for d in dets) == pytest.approx(peak)

    def test_box_rule_matches_ground_truth(self):
        """The detector boxes a lone blob as synth_episode boxes its ground
        truth, over 200 draws of synth_episode's blob placement."""
        rng = np.random.default_rng(31)
        h, w = 8, 8
        for _ in range(200):
            cy, cx = rng.uniform(2.0, h - 2.0), rng.uniform(2.0, w - 2.0)
            blob = _gaussian_blob(h, w, cy, cx, rng.uniform(0.8, 1.2))
            dets = detect_batch(blob[None, None])[0]
            ys, xs = np.nonzero(blob >= BOX_LEVEL * blob.max())
            want = (float(xs.min()), float(ys.min()), float(xs.max() + 1), float(ys.max() + 1))
            assert [d.box for d in dets] == [want]


class TestLabel4:
    """The batched labelling against a flood fill and scipy, one mask per
    batch and all masks of a shape in one batch."""

    @pytest.mark.parametrize("name", sorted(MASKS))
    def test_matches_flood_fill(self, name):
        mask = MASKS[name]
        got = label4(mask[None])[0]
        assert (got >= 0).tolist() == mask.tolist()
        np.testing.assert_array_equal(canonical(got), flood_fill_labels(mask))

    def test_spiral_is_one_component(self):
        assert flood_fill_labels(spiral(11)).max() == 1

    def test_batch_matches_single_masks(self):
        rng = np.random.default_rng(22)
        masks = rng.random((16, 8, 8)) < 0.55
        masks[3] = spiral(8)
        masks[4] = True
        masks[5] = False
        labels = label4(masks)
        for mask, got in zip(masks, labels):
            np.testing.assert_array_equal(canonical(got), flood_fill_labels(mask))
        # Components never span two masks of the batch.
        roots = labels[labels >= 0]
        images = np.nonzero(labels >= 0)[0]
        assert np.array_equal(roots // 64, images)

    @pytest.mark.parametrize("name", sorted(MASKS))
    def test_matches_scipy(self, name):
        ndimage = pytest.importorskip("scipy.ndimage")
        mask = MASKS[name]
        want, _ = ndimage.label(mask)
        np.testing.assert_array_equal(canonical(label4(mask[None])[0]), canonical(want, 0))


class TestDetectBatch:
    def test_matches_per_map_detect_toy(self):
        """A batch of maps against one N=1 call per map."""
        rng = np.random.default_rng(23)
        maps = rng.standard_normal((12, 3, 7, 9)).astype(np.float32)
        maps[4] = -np.abs(maps[4])  # all-nonpositive heat map: no detections
        batch = detect_batch(maps)
        assert batch[4] == []
        for m, dets in zip(maps, batch):
            assert dets == detect_batch(m[None])[0]

    def test_empty_batch(self):
        assert detect_batch(np.zeros((0, 2, 4, 4), np.float32)) == []

    def test_heat_bitwise_equal_to_float64_copy(self):
        """The heat maps that detect_batch reduces have the bytes of the
        channel mean of a float64 copy of the stack, for 0 to 100 maps
        whose every cell's channels hold an order_sensitive run (entries
        from 2^-40 to 2^40, some -0.0). A stack subclass records what its
        mean returns."""
        heats = []

        class Recorded(np.ndarray):
            def mean(self, *args, **kwargs):
                heats.append(np.asarray(super().mean(*args, **kwargs)))
                return heats[-1]

        rng = np.random.default_rng(41)
        for n in (0, 1, 5, 20, 100):
            maps = np.ascontiguousarray(order_sensitive(rng, (n, 5, 6), 24).transpose(0, 3, 1, 2))
            heats.clear()
            detect_batch(maps.view(Recorded))
            assert len(heats) == 1
            assert heats[0].tobytes() == heat_oracle(maps).tobytes()


class TestRunInference:
    @staticmethod
    def _setup(seed=0, **kwargs):
        cfg = SynthConfig(num_classes=8, present_count=2, k=2, **kwargs)
        ep = synth_episode(cfg, seed)
        channels = {lv: ep.levels[lv].channels for lv in ep.levels}
        c4 = channels[Level.L4]
        model = ScoreModel.init(c4, hidden=16, seed=seed)
        proj = FusionProjector.identity(channels, c4)
        return model, proj, ep

    def test_heavy_calls_match_selection(self):
        model, proj, ep = self._setup()
        res = run_inference(model, proj, ep, TopN(3))
        assert res.heavy_calls == 3
        assert len(res.selected) == 3
        with pytest.raises(AttributeError):
            res.heavy_calls = 0

    def test_unselected_classes_report_empty(self):
        model, proj, ep = self._setup()
        res = run_inference(model, proj, ep, TopN(2))
        for cid in ep.class_ids:
            if cid not in res.selected:
                assert res.detections[cid] == []

    def test_full_loop_covers_all_classes(self):
        model, proj, ep = self._setup()
        res = run_inference(model, proj, ep, All())
        assert sorted(res.selected) == ep.class_ids
        assert res.heavy_calls == len(ep.class_ids)

    def test_empty_selection(self):
        model, proj, ep = self._setup()
        res = run_inference(model, proj, ep, Adaptive(1.0))
        assert res.selected == [] and res.heavy_calls == 0
        assert all(d == [] for d in res.detections.values())

    def test_l2_l3_prototypes_built_for_selected_rows_only(self, monkeypatch):
        """run_inference builds every class's L4 prototypes in one call, and
        L2/L3 prototypes only for res.selected's rows: none for an empty
        selection."""
        model, proj, ep = self._setup(seed=4)
        calls = []

        def spy(shots):
            calls.append(shots)
            return prototype_matrices(shots)

        monkeypatch.setattr(selector, "prototype_matrices", spy)
        scores = sorted(run_inference(model, proj, ep, All()).scores.values())
        sizes = []
        for strategy in (TopN(1), TopN(3), Adaptive(scores[2]), Adaptive(scores[-1]), All(),
                         Adaptive(1.0)):
            calls.clear()
            res = run_inference(model, proj, ep, strategy)
            sizes.append(len(res.selected))
            l4_calls = [c for c in calls if Level.L4 in c]
            assert len(l4_calls) == 1 and set(l4_calls[0]) == {Level.L4}
            assert l4_calls[0][Level.L4] is ep.shots[Level.L4]
            upper = [c for c in calls if Level.L4 not in c]
            if not res.selected:
                assert upper == []
                continue
            assert len(upper) == 1 and set(upper[0]) == {Level.L2, Level.L3}
            for lv, stack in upper[0].items():
                rows = [next(i for i in ep.class_ids if np.array_equal(ep.shots[lv][i], shot))
                        for shot in stack]
                assert sorted(rows) == sorted(res.selected)
        assert sizes == [1, 3, 6, 1, 8, 0]

    def test_overflowing_fused_map_rejected(self):
        model, proj, ep = self._setup()
        for lv in proj.weights:
            proj.weights[lv] = np.full_like(proj.weights[lv], 3e38)
        with pytest.raises(ValueError, match="fused map"):
            run_inference(model, proj, ep, All())

    def test_overflowing_confidence_vector_rejected(self):
        # q * p overflows float32 where the local branch does.
        model, proj, ep = self._setup()
        big = dataclasses.replace(
            ep,
            levels={lv: FeatureMap(fm.data * 1e20) for lv, fm in ep.levels.items()},
            shots={lv: a * np.float32(1e20) for lv, a in ep.shots.items()},
        )
        with pytest.raises(ValueError, match="overflows float32"):
            run_inference(model, proj, big, TopN(2))

    def test_minor_loop_detections_subset_of_full(self):
        """On selected classes, minor-loop output equals the full loop,
        bit for bit, for every TopN(n) on several episodes: a class's
        score, fused map and detections do not depend on which classes
        share its batch. On 40 classes fused to 64 channels, the full
        batch and TopN(24) and up run in 12-class blocks."""
        cases = [(seed, *self._setup(seed=seed)[::2], 24, range(1, 9)) for seed in (3, 5, 8)]
        cases.append((13, ScoreModel.init(64, hidden=16, seed=13),
                      synth_episode(SynthConfig(num_classes=40, present_count=3, k=2), 13),
                      64, (1, 12, 13, 23, 24, 25, 40)))
        for seed, model, ep, out, sizes in cases:
            proj = random_projector(
                {lv: ep.levels[lv].channels for lv in ep.levels}, out,
                np.random.default_rng(seed))
            full = run_inference(model, proj, ep, All())
            protos = prototype_matrices(ep.shots)
            aligned = align_query(ep.levels)
            full_fused = fuse_batch(aligned, protos, proj)
            for n in sizes:
                minor = run_inference(model, proj, ep, TopN(n))
                assert minor.scores == full.scores
                assert minor.selected == full.selected[:n]
                for cid in ep.class_ids:
                    want = full.detections[cid] if cid in minor.selected else []
                    assert minor.detections[cid] == want
                rows = [ep.class_ids.index(cid) for cid in minor.selected]
                fused_minor = fuse_batch(aligned, protos[rows], proj)
                assert fused_minor.tobytes() == full_fused[rows].tobytes()

    def test_timings_present_and_nonnegative(self):
        model, proj, ep = self._setup()
        res = run_inference(model, proj, ep, TopN(2))
        assert set(res.timings) == {"setup", "scoring", "fusion", "detect"}
        assert all(v >= 0 for v in res.timings.values())
