"""Tests for omission rate, selection recall, IoU, and the detection
average-precision metric."""

import numpy as np
import pytest

from preselect.episodes import FusionProjector, SynthConfig, synth_episodes
from preselect.metrics import (
    EvalReport,
    average_precision,
    class_recall_report,
    collect_detections,
    evaluate,
    iou,
    omission_rate,
)
from preselect.scorer import ScoreModel
from preselect.selector import Adaptive, All, TopN, run_inference
from preselect.tensor_ops import Level

from helpers import random_projector


class TestOmissionRate:
    def test_ten_percent_loss(self):
        assert omission_rate(10.0, 9.0) == pytest.approx(-10.0)

    def test_equal_aps_are_lossless(self):
        for ap in (0.1, 0.5, 8.01, 100.0):
            assert omission_rate(ap, ap) == 0.0

    def test_no_negative_zero(self):
        assert str(omission_rate(0.5, 0.5)) == "0.0"

    def test_round_trip_recovers_minor_ap(self):
        # ap_minor = ap_full * (1 + OR/100); -1.51% off 8.01 is ~7.889.
        ap_full, rate = 8.01, -1.51
        ap_minor = ap_full * (1.0 + rate / 100.0)
        assert ap_minor == pytest.approx(7.889, abs=1e-3)
        assert omission_rate(ap_full, ap_minor) == pytest.approx(rate, abs=1e-9)

    def test_monotone_in_minor_ap(self):
        values = [omission_rate(2.0, m) for m in (0.5, 1.0, 1.5, 2.0, 2.5)]
        assert values == sorted(values)

    def test_rejects_zero_full_ap(self):
        with pytest.raises(ValueError):
            omission_rate(0.0, 1.0)


class TestIou:
    def test_identical_boxes(self):
        assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0

    def test_touching_edges_no_overlap(self):
        assert iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0

    def test_hand_case(self):
        # 1x2 overlap, areas 4 and 4, union 6.
        assert iou((0, 0, 2, 2), (1, 0, 3, 2)) == pytest.approx(2 / 6)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x1, y1 = rng.uniform(0, 4, 2)
            a = (x1, y1, x1 + rng.uniform(0.5, 3), y1 + rng.uniform(0.5, 3))
            x1, y1 = rng.uniform(0, 4, 2)
            b = (x1, y1, x1 + rng.uniform(0.5, 3), y1 + rng.uniform(0.5, 3))
            assert iou(a, b) == pytest.approx(iou(b, a))


def reference_ap(dets, gts, thr):
    """Independent AP oracle: walk detections by descending confidence,
    greedily match, then integrate max-precision-at-recall>=r over the
    observed recall points."""
    n_gt = sum(len(b) for b in gts.values())
    order = sorted(dets, key=lambda d: (-d[2], d[0], d[1]))
    used = set()
    flags = []
    for eid, box, _ in order:
        hit = None
        best = thr
        for gi, gt in enumerate(gts.get(eid, [])):
            if (eid, gi) in used:
                continue
            v = iou(box, gt)
            if v >= best:
                hit, best = gi, v
        if hit is not None:
            used.add((eid, hit))
            flags.append(1)
        else:
            flags.append(0)
    points = []
    tp = 0
    for i, f in enumerate(flags):
        tp += f
        points.append((tp / n_gt, tp / (i + 1)))
    ap = 0.0
    prev_r = 0.0
    for r, _ in points:
        if r <= prev_r:
            continue
        best_p = max(p for rr, p in points if rr >= r)
        ap += best_p * (r - prev_r)
        prev_r = r
    return ap


class TestAveragePrecision:
    def test_perfect_single_class(self):
        dets = {0: [("e0", (1, 1, 3, 3), 0.9)]}
        gts = {0: {"e0": [(1, 1, 3, 3)]}}
        mean, per_class = average_precision(dets, gts)
        assert mean == pytest.approx(1.0)
        assert per_class[0] == pytest.approx(1.0)

    def test_total_miss(self):
        dets = {0: [("e0", (5, 5, 6, 6), 0.9)]}
        gts = {0: {"e0": [(0, 0, 1, 1)]}}
        mean, _ = average_precision(dets, gts)
        assert mean == 0.0

    def test_no_detections(self):
        mean, per_class = average_precision({}, {0: {"e0": [(0, 0, 1, 1)]}})
        assert mean == 0.0
        assert per_class[0] == 0.0

    def test_false_positive_after_hit(self):
        # Hit at rank 1, miss at rank 2: precision envelope 1 at the
        # only recall point, so AP stays 1.
        dets = {0: [("e0", (0, 0, 2, 2), 0.9), ("e0", (5, 5, 7, 7), 0.5)]}
        gts = {0: {"e0": [(0, 0, 2, 2)]}}
        mean, _ = average_precision(dets, gts)
        assert mean == pytest.approx(1.0)

    def test_miss_before_hit_halves_precision(self):
        dets = {0: [("e0", (5, 5, 7, 7), 0.9), ("e0", (0, 0, 2, 2), 0.5)]}
        gts = {0: {"e0": [(0, 0, 2, 2)]}}
        mean, _ = average_precision(dets, gts)
        assert mean == pytest.approx(0.5)

    def test_random_scenarios_match_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            gts = {}
            dets = []
            for eid in ("a", "b", "c"):
                boxes = []
                for _ in range(rng.integers(0, 3)):
                    x, y = rng.uniform(0, 5, 2)
                    boxes.append((x, y, x + rng.uniform(1, 3), y + rng.uniform(1, 3)))
                gts[eid] = boxes
                for _ in range(rng.integers(0, 4)):
                    x, y = rng.uniform(0, 5, 2)
                    dets.append((eid, (x, y, x + rng.uniform(1, 3),
                                       y + rng.uniform(1, 3)),
                                 float(rng.uniform())))
            if not any(gts.values()):
                continue
            mean, _ = average_precision({0: dets}, {0: gts}, 0.5)
            assert mean == pytest.approx(reference_ap(dets, gts, 0.5), abs=1e-9)

    def test_confidence_transform_invariance(self):
        """AP depends on confidence order only, not magnitude."""
        rng = np.random.default_rng(2)
        dets = []
        gts = {"e": [(0, 0, 2, 2), (4, 4, 6, 6)]}
        for _ in range(6):
            x, y = rng.uniform(0, 5, 2)
            dets.append(("e", (x, y, x + 2, y + 2), float(rng.uniform())))
        base, _ = average_precision({0: dets}, {0: gts})
        warped = [(e, b, float(np.tanh(3 * c))) for e, b, c in dets]
        same, _ = average_precision({0: warped}, {0: gts})
        assert same == pytest.approx(base)

    def test_mean_over_classes_with_gt_only(self):
        dets = {0: [("e", (0, 0, 2, 2), 0.9)], 1: [("e", (0, 0, 2, 2), 0.9)]}
        gts = {0: {"e": [(0, 0, 2, 2)]}, 1: {"e": []}}
        mean, per_class = average_precision(dets, gts)
        assert mean == pytest.approx(1.0)
        assert 1 not in per_class

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            average_precision({}, {}, iou_threshold=0.0)


def tiny_pipeline(n_eps=4, seed=0):
    cfg = SynthConfig(num_classes=6, present_count=2, k=2)
    episodes = synth_episodes(cfg, seed, n_eps)
    channels = {lv: episodes[0].levels[lv].channels for lv in episodes[0].levels}
    c4 = channels[Level.L4]
    model = ScoreModel.init(c4, hidden=16, seed=seed)
    proj = FusionProjector.identity(channels, c4)
    return model, proj, episodes


class TestAggregation:
    def test_collect_detections_shapes(self):
        model, proj, episodes = tiny_pipeline()
        results = [run_inference(model, proj, ep, All()) for ep in episodes]
        dets, gts = collect_detections(episodes, results)
        for ep in episodes:
            for cid in ep.class_ids:
                assert ep.query_id in gts[cid]
                expected = ep.gt_boxes.get(cid, [])
                assert gts[cid][ep.query_id] == expected

    def test_class_recall_report_with_all(self):
        model, proj, episodes = tiny_pipeline()
        results = [run_inference(model, proj, ep, All()) for ep in episodes]
        per_class, mean = class_recall_report(episodes, results)
        assert mean == 1.0
        assert all(v == 1.0 for v in per_class.values())

    def test_evaluate_all_strategy_is_lossless(self):
        model, proj, episodes = tiny_pipeline()
        report = evaluate(model, proj, episodes, All())
        assert report.ap_minor == report.ap_full
        assert report.omission_rate == 0.0
        assert report.mean_recall == 1.0


def two_pass_evaluate(model, proj, episodes, strategy):
    """evaluate's report fields from a full loop and a separate minor loop
    per episode: the reference that the single pass must equal."""
    full = [run_inference(model, proj, ep, All()) for ep in episodes]
    minor = [run_inference(model, proj, ep, strategy) for ep in episodes]
    dets_full, gts = collect_detections(episodes, full)
    dets_minor, _ = collect_detections(episodes, minor)
    ap_full, _ = average_precision(dets_full, gts)
    ap_minor, _ = average_precision(dets_minor, gts)
    per_class, mean_recall = class_recall_report(episodes, minor)
    orate = omission_rate(ap_full, ap_minor) if ap_full > 0 else 0.0
    return ap_full, ap_minor, orate, per_class, mean_recall


class TestSinglePassEvaluate:
    @staticmethod
    def _pipeline():
        cfg = SynthConfig(num_classes=6, present_count=2, k=2)
        episodes = synth_episodes(cfg, 4, 8)
        channels = {lv: episodes[0].levels[lv].channels for lv in episodes[0].levels}
        model = ScoreModel.init(channels[Level.L4], hidden=16, seed=4)
        proj = random_projector(channels, 24, np.random.default_rng(4))
        return model, proj, episodes

    def test_one_full_loop_per_episode(self, monkeypatch):
        model, proj, episodes = self._pipeline()
        strategies = []

        def counting(model, proj, ep, strategy):
            strategies.append(strategy)
            return run_inference(model, proj, ep, strategy)

        monkeypatch.setattr("preselect.metrics.run_inference", counting)
        report = evaluate(model, proj, episodes, TopN(2))
        assert strategies == [All()] * len(episodes)
        assert set(report.timings) == {"full_setup", "full_scoring", "full_fusion",
                                       "full_detect"}

    def test_matches_two_pass_oracle(self):
        model, proj, episodes = self._pipeline()
        scores = [s for ep in episodes
                  for s in run_inference(model, proj, ep, All()).scores.values()]
        assert max(scores) < 1.0  # so Adaptive(1.0) selects nothing
        thresholds = [0.0, float(np.median(scores)), float(np.percentile(scores, 75)), 1.0]
        n = len(episodes[0].class_ids)
        strategies = ([TopN(k) for k in range(1, n + 1)]
                      + [Adaptive(t) for t in thresholds] + [All()])
        for strategy in strategies:
            report = evaluate(model, proj, episodes, strategy)
            got = (report.ap_full, report.ap_minor, report.omission_rate,
                   report.per_class_recall, report.mean_recall)
            assert got == two_pass_evaluate(model, proj, episodes, strategy), strategy
        assert report.ap_full > 0

    @pytest.mark.parametrize("threshold", [0.0, 1.0, float("nan")])
    def test_bad_threshold_rejected_before_any_query(self, monkeypatch, threshold):
        model, proj, episodes = self._pipeline()
        calls = []
        monkeypatch.setattr("preselect.metrics.run_inference",
                            lambda *args: calls.append(args) or run_inference(*args))
        with pytest.raises(ValueError, match="iou_threshold"):
            evaluate(model, proj, episodes, TopN(2), iou_threshold=threshold)
        assert calls == []

    def test_no_episodes(self):
        model, proj, _ = self._pipeline()
        assert evaluate(model, proj, [], TopN(2)) == EvalReport(0.0, 0.0, 0.0, {}, 1.0, {})
