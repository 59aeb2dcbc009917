"""Evaluation metrics: omission rate, selection recall, and a desk-scale
average precision over toy detections.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .episodes import Box, Episode
from .selector import All, InferenceResult, SelectionStrategy, run_inference, select

IOU_THRESHOLD = 0.5  # the default IoU at which a detection matches a ground-truth box


def omission_rate(ap_full: float, ap_minor: float) -> float:
    """Signed percentage AP change of the minor loop vs. the full loop.

    Zero when equal, negative when the minor loop loses AP. Undefined
    (rejected) when ap_full is 0.
    """
    if ap_full == 0:
        raise ValueError("omission rate undefined for ap_full == 0")
    return -(ap_full - ap_minor) / ap_full * 100.0 + 0.0  # avoid -0.0


def iou(a: Box, b: Box) -> float:
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    inter = max(0.0, ix2 - ix1) * max(0.0, iy2 - iy1)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def _class_ap(dets: list[tuple[str, Box, float]],
              gts: dict[str, list[Box]],
              iou_threshold: float) -> float:
    """AP for one class over all episodes; gts holds at least one box.

    Detections sorted by confidence; greedy match against unmatched
    ground truth in the same episode; area under the interpolated
    (running-max) precision-recall curve.
    """
    n_gt = sum(len(boxes) for boxes in gts.values())
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][2], dets[i][0], dets[i][1]))
    matched: dict[str, set[int]] = {eid: set() for eid in gts}
    tp = np.zeros(len(order))
    for rank, i in enumerate(order):
        eid, box, _ = dets[i]
        boxes = gts.get(eid, [])
        best, best_iou = -1, iou_threshold
        for gi, gt in enumerate(boxes):
            if gi in matched.get(eid, set()):
                continue
            v = iou(box, gt)
            if v >= best_iou:
                best, best_iou = gi, v
        if best >= 0:
            matched.setdefault(eid, set()).add(best)
            tp[rank] = 1.0
    if len(order) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.arange(1, len(order) + 1)
    # Monotone envelope, then sum precision * recall increments.
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    ap = 0.0
    prev_r = 0.0
    for p, r in zip(precision, recall):
        ap += p * (r - prev_r)
        prev_r = r
    return float(ap)


def _check_iou(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError("iou_threshold must lie in (0, 1)")


def average_precision(
    detections: dict[int, list[tuple[str, Box, float]]],
    gt_boxes: dict[int, dict[str, list[Box]]],
    iou_threshold: float = IOU_THRESHOLD,
) -> tuple[float, dict[int, float]]:
    """Mean AP over classes with at least one ground-truth box.

    detections[class] is a list of (episode_id, box, confidence);
    gt_boxes[class][episode_id] is the box list for that episode.
    """
    _check_iou(iou_threshold)
    per_class = {}
    for cid, gts in gt_boxes.items():
        if sum(len(b) for b in gts.values()) == 0:
            continue
        per_class[cid] = _class_ap(detections.get(cid, []), gts, iou_threshold)
    if not per_class:
        return 0.0, {}
    return float(np.mean(list(per_class.values()))), per_class


@dataclass
class EvalReport:
    ap_full: float
    ap_minor: float
    omission_rate: float
    per_class_recall: dict[int, float]
    mean_recall: float
    timings: dict[str, float] = field(default_factory=dict)


def collect_detections(
    episodes: list[Episode], results: list[InferenceResult]
) -> tuple[dict[int, list[tuple[str, Box, float]]], dict[int, dict[str, list[Box]]]]:
    """Flatten per-episode inference output into AP inputs."""
    dets: dict[int, list[tuple[str, Box, float]]] = {}
    gts: dict[int, dict[str, list[Box]]] = {}
    for ep, res in zip(episodes, results):
        for cid in ep.class_ids:
            gts.setdefault(cid, {})[ep.query_id] = list(ep.gt_boxes.get(cid, []))
            for det in res.detections.get(cid, []):
                dets.setdefault(cid, []).append((ep.query_id, det.box, det.confidence))
    return dets, gts


def class_recall_report(
    episodes: list[Episode], results: list[InferenceResult]
) -> tuple[dict[int, float], float]:
    """Per-class selection recall aggregated over episodes.

    Classes never present anywhere are excluded (undefined recall).
    """
    hits: dict[int, int] = {}
    totals: dict[int, int] = {}
    for ep, res in zip(episodes, results):
        chosen = set(res.selected)
        for cid in ep.present_classes:
            totals[cid] = totals.get(cid, 0) + 1
            if cid in chosen:
                hits[cid] = hits.get(cid, 0) + 1
    per_class = {cid: hits.get(cid, 0) / n for cid, n in sorted(totals.items())}
    mean = float(np.mean(list(per_class.values()))) if per_class else 1.0
    return per_class, mean


def evaluate(
    model,
    proj,
    episodes: list[Episode],
    strategy: SelectionStrategy,
    iou_threshold: float = IOU_THRESHOLD,
) -> EvalReport:
    """Run the full loop once per episode; report AP for it and for the
    strategy's minor loop, the omission rate between them, and class-wise
    recall.

    Each class's fused map and detections do not depend on which other
    classes share its batch, so the minor loop's result is the full loop's
    restricted to select(scores, strategy), with empty lists for the other
    classes. Timings are the full pass's per-stage sums. A bad
    iou_threshold is rejected before the first episode runs.
    """
    _check_iou(iou_threshold)
    full_results, minor_results = [], []
    timings: dict[str, float] = {}
    for ep in episodes:
        res = run_inference(model, proj, ep, All())
        selected = select(res.scores, strategy)
        kept = set(selected)
        minor_results.append(replace(
            res, selected=selected, timings={},
            detections={cid: d if cid in kept else [] for cid, d in res.detections.items()}))
        full_results.append(res)
        for k, v in res.timings.items():
            timings[f"full_{k}"] = timings.get(f"full_{k}", 0.0) + v
    dets_full, gts = collect_detections(episodes, full_results)
    dets_minor, _ = collect_detections(episodes, minor_results)
    ap_full, _ = average_precision(dets_full, gts, iou_threshold)
    ap_minor, _ = average_precision(dets_minor, gts, iou_threshold)
    per_class, mean_recall = class_recall_report(episodes, minor_results)
    orate = omission_rate(ap_full, ap_minor) if ap_full > 0 else 0.0
    return EvalReport(
        ap_full=ap_full,
        ap_minor=ap_minor,
        omission_rate=orate,
        per_class_recall=per_class,
        mean_recall=mean_recall,
        timings=timings,
    )
