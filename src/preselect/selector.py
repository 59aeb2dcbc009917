"""Minor-loop orchestration: score every candidate class cheaply on its L4
prototype, keep only the most promising ones, and run the expensive
per-class stages (L2/L3 prototypes, level fusion, toy detection) for that
subset, each once per query over every class it serves. The detector boxes
a heat map by the half-maximum rule (episodes.BOX_LEVEL) that draws the
synthetic ground truth; each class's detections are stored under its id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .episodes import (BOX_LEVEL, FEATURE_LEVELS, Box, Episode, FusionProjector, align_query,
                       fuse_batch, prototype_matrices)
from .scorer import ScoreModel, query_scores
from .tensor_ops import Level


@dataclass(frozen=True)
class TopN:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("TopN needs n >= 1")


@dataclass(frozen=True)
class Adaptive:
    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("adaptive threshold must lie in [0, 1]")


@dataclass(frozen=True)
class All:
    pass


SelectionStrategy = TopN | Adaptive | All


@dataclass(frozen=True)
class Detection:
    box: Box  # L4-grid units
    confidence: float


def select(scores: dict[int, float], strategy: SelectionStrategy) -> list[int]:
    """Pick the minor-loop class set, sorted by score descending.

    Ties break toward the lower class id. An empty selection is legal.
    """
    if not scores:
        raise ValueError("scores must be nonempty")
    ranked = sorted(scores, key=lambda cid: (-scores[cid], cid))
    if isinstance(strategy, TopN):
        return ranked[: strategy.n]
    if isinstance(strategy, Adaptive):
        return [cid for cid in ranked if scores[cid] >= strategy.threshold]
    return ranked


def detect_batch(fused: np.ndarray) -> list[list[Detection]]:
    """Blob detector on the channel-mean heat map of each map of an
    (N, C, H, W) stack, labelled in one pass; the n-th list holds the n-th
    map's detections.

    In each heat map, cells at or above BOX_LEVEL * its max form
    4-connected components, as synth_episode draws its ground truth; each
    becomes a box with confidence = component peak. An all-nonpositive heat
    map yields no detections.
    """
    heat = fused.mean(axis=1, dtype=np.float64)
    n, h, w = heat.shape
    peak = heat.max(axis=(1, 2))
    mask = (heat >= (BOX_LEVEL * peak)[:, None, None]) & (peak > 0)[:, None, None]
    out: list[list[Detection]] = [[] for _ in range(n)]
    cells = np.flatnonzero(mask)
    if not cells.size:
        return out
    roots = label4(mask).ravel()[cells]
    order = np.argsort(roots, kind="stable")
    cells, roots = cells[order], roots[order]
    # A component's root is its first cell, so each group starts there.
    starts = np.flatnonzero(roots == cells)
    images, ys, xs = np.unravel_index(cells, mask.shape)
    lo = [np.minimum.reduceat(c, starts).astype(float).tolist() for c in (xs, ys)]
    hi = [(np.maximum.reduceat(c, starts) + 1.0).tolist() for c in (xs, ys)]
    boxes = zip(*lo, *hi)  # (x1, y1, x2, y2)
    conf = np.maximum.reduceat(heat.ravel()[cells], starts).tolist()
    for img, box, peak_value in zip(images[starts].tolist(), boxes, conf):
        out[img].append(Detection(box, peak_value))
    for dets in out:
        dets.sort(key=lambda d: (-d.confidence, d.box))
    return out


def label4(mask: np.ndarray) -> np.ndarray:
    """4-connected components of each (H, W) mask of an (N, H, W) stack.

    Each foreground cell gets the flat index of its component's first cell
    in row-major order (the same for the whole component, never shared
    between images); the background gets -1. Union-find over neighbour
    edges, all edges at once: hook each edge's larger root under the
    smaller, then compress paths to roots, until every edge joins cells of
    one root. A root only ever moves to a smaller index, so the surviving
    root is the component's smallest index.
    """
    n, h, w = mask.shape
    ids = np.arange(mask.size).reshape(n, h, w)
    right = mask[:, :, :-1] & mask[:, :, 1:]
    down = mask[:, :-1, :] & mask[:, 1:, :]
    left_cells, up_cells = ids[:, :, :-1][right], ids[:, :-1, :][down]
    a = np.concatenate([left_cells, up_cells])
    b = np.concatenate([left_cells + 1, up_cells + w])
    parent = ids.ravel()
    while True:
        pa, pb = parent[a], parent[b]
        if (pa == pb).all():
            break
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand
    return np.where(mask, parent.reshape(n, h, w), -1)


@dataclass
class InferenceResult:
    detections: dict[int, list[Detection]]  # every candidate class keyed
    selected: list[int]
    scores: dict[int, float]
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def heavy_calls(self) -> int:
        """The classes that went through fusion and detection."""
        return len(self.selected)


def run_inference(
    model: ScoreModel,
    proj: FusionProjector,
    episode: Episode,
    strategy: SelectionStrategy,
) -> InferenceResult:
    """Score -> select -> heavy stage for the selected classes only.

    Non-selected classes report empty detection lists. Timings record
    wall-clock seconds per stage. Setup is the work done once per query
    that the full loop needs too: every class's L4 prototype and the query
    levels aligned to the L4 grid. Scoring is everything the filter adds:
    the L4 query statistics, every class's confidence vector and the MLP.
    Fusion builds the L2/L3 prototypes of the selected classes alone and
    fuses them; it and detect each run once over those classes. The
    64-channel fused maps stand in for the paper's per-class detection
    head. The toy detector reads only their channel mean, but the maps are
    kept so that the heavy stage keeps the paper's cost shape.
    """
    t0 = time.perf_counter()
    l4 = prototype_matrices({Level.L4: episode.shots[Level.L4]})
    t1 = time.perf_counter()
    values = query_scores(model, episode.levels[Level.L4].data, l4)
    scores = dict(enumerate(values.tolist()))
    t2 = time.perf_counter()

    selected = select(scores, strategy)

    # Setup work that only fusion reads, done just before it.
    t3 = time.perf_counter()
    aligned = align_query(episode.levels)
    t4 = time.perf_counter()
    upper = {lv: episode.shots[lv] for lv in FEATURE_LEVELS[:-1]}  # built for selected rows only
    if len(selected) == len(scores):  # reorder built rows rather than copy every class's shots
        upper = prototype_matrices(upper)[selected]
    elif selected:
        upper = prototype_matrices({lv: a[selected] for lv, a in upper.items()})
    else:
        upper = np.empty((0, len(aligned) - l4.shape[1]), np.float32)
    fused = fuse_batch(aligned, np.concatenate([upper, l4[selected]], axis=1), proj)
    t5 = time.perf_counter()
    found = detect_batch(fused)
    t6 = time.perf_counter()

    detections: dict[int, list[Detection]] = {cid: [] for cid in episode.class_ids}
    detections.update(zip(selected, found))
    return InferenceResult(
        detections=detections,
        selected=selected,
        scores=scores,
        timings={"setup": (t1 - t0) + (t4 - t3), "scoring": t2 - t1,
                 "fusion": t5 - t4, "detect": t6 - t5},
    )
