"""Synthetic episode generation and the simplified correlation pipeline.

An episode bundles one query (multi-level feature maps) with k support
shots per candidate class plus ground truth: which classes are actually
present and where. Correlation against a class prototype is a depthwise
channel product; level fusion downsamples everything to the coarsest
grid, projects each level to a common channel count, and averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor_ops import FeatureMap, Level, downsample_avg

FEATURE_LEVELS = (Level.L2, Level.L3, Level.L4)

# Box on the coarsest (L4) grid: (x1, y1, x2, y2), x1 < x2, y1 < y2.
Box = tuple[float, float, float, float]


@dataclass(frozen=True)
class Episode:
    query_id: str
    levels: dict[Level, FeatureMap]
    supports: dict[int, list[dict[Level, FeatureMap]]]
    present_classes: frozenset[int]
    gt_boxes: dict[int, list[Box]]

    def __post_init__(self):
        for cid in self.present_classes:
            if not self.gt_boxes.get(cid):
                raise ValueError(f"present class {cid} has no ground-truth boxes")
        for cid, boxes in self.gt_boxes.items():
            for x1, y1, x2, y2 in boxes:
                if not (x1 < x2 and y1 < y2):
                    raise ValueError(f"degenerate box {(x1, y1, x2, y2)} for class {cid}")

    @property
    def class_ids(self) -> list[int]:
        return sorted(self.supports)


@dataclass(frozen=True)
class ClassPrototype:
    """Per-level channel vector summarizing a class's support shots."""

    class_id: int
    vectors: dict[Level, np.ndarray]


def build_prototype(class_id: int, shots: list[dict[Level, FeatureMap]]) -> ClassPrototype:
    """Spatially average each shot, then mean over shots, per level."""
    if not shots:
        raise ValueError("need at least one support shot")
    vectors: dict[Level, np.ndarray] = {}
    for level in shots[0]:
        channels = shots[0][level].channels
        acc = np.zeros(channels, dtype=np.float64)
        for shot in shots:
            fm = shot[level]
            if fm.channels != channels:
                raise ValueError(
                    f"support shots disagree on channels at {level}: "
                    f"{fm.channels} vs {channels}"
                )
            # Per-shot means round to float32; trained checkpoints depend on it.
            acc += fm.data.astype(np.float64).mean(axis=(1, 2)).astype(np.float32)
        vectors[level] = (acc / len(shots)).astype(np.float32)
    return ClassPrototype(class_id, vectors)


def correlate(query: FeatureMap, proto: np.ndarray) -> FeatureMap:
    """Depthwise correlation: scale each query channel by the prototype entry."""
    if proto.shape[0] != query.channels:
        raise ValueError(
            f"prototype dim {proto.shape[0]} != query channels {query.channels}"
        )
    return FeatureMap(query.data * proto[:, None, None], query.level)


@dataclass
class FusionProjector:
    """Learned per-level 1x1 channel projections onto a common width.

    weights[level] is (out_channels, in_channels); biases[level] is
    (out_channels,). These are the only trainable parameters outside
    the scoring model.
    """

    weights: dict[Level, np.ndarray]
    biases: dict[Level, np.ndarray]

    @property
    def out_channels(self) -> int:
        return next(iter(self.weights.values())).shape[0]

    @classmethod
    def identity(cls, channels: dict[Level, int], out_channels: int) -> "FusionProjector":
        """Identity-like init: eye padded/truncated to out_channels rows."""
        weights, biases = {}, {}
        for level, c_in in channels.items():
            w = np.zeros((out_channels, c_in), dtype=np.float32)
            for i in range(min(out_channels, c_in)):
                w[i, i] = 1.0
            weights[level] = w
            biases[level] = np.zeros(out_channels, dtype=np.float32)
        return cls(weights, biases)

    @classmethod
    def random(cls, channels: dict[Level, int], out_channels: int,
               rng: np.random.Generator) -> "FusionProjector":
        weights, biases = {}, {}
        for level, c_in in channels.items():
            bound = np.sqrt(6.0 / (c_in + out_channels))
            weights[level] = rng.uniform(-bound, bound, (out_channels, c_in)).astype(np.float32)
            biases[level] = np.zeros(out_channels, dtype=np.float32)
        return cls(weights, biases)

    def copy(self) -> "FusionProjector":
        return FusionProjector(
            {lv: w.copy() for lv, w in self.weights.items()},
            {lv: b.copy() for lv, b in self.biases.items()},
        )


def fuse_levels(maps: dict[Level, FeatureMap], proj: FusionProjector) -> FeatureMap:
    """Align all levels to the L4 grid, project channels, and average.

    Returns a FUSED map with proj.out_channels channels on the L4 grid.
    """
    target = maps[Level.L4]
    th, tw = target.height, target.width
    projected = []
    for level in FEATURE_LEVELS:
        fm = maps[level]
        if fm.height != th or fm.width != tw:
            fm = downsample_avg(fm, th, tw)
        w, b = proj.weights[level], proj.biases[level]
        flat = fm.data.reshape(fm.channels, th * tw).astype(np.float64)
        out = w.astype(np.float64) @ flat + b[:, None]
        projected.append(out)
    fused = np.mean(projected, axis=0).reshape(proj.out_channels, th, tw)
    return FeatureMap(fused.astype(np.float32), Level.FUSED)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic episode generator."""

    num_classes: int = 20
    present_count: int = 3
    k: int = 3
    channels: dict[Level, int] = field(
        default_factory=lambda: {Level.L2: 16, Level.L3: 32, Level.L4: 64}
    )
    query_grids: dict[Level, tuple[int, int]] = field(
        default_factory=lambda: {Level.L2: (32, 32), Level.L3: (16, 16), Level.L4: (8, 8)}
    )
    support_grids: dict[Level, tuple[int, int]] = field(
        default_factory=lambda: {Level.L2: (8, 8), Level.L3: (4, 4), Level.L4: (2, 2)}
    )
    blob_amplitude: float = 10.0
    noise_sigma: float = 0.3

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if not 0 <= self.present_count <= self.num_classes:
            raise ValueError("present_count must lie in [0, num_classes]")
        if self.k < 1:
            raise ValueError("k must be >= 1")


_SIGNATURE_DECAY = 0.25


def _class_signatures(cfg: SynthConfig, seed: int) -> dict[Level, np.ndarray]:
    """Per-level (num_classes, channels) unit signatures.

    Every class uses the same geometrically decaying magnitude pattern,
    permuted so each class peaks on its own (channel, sign) slot. Equal
    patterns make all self-correlation energies identical, while distinct
    permutations keep every cross-class energy strictly smaller -- that
    is what guarantees noise-free present/absent separation even when
    there are more classes than channels. Signatures depend only on
    (cfg dims, seed), so every episode drawn from one seed shares the
    same class identities.
    """
    rng = np.random.default_rng(seed)
    sigs = {}
    for level in FEATURE_LEVELS:
        c = cfg.channels[level]
        pattern = _SIGNATURE_DECAY ** np.arange(c)
        mags = np.sqrt(pattern / pattern.sum())  # descending, unit L2 norm
        out = np.zeros((cfg.num_classes, c))
        for cid in range(cfg.num_classes):
            peak = cid % c
            peak_sign = 1.0 if (cid // c) % 2 == 0 else -1.0
            rest = np.array([ch for ch in range(c) if ch != peak])
            rng.shuffle(rest)
            out[cid, peak] = peak_sign * mags[0]
            out[cid, rest] = rng.choice((-1.0, 1.0), size=c - 1) * mags[1:]
        sigs[level] = out.astype(np.float32)
    return sigs


def _gaussian_blob(h: int, w: int, cy: float, cx: float, sigma: float) -> np.ndarray:
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    return np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * sigma**2))


def synth_episode(cfg: SynthConfig, seed: int, index: int = 0) -> Episode:
    """Generate one deterministic episode.

    Present classes plant a Gaussian blob aligned with their channel
    signature into the query features at every level (scaled to each
    grid); supports carry the signature plus noise. Ground-truth boxes
    record blob extents on the L4 grid (half-width 1.2 * blob sigma,
    matching the half-maximum support the toy detector recovers).
    """
    sigs = _class_signatures(cfg, seed)
    rng = np.random.default_rng((seed, index))

    present = sorted(
        rng.choice(cfg.num_classes, size=cfg.present_count, replace=False).tolist()
    )
    h4, w4 = cfg.query_grids[Level.L4]

    # Blob placements on the L4 grid; kept away from the border so the
    # extent box stays inside every level's grid, and spaced apart so
    # one class's blob never swamps another's.
    placements = []
    centers: list[tuple[float, float]] = []
    for cid in present:
        cy = cx = 0.0
        for _ in range(64):
            cy = rng.uniform(2.0, h4 - 2.0)
            cx = rng.uniform(2.0, w4 - 2.0)
            if all((cy - py) ** 2 + (cx - px) ** 2 >= 9.0 for py, px in centers):
                break
        centers.append((cy, cx))
        sigma = rng.uniform(0.8, 1.2)
        placements.append((cid, cy, cx, sigma))

    levels: dict[Level, FeatureMap] = {}
    for level in FEATURE_LEVELS:
        c = cfg.channels[level]
        h, w = cfg.query_grids[level]
        scale = h / h4
        q = rng.standard_normal((c, h, w)) * cfg.noise_sigma
        for cid, cy, cx, bsig in placements:
            blob = _gaussian_blob(h, w, cy * scale + (scale - 1) / 2,
                                  cx * scale + (scale - 1) / 2, bsig * scale)
            q += cfg.blob_amplitude * sigs[level][cid][:, None, None] * blob[None, :, :]
        levels[level] = FeatureMap(q.astype(np.float32), level)

    supports: dict[int, list[dict[Level, FeatureMap]]] = {}
    for cid in range(cfg.num_classes):
        shots = []
        for _ in range(cfg.k):
            shot = {}
            for level in FEATURE_LEVELS:
                c = cfg.channels[level]
                sh, sw = cfg.support_grids[level]
                s = sigs[level][cid][:, None, None] + rng.standard_normal(
                    (c, sh, sw)
                ) * cfg.noise_sigma
                shot[level] = FeatureMap(s.astype(np.float32), level)
            shots.append(shot)
        supports[cid] = shots

    gt_boxes: dict[int, list[Box]] = {}
    for cid, cy, cx, bsig in placements:
        # Extent = the blob's above-half-maximum cells on the L4 grid,
        # i.e. exactly the support a relative-0.5 threshold recovers.
        blob = _gaussian_blob(h4, w4, cy, cx, bsig)
        ys, xs = np.nonzero(blob >= 0.5 * blob.max())
        box = (float(xs.min()), float(ys.min()),
               float(xs.max() + 1), float(ys.max() + 1))
        gt_boxes.setdefault(cid, []).append(box)

    return Episode(
        query_id=f"synth-{seed}-{index}",
        levels=levels,
        supports=supports,
        present_classes=frozenset(present),
        gt_boxes=gt_boxes,
    )


def synth_episodes(cfg: SynthConfig, seed: int, count: int) -> list[Episode]:
    return [synth_episode(cfg, seed, i) for i in range(count)]
