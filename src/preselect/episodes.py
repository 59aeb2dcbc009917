"""Synthetic episode generation and the simplified correlation pipeline.

An episode bundles one query (multi-level feature maps) with k support
shots per candidate class plus ground truth: the boxes of each class in
the query. Its present classes are the classes with at least one box, so
the two cannot disagree. Its shots hold one float32 (N, k, C, h, w) array per
level, shot j of class i at [i, j]; its supports are per-shot FeatureMap
views of them that only the benchmark reads. Correlation against a class
prototype is a depthwise channel product; level fusion downsamples
everything to the coarsest grid, projects each level to a common channel
count, and averages. Inference builds every class's L4 prototypes in
setup and the selected classes' L2/L3 ones in fusion, training the levels
its phase reads, each for a set of classes at once; fusion is one
contraction (prototype_matrices, align_query, fuse_batch). Both averages
that feed it, the shot means and the aligned query, are
tensor_ops.block_mean, which alone reproduces numpy's summation order.
synth_episode boxes each planted blob by the half-maximum rule (BOX_LEVEL)
that the detector applies to a fused heat map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor_ops import FeatureMap, Level, block_mean

FEATURE_LEVELS = (Level.L2, Level.L3, Level.L4)

# Box on the coarsest (L4) grid: (x1, y1, x2, y2), x1 < x2, y1 < y2.
Box = tuple[float, float, float, float]

# A blob's box spans its cells at or above BOX_LEVEL times its peak: the
# rule of both synth_episode's ground truth and the detector.
BOX_LEVEL = 0.5


def stack_shape(shots: dict[Level, np.ndarray]) -> tuple[int, int]:
    """The (N, k) that per-level float32 (N, k, C, h, w) support stacks
    share, both at least 1, or ValueError; C, h and w must be at least 1
    too. Class i is row i of every per-class array."""
    for lv, a in shots.items():
        if not (isinstance(a, np.ndarray) and a.ndim == 5 and a.dtype == np.float32):
            raise ValueError(f"{lv.value} support shots must be one rank-5 float32 array")
        if 0 in a.shape[2:]:
            raise ValueError(f"{lv.value} support shot dims {a.shape[2:]} must be positive")
    sizes = {a.shape[:2] for a in shots.values()}
    if len(sizes) != 1 or 0 in next(iter(sizes)):
        raise ValueError(f"support stacks must share one (classes, shots) of at least "
                         f"(1, 1), got {sorted(sizes)}")
    return next(iter(sizes))


@dataclass(frozen=True)
class Episode:
    query_id: str
    levels: dict[Level, FeatureMap]
    shots: dict[Level, np.ndarray]
    gt_boxes: dict[int, list[Box]]

    def __post_init__(self):
        if not isinstance(self.query_id, str):
            raise ValueError(f"query id {self.query_id!r} is not a string")
        stack_shape(self.shots)
        for lv, a in self.shots.items():
            if not np.isfinite(a).all():
                raise ValueError(f"{lv.value} support shots contain non-finite entries")
        unknown = self.gt_boxes.keys() - set(self.class_ids)
        if unknown:
            raise ValueError(f"classes {sorted(unknown)} are not candidate classes")
        for cid, boxes in self.gt_boxes.items():
            for x1, y1, x2, y2 in boxes:
                if not (-math.inf < x1 < x2 < math.inf and -math.inf < y1 < y2 < math.inf):
                    raise ValueError(f"degenerate or non-finite box {(x1, y1, x2, y2)} "
                                     f"for class {cid}")

    @property
    def class_ids(self) -> list[int]:
        return list(range(len(next(iter(self.shots.values())))))

    @cached_property
    def present_classes(self) -> frozenset[int]:
        """The classes with at least one ground-truth box."""
        return frozenset(cid for cid, boxes in self.gt_boxes.items() if boxes)

    @cached_property
    def supports(self) -> dict[int, list[dict[Level, FeatureMap]]]:
        """supports[i][j][lv]: shot j of class i, a FeatureMap view of shots[lv]."""
        n, k = stack_shape(self.shots)
        return {i: [{lv: FeatureMap(a[i, j]) for lv, a in self.shots.items()}
                    for j in range(k)] for i in range(n)}


@dataclass(frozen=True)
class ClassPrototype:
    """Per-level channel vector summarizing a class's support shots."""

    class_id: int
    vectors: dict[Level, np.ndarray]


def prototype_matrices(shots: dict[Level, np.ndarray]) -> np.ndarray:
    """The (N, sum of C_l) float32 prototypes of the N classes of per-level
    (N, k, C_l, h_l, w_l) support stacks: spatially average each shot, then
    mean over the class's shots. The levels are stacked along channels in
    FEATURE_LEVELS order, as align_query stacks the query. Each level and
    row is computed on its own: a subset's matrix is bitwise that block.
    The shot means are block_mean onto one cell, bitwise numpy's float64
    mean over the shot's grid."""
    _, k = stack_shape(shots)
    # Per-shot means round to float32 and add up in shot order, as trained
    # checkpoints depend on.
    means = np.concatenate([block_mean(shots[lv], 1, 1)[..., 0, 0].astype(np.float32)
                            for lv in FEATURE_LEVELS if lv in shots], axis=2)
    return (sum(means[:, j].astype(np.float64) for j in range(k)) / k).astype(np.float32)


def build_prototype(class_id: int, shots: list[dict[Level, FeatureMap]]) -> ClassPrototype:
    """Spatially average each shot, then mean over shots, per level:
    prototype_matrices for one class, split back into its levels."""
    if not shots:
        raise ValueError("a class needs at least one support shot")
    levels = [lv for lv in FEATURE_LEVELS if lv in shots[0]]
    row = prototype_matrices({lv: np.stack([shot[lv].data for shot in shots])[None]
                              for lv in levels})[0]
    bounds = np.cumsum([shots[0][lv].channels for lv in levels])[:-1]
    return ClassPrototype(class_id, dict(zip(levels, np.split(row, bounds))))


def correlate(query: FeatureMap, proto: np.ndarray) -> FeatureMap:
    """Depthwise correlation: scale each query channel by the prototype entry."""
    if proto.shape[0] != query.channels:
        raise ValueError(
            f"prototype dim {proto.shape[0]} != query channels {query.channels}"
        )
    return FeatureMap(query.data * proto[:, None, None])


@dataclass
class FusionProjector:
    """Learned per-level 1x1 channel projections onto a common width.

    weights[level] is (out_channels, in_channels); biases[level] is
    (out_channels,). These are the only trainable parameters outside
    the scoring model.
    """

    weights: dict[Level, np.ndarray]
    biases: dict[Level, np.ndarray]

    @classmethod
    def identity(cls, channels: dict[Level, int], out_channels: int) -> "FusionProjector":
        """Identity-like init: eye padded/truncated to out_channels rows."""
        return cls({lv: np.eye(out_channels, c_in, dtype=np.float32)
                    for lv, c_in in channels.items()},
                   {lv: np.zeros(out_channels, dtype=np.float32) for lv in channels})

    def copy(self) -> "FusionProjector":
        return FusionProjector(
            {lv: w.copy() for lv, w in self.weights.items()},
            {lv: b.copy() for lv, b in self.biases.items()},
        )


def fuse_levels(maps: dict[Level, FeatureMap], proj: FusionProjector) -> FeatureMap:
    """Align all levels to the L4 grid, project channels, and average:
    fuse_batch of one class whose prototype entries are all one.

    Returns a map with proj's output channels on the L4 grid.
    """
    aligned = align_query(maps)
    ones = np.ones((1, len(aligned)), np.float32)
    return FeatureMap(fuse_batch(aligned, ones, proj)[0])


def align_query(levels: dict[Level, FeatureMap]) -> np.ndarray:
    """The query levels block-averaged onto the L4 grid in float64 and
    stacked along channels in FEATURE_LEVELS order: (sum of C_l, H, W)."""
    h, w = levels[Level.L4].data.shape[1:]
    return np.concatenate([block_mean(levels[lv].data, h, w) for lv in FEATURE_LEVELS])


def fuse_batch(aligned: np.ndarray, protos: np.ndarray,
               proj: FusionProjector) -> np.ndarray:
    """fuse_levels of the correlated levels of N classes at once.

    aligned is align_query's (sum of C_l, H, W) output; protos is
    prototype_matrices' (N, sum of C_l), in the same channel order.
    Correlation commutes with the block average and the projection, so
    fused_n = mean_l W_l diag(p_nl) X_l + b_l: one float64 contraction over
    all levels' channels, with the biases as one more channel whose input
    is 1. Returns (N, out_channels, H, W) float32, and ValueError if an
    entry overflows it. np.matmul runs one fixed-shape gemm per class: a
    class's map does not depend on the batch.
    """
    c, h, w = aligned.shape
    x = np.concatenate([aligned.reshape(c, h * w), np.ones((1, h * w))])
    fused = _fuse(x, protos, proj)
    return fused.reshape(*fused.shape[:2], h, w)


def _fuse(x: np.ndarray, protos: np.ndarray, proj: FusionProjector,
          scaled: np.ndarray | None = None, product: np.ndarray | None = None,
          fused: np.ndarray | None = None) -> np.ndarray:
    """fuse_batch on its float64 operand x: the aligned queries with a last
    channel of ones, (N, sum of C_l + 1, H*W) or one (sum of C_l + 1, H*W)
    for all N. Returns the (N, out_channels, H*W) float32 maps. The scaled
    weights (N, out, sum of C_l + 1), their float64 product with x and the
    maps (both (N, out, H*W)) are written into the given arrays, or into
    new ones where none is given."""
    n = len(protos)
    bias = sum(proj.biases[lv].astype(np.float64) for lv in FEATURE_LEVELS)
    weights = np.concatenate([proj.weights[lv] for lv in FEATURE_LEVELS]
                             + [bias[:, None]], axis=1)
    scales = np.concatenate([protos, np.ones((n, 1), np.float32)], axis=1)
    scales = scales / np.float64(len(FEATURE_LEVELS))
    # A new scaled-weights array is freed before the maps are allocated:
    # held longer, it made glibc map and unmap ~500 pages per inference call.
    with np.errstate(over="ignore"):
        product = np.matmul(np.multiply(weights, scales[:, None, :], out=scaled), x, out=product)
        if fused is None:
            fused = np.empty(product.shape, np.float32)
        np.copyto(fused, product, casting="same_kind")
    if not np.isfinite(fused).all():
        raise ValueError("fused map contains non-finite entries")
    return fused


# Synthetic feature dims per level: channels, and the (H, W) grids of a
# query and of a support shot.
CHANNELS = {Level.L2: 16, Level.L3: 32, Level.L4: 64}
QUERY_GRIDS = {Level.L2: (32, 32), Level.L3: (16, 16), Level.L4: (8, 8)}
SUPPORT_GRIDS = {Level.L2: (8, 8), Level.L3: (4, 4), Level.L4: (2, 2)}


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic episode generator."""

    num_classes: int = 20
    present_count: int = 3
    k: int = 3
    blob_amplitude: float = 10.0
    noise_sigma: float = 0.3

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if not 0 <= self.present_count <= self.num_classes:
            raise ValueError("present_count must lie in [0, num_classes]")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (math.isfinite(self.blob_amplitude) and self.blob_amplitude > 0):
            raise ValueError(f"blob_amplitude must be finite and > 0, "
                             f"got {self.blob_amplitude}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


_SIGNATURE_DECAY = 0.25


def _class_signatures(cfg: SynthConfig, seed: int) -> dict[Level, np.ndarray]:
    """Per-level (num_classes, channels) unit signatures.

    Every class uses the same geometrically decaying magnitude pattern,
    permuted so each class peaks on its own (channel, sign) slot. Equal
    patterns make all self-correlation energies identical, while distinct
    permutations keep every cross-class energy strictly smaller -- that
    is what guarantees noise-free present/absent separation even when
    there are more classes than channels. Signatures depend only on
    (cfg.num_classes, seed), so every episode drawn from one seed shares
    the same class identities.
    """
    rng = np.random.default_rng(seed)
    sigs = {}
    for level in FEATURE_LEVELS:
        c = CHANNELS[level]
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
    grid); support shots carry the signature plus noise. A ground-truth box
    spans the blob's L4 cells at or above BOX_LEVEL times its peak, the
    rule the detector applies to the fused heat map.
    """
    sigs = _class_signatures(cfg, seed)
    rng = np.random.default_rng((seed, index))

    present = sorted(
        rng.choice(cfg.num_classes, size=cfg.present_count, replace=False).tolist()
    )
    h4, w4 = QUERY_GRIDS[Level.L4]

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
        c = CHANNELS[level]
        h, w = QUERY_GRIDS[level]
        scale = h / h4
        q = rng.standard_normal((c, h, w)) * cfg.noise_sigma
        for cid, cy, cx, bsig in placements:
            blob = _gaussian_blob(h, w, cy * scale + (scale - 1) / 2,
                                  cx * scale + (scale - 1) / 2, bsig * scale)
            q += cfg.blob_amplitude * sigs[level][cid][:, None, None] * blob[None, :, :]
        levels[level] = FeatureMap(q.astype(np.float32))

    n, k = cfg.num_classes, cfg.k
    shots = {lv: np.empty((n, k, CHANNELS[lv], *SUPPORT_GRIDS[lv]), np.float32)
             for lv in FEATURE_LEVELS}
    for cid in range(n):
        for j in range(k):
            for level in FEATURE_LEVELS:
                noise = rng.standard_normal(shots[level].shape[2:]) * cfg.noise_sigma
                shots[level][cid, j] = sigs[level][cid][:, None, None] + noise

    gt_boxes: dict[int, list[Box]] = {}
    for cid, cy, cx, bsig in placements:
        blob = _gaussian_blob(h4, w4, cy, cx, bsig)
        ys, xs = np.nonzero(blob >= BOX_LEVEL * blob.max())
        box = (float(xs.min()), float(ys.min()),
               float(xs.max() + 1), float(ys.max() + 1))
        gt_boxes.setdefault(cid, []).append(box)

    return Episode(
        query_id=f"synth-{seed}-{index}",
        levels=levels,
        shots=shots,
        gt_boxes=gt_boxes,
    )


def synth_episodes(cfg: SynthConfig, seed: int, count: int) -> list[Episode]:
    return [synth_episode(cfg, seed, i) for i in range(count)]
