"""Reference code that only the tests use."""

import numpy as np

from preselect.episodes import FEATURE_LEVELS, Episode, FusionProjector
from preselect.scorer import POSITIVE, ScoreModel, _confidence_vectors, _mlp
from preselect.tensor_ops import FeatureMap, Level


def random_projector(channels: dict[Level, int], out_channels: int,
                     rng: np.random.Generator) -> FusionProjector:
    """Projections drawn uniformly in +-sqrt(6 / (fan_in + fan_out)), zero
    biases: a non-identity projector for fusion tests."""
    weights, biases = {}, {}
    for level, c_in in channels.items():
        bound = np.sqrt(6.0 / (c_in + out_channels))
        weights[level] = rng.uniform(-bound, bound, (out_channels, c_in)).astype(np.float32)
        biases[level] = np.zeros(out_channels, dtype=np.float32)
    return FusionProjector(weights, biases)


def map_vectors(maps: np.ndarray) -> np.ndarray:
    """The (N, 2C) float64 confidence vectors of a stack of (N, C, H, W)
    maps (cast to float32 first), from the maps themselves: the forward
    that JOINT runs on its fused maps."""
    return _confidence_vectors(np.asarray(maps, dtype=np.float32), {})[0]


def scores_batch(model: ScoreModel, maps: np.ndarray) -> np.ndarray:
    """Positive-class probabilities for a stack of (N, C, H, W) maps, from
    the maps themselves: the reference for factored scoring
    (query_scores), which never forms them. The MLP runs in float32 and the
    two-class softmax is exp(-logaddexp(0, l0 - l1)) in float64, as
    query_scores takes them."""
    logits = _mlp(model, map_vectors(maps).astype(np.float32))[1]
    z = logits[:, 1 - POSITIVE].astype(np.float64) - logits[:, POSITIVE]
    return np.exp(-np.logaddexp(0.0, z))


def confidence_vectors_oracle(maps: np.ndarray) -> np.ndarray:
    """map_vectors as out-of-place expressions: the max-pool as nested
    np.maximum of the window cells, and the row mean and std from x.mean
    and x.std with float64 accumulators."""
    x = np.asarray(maps, dtype=np.float32)
    n, c, h, w = x.shape
    ph, pw = h // 2, w // 2
    t = x[:, :, : ph * 2, : pw * 2]
    pooled = np.maximum(
        np.maximum(t[..., ::2, ::2], t[..., ::2, 1::2]),
        np.maximum(t[..., 1::2, ::2], t[..., 1::2, 1::2]),
    )
    local = pooled.reshape(n, c, -1).mean(axis=2, dtype=np.float64)
    flat = x.reshape(n, c, -1)
    mu = flat.mean(axis=2, keepdims=True, dtype=np.float64)
    sd = flat.std(axis=2, keepdims=True, dtype=np.float64)
    z = (flat - mu.astype(np.float32)) / (sd + ScoreModel.eps).astype(np.float32)
    glob = np.maximum(z, 0.0).mean(axis=2, dtype=np.float64)
    return np.concatenate([local, glob], axis=1)


# Channels and grids unlike the synthetic defaults: odd, unequal sides
# and dims of 1, with a different channel count at every level.
ODD_CHANNELS = {Level.L2: 3, Level.L3: 1, Level.L4: 5}
ODD_QUERY = {Level.L2: (7, 5), Level.L3: (1, 9), Level.L4: (3, 3)}
ODD_SUPPORT = {Level.L2: (3, 1), Level.L3: (5, 2), Level.L4: (1, 1)}


def odd_episodes(n=2, num_classes=3, k=2, seed=0):
    """Episodes built by hand at the ODD_* dims, random maps."""
    rng = np.random.default_rng(seed)

    def draw(*lead, grids):
        return {lv: rng.standard_normal((*lead, ODD_CHANNELS[lv], *grids[lv]),
                                        dtype=np.float32)
                for lv in FEATURE_LEVELS}

    return [Episode(query_id=f"odd-{i}",
                    levels={lv: FeatureMap(q) for lv, q in draw(grids=ODD_QUERY).items()},
                    shots=draw(num_classes, k, grids=ODD_SUPPORT),
                    gt_boxes={i % num_classes: [(0.0, 1.0, 2.0, 3.5)]})
            for i in range(n)]
