"""Reference code that only the tests use."""

import numpy as np

from preselect.episodes import FEATURE_LEVELS, Episode, FusionProjector
from preselect.scorer import POSITIVE, ScoreModel, _confidence_vectors, _mlp, _softmax
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


def sample_pairs_oracle(episodes: list[Episode],
                        rng: np.random.Generator) -> list[tuple[int, int, int]]:
    """One epoch's (episode index, class id, label) pairs, unshuffled:
    every present class, and one absent class drawn per present one (one
    when none is present) by rng.choice on a list, the lists built anew
    each epoch. The reference for train's up-front draws."""
    pairs = []
    for ei, ep in enumerate(episodes):
        present = sorted(ep.present_classes)
        absent = [cid for cid in ep.class_ids if cid not in ep.present_classes]
        for cid in present:
            pairs.append((ei, cid, 1))
        if absent:
            n_neg = min(len(absent), max(len(present), 1))
            for cid in rng.choice(absent, size=n_neg, replace=False):
                pairs.append((ei, int(cid), 0))
    return pairs


def epochs_oracle(episodes: list[Episode], epochs: int,
                  seed: int) -> list[list[tuple[int, int, int]]]:
    """Every epoch's pairs in the trainer's draw order: each epoch sampled
    by sample_pairs_oracle, then shuffled, on one generator of the seed."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(epochs):
        pairs = sample_pairs_oracle(episodes, rng)
        rng.shuffle(pairs)
        out.append(pairs)
    return out


def vector_loss_oracle(model: ScoreModel, v: np.ndarray, labels: np.ndarray
                       ) -> tuple[float, ScoreModel, np.ndarray]:
    """The trainer's vector loss with its ReLU mask as the out-of-place
    dhid * (hid > 0), in hid's transposed order: (loss, scorer gradient,
    dLoss/d(w1 v + b1))."""
    n = len(v)
    hid, logits = _mlp(model, v)
    p = _softmax(logits)
    with np.errstate(divide="ignore"):
        loss = float(-np.log(p[np.arange(n), labels]).mean())
    dlogits = p.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    gw2 = dlogits.T @ hid
    gb2 = dlogits.sum(axis=0)
    dhid = dlogits @ model.w2.astype(np.float64)
    dpre = dhid * (hid > 0)
    gw1 = dpre.T @ v
    gb1 = dpre.sum(axis=0)
    with np.errstate(over="ignore"):
        grads = ScoreModel(*(g.astype(np.float32) for g in (gw1, gb1, gw2, gb2)))
    return loss, grads, dpre


def heat_oracle(fused: np.ndarray) -> np.ndarray:
    """detect_batch's channel-mean heat maps through a float64 copy of the
    (N, C, H, W) stack: the reference for its in-place float64 mean."""
    return fused.astype(np.float64).mean(axis=1)


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


def numpy_block_mean(x: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """block_mean as numpy's mean over the block axes, the form the
    library replaced: the oracle for its summation order."""
    c, h, w = x.shape
    return x.astype(np.float64).reshape(c, target_h, h // target_h,
                                        target_w, w // target_w).mean(axis=(2, 4))


def numpy_prototype_matrices(shots: dict[Level, np.ndarray]) -> np.ndarray:
    """prototype_matrices with numpy's mean for every shot grid, the form
    the library replaced: the oracle for its summation order."""
    k = next(iter(shots.values())).shape[1]
    means = np.concatenate([shots[lv].mean(axis=(3, 4), dtype=np.float64).astype(np.float32)
                            for lv in FEATURE_LEVELS if lv in shots], axis=2)
    return (sum(means[:, j].astype(np.float64) for j in range(k)) / k).astype(np.float32)


def order_sensitive(rng: np.random.Generator, lead: tuple[int, ...], cells: int) -> np.ndarray:
    """A float32 (*lead, cells) array of runs whose float64 sum depends on
    the order of the adds. Each run holds small entries of mixed sign in
    2^-40..2^-24, about one in ten -0.0, plus (if it has two cells or more)
    one entry +-B in 2^30..2^40 and its negation at two random places. An
    entry added to B while it is pending is lost (B is 2^54 times larger),
    so a sum keeps only the entries outside the pair's span in its order,
    and the result moves in its leading bits when the order changes."""
    x = rng.uniform(1.0, 2.0, (*lead, cells)) * np.exp2(rng.integers(-40, -24, (*lead, cells)))
    x *= rng.choice((-1.0, 1.0), x.shape)
    x[rng.random(x.shape) < 0.1] = -0.0
    if cells >= 2:
        big = rng.choice((-1.0, 1.0), lead) * np.exp2(rng.integers(30, 41, lead))
        where = np.argsort(rng.random((*lead, cells)), axis=-1)[..., :2]
        np.put_along_axis(x, where, np.stack([big, -big], axis=-1), axis=-1)
    return x.astype(np.float32)


def order_sensitive_map(rng: np.random.Generator, channels: int, grid: tuple[int, int],
                        target: tuple[int, int]) -> np.ndarray:
    """A float32 (channels, *grid) map whose every block of the target grid
    holds one order_sensitive run, row-major within the block."""
    (h, w), (th, tw) = grid, target
    runs = order_sensitive(rng, (channels, th, tw), (h // th) * (w // tw))
    blocks = runs.reshape(channels, th, tw, h // th, w // tw).transpose(0, 1, 3, 2, 4)
    return np.ascontiguousarray(blocks).reshape(channels, h, w)


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
