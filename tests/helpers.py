"""Reference code that only the tests use."""

import numpy as np

from preselect.episodes import FusionProjector
from preselect.scorer import ScoreModel, _positive_probs, confidence_vectors_batch
from preselect.tensor_ops import Level


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


def scores_batch(model: ScoreModel, maps: np.ndarray) -> np.ndarray:
    """Positive-class probabilities for a stack of (N, C, H, W) maps, from
    the maps themselves: the reference for factored scoring
    (query_scores), which never forms them."""
    return _positive_probs(model, confidence_vectors_batch(maps, model.eps))
