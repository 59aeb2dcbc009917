"""Feature maps: float32 (C, H, W) arrays, the pyramid levels they are
keyed by, and the block-average downsampling that level fusion uses."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Level(Enum):
    """Pyramid level of a feature map: its key in an episode's maps."""

    L2 = "L2"
    L3 = "L3"
    L4 = "L4"


@dataclass(frozen=True)
class FeatureMap:
    """A finite (channels, height, width) float32 array."""

    data: np.ndarray

    def __post_init__(self):
        a = self.data
        if not (isinstance(a, np.ndarray) and a.ndim == 3 and a.dtype == np.float32):
            raise ValueError("feature map must be one rank-3 float32 array")
        if not np.isfinite(a).all():
            raise ValueError("feature map contains non-finite entries")

    @property
    def channels(self) -> int:
        return self.data.shape[0]


def block_mean(x: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Block averages of a (C, H, W) array down to (C, target_h, target_w),
    in float64. Targets must divide the source dims evenly."""
    c, h, w = x.shape
    if h % target_h != 0 or w % target_w != 0:
        raise ValueError(
            f"block average: {h}x{w} not divisible by {target_h}x{target_w}"
        )
    bh, bw = h // target_h, w // target_w
    return x.astype(np.float64).reshape(c, target_h, bh, target_w, bw).mean(axis=(2, 4))
