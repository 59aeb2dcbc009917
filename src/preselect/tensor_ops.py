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
    """A finite (channels, height, width) float32 array, no dim zero."""

    data: np.ndarray

    def __post_init__(self):
        a = self.data
        if not (isinstance(a, np.ndarray) and a.ndim == 3 and a.dtype == np.float32):
            raise ValueError("feature map must be one rank-3 float32 array")
        if 0 in a.shape:
            raise ValueError(f"feature map dims {a.shape} must be positive")
        if not np.isfinite(a).all():
            raise ValueError("feature map contains non-finite entries")

    @property
    def channels(self) -> int:
        return self.data.shape[0]


def block_mean(x: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Block averages of a (C, H, W) array down to (C, target_h, target_w),
    in float64. Every dim must be positive, and the targets must divide the
    source dims.

    The result is bitwise numpy's x.astype(float64).reshape(C, target_h, bh,
    target_w, bw).mean(axis=(2, 4)) on a C-contiguous x, summed in numpy's
    order without its per-output-cell overhead: each block row's bw cells
    left to right, then the block rows top to bottom into a sum that starts
    at +0.0, every add one pass over all blocks. numpy's form stays where
    its order differs: it sums rows of 8 or more cells pairwise, and at a
    target width of 1 it sums each block as one run of bh * bw cells.
    """
    c, h, w = x.shape
    if min(c, h, w, target_h, target_w) < 1:
        raise ValueError(f"block average: dims {x.shape} and target "
                         f"{target_h}x{target_w} must be positive")
    if h % target_h or w % target_w:
        raise ValueError(
            f"block average: {h}x{w} not divisible by {target_h}x{target_w}"
        )
    bh, bw = h // target_h, w // target_w
    blocks = x.reshape(c, target_h, bh, target_w, bw)
    if target_w == 1 or bw >= 8:
        return blocks.astype(np.float64).mean(axis=(2, 4))
    # numpy starts each row at -0.0, and -0.0 + a == a.
    rows = blocks[..., 0].astype(np.float64)
    for j in range(1, bw):
        rows += blocks[..., j]
    out = np.zeros((c, target_h, target_w))
    for i in range(bh):
        out += rows[:, :, i]
    out /= bh * bw
    return out
