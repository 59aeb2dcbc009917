"""Feature maps: float32 (C, H, W) arrays, the pyramid levels they are
keyed by, and the block average that gives both the support shots' means
and the query levels aligned for fusion."""

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
    """Block averages of a (..., H, W) array down to (..., target_h,
    target_w) in float64, each map's bits those of a call on it alone.
    Every dim must be positive, and the targets must divide H and W.

    Bitwise numpy's float64 mean over the block axes of a C-contiguous
    x.reshape(..., target_h, bh, target_w, bw), summed in numpy's order by
    one add per block cell over all blocks at once: each block row's cells
    left to right from -0.0, then the rows into a sum from +0.0. At a
    target width of 1 numpy sums each block as one run of bh * bw cells
    from +0.0, as for a support shot's mean. It sums runs of 8 cells or
    more pairwise (8 is its pairwise-sum block); there its own mean stays,
    as a vectorized copy of that tree is no faster.
    """
    *lead, h, w = x.shape
    if 0 in x.shape or min(target_h, target_w) < 1:
        raise ValueError(f"block average: dims {x.shape} and target "
                         f"{target_h}x{target_w} must be positive")
    if h % target_h or w % target_w:
        raise ValueError(
            f"block average: {h}x{w} not divisible by {target_h}x{target_w}"
        )
    bh, bw = h // target_h, w // target_w
    if target_w == 1:
        # One run per block: rows of one cell, each added straight into the sum.
        bh, bw = bh * bw, 1
    blocks = x.reshape(*lead, target_h, bh, target_w, bw)
    if (bh if target_w == 1 else bw) >= 8:
        return blocks.mean(axis=(-3, -1), dtype=np.float64)
    rows = blocks[..., 0]
    if bw > 1:
        # numpy starts each row at -0.0, and -0.0 + a == a.
        rows = rows.astype(np.float64)
        for j in range(1, bw):
            rows += blocks[..., j]
    out = np.zeros(rows[..., 0, :].shape)
    for i in range(bh):
        out += rows[..., i, :]
    out /= bh * bw
    return out
