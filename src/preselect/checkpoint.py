"""Model checkpoint format.

Layout of a .ckpt file:

    magic  b"TPF1"
    u32    in_channels C, u32 hidden width, f32 eps = float32(ScoreModel.eps)
    blobs  w1 (hidden x 2C), b1, w2 (2 x hidden), b2 as raw float32 LE
    u32    number of fusion levels, then per level in L2, L3, L4 order:
             u32 in_channels, u32 out_channels, W blob, b blob

Nothing follows the last blob. The reader rejects any other eps word, and
checks the sizes a header gives against the bytes left before reading them.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .episodes import FEATURE_LEVELS, FusionProjector
from .pack_io import read_exact, read_floats, require_bytes
from .scorer import ScoreModel

MAGIC = b"TPF1"


def _write_blob(f, arr: np.ndarray) -> None:
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def save_checkpoint(path, model: ScoreModel, proj: FusionProjector) -> None:
    hidden = model.w1.shape[0]
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIf", model.in_channels, hidden, ScoreModel.eps))
        for a in model.layers:
            _write_blob(f, a)
        f.write(struct.pack("<I", len(FEATURE_LEVELS)))
        for lv in FEATURE_LEVELS:
            w = proj.weights[lv]
            f.write(struct.pack("<II", w.shape[1], w.shape[0]))
            _write_blob(f, w)
            _write_blob(f, proj.biases[lv])


def load_checkpoint(path) -> tuple[ScoreModel, FusionProjector]:
    """The model and projections of a checkpoint whose eps word and widths
    train could have written; ValueError naming the file otherwise."""
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic)")
        c, hidden, eps = struct.unpack("<IIf", read_exact(f, 12))
        if eps != np.float32(ScoreModel.eps):
            raise ValueError(f"{path}: standardization eps {np.float32(eps)} is not "
                             f"{np.float32(ScoreModel.eps)}")
        shapes = ScoreModel.shapes(c, hidden)
        require_bytes(f, 4 * sum(map(math.prod, shapes)))
        try:
            model = ScoreModel(*[read_floats(f, shape) for shape in shapes])
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        (n_levels,) = struct.unpack("<I", read_exact(f, 4))
        if n_levels != len(FEATURE_LEVELS):
            raise ValueError(f"{path}: unexpected level count {n_levels}")
        weights, biases = {}, {}
        for lv in FEATURE_LEVELS:
            c_in, c_out = struct.unpack("<II", read_exact(f, 8))
            require_bytes(f, 4 * c_out * (c_in + 1))
            weights[lv] = read_floats(f, (c_out, c_in))
            biases[lv] = read_floats(f, (c_out,))
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes at byte {f.tell() - 1}")
    widths = [len(b) for b in biases.values()]
    if min(widths) < 1 or len(set(widths)) > 1:
        raise ValueError(f"{path}: fusion output widths {widths} are not one width >= 1")
    return model, FusionProjector(weights, biases)
