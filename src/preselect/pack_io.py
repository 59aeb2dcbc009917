"""Episode-pack container: a JSON manifest followed by raw tensor blobs.

Layout of a .epk file:

    magic  b"EPK1"
    u32    manifest length in bytes (little-endian)
    bytes  manifest JSON (utf-8, sorted keys)
    blobs  one per tensor, in manifest order:
             u32 rank, u32 * rank dims, float32 * prod(dims) data (LE)

Tensor order per episode: query maps L2, L3, L4, then for each class id
ascending, for each shot, its L2, L3, L4 support maps. Every map is rank 3
with the dims the manifest's levels give; a header that disagrees is
rejected before its data is read. Nothing follows the last blob; a short or
padded file is rejected with its byte offset.
"""

from __future__ import annotations

import json
import math
import os
import struct
from io import BufferedReader, BufferedWriter

import numpy as np

from .episodes import FEATURE_LEVELS, Episode, SynthConfig
from .tensor_ops import FeatureMap

MAGIC = b"EPK1"


def write_tensor(f: BufferedWriter, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    f.write(struct.pack("<I", arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(arr.tobytes())


def read_exact(f: BufferedReader, n: int) -> bytes:
    """The next n bytes of f; ValueError naming the offset if f ends first."""
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"{getattr(f, 'name', 'stream')}: truncated at byte "
                         f"{f.tell() - len(data)}: needed {n} bytes")
    return data


def require_bytes(f: BufferedReader, n: int) -> None:
    """ValueError unless the open file f holds n more bytes: a size taken
    from a corrupt header is rejected before a buffer that large is asked
    for."""
    pos = f.tell()
    left = os.fstat(f.fileno()).st_size - pos
    if n > left:
        raise ValueError(f"{f.name}: truncated at byte {pos}: header implies "
                         f"{n} more bytes, {left} left")


def read_floats(f: BufferedReader, shape) -> np.ndarray:
    """The next prod(shape) little-endian float32 values of f, shaped."""
    data = read_exact(f, 4 * math.prod(shape))
    return np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float32)


def read_tensor(f: BufferedReader, shape: tuple[int, ...]) -> np.ndarray:
    """The next tensor of f, whose header must give rank len(shape) and
    dims shape; checked before its data is read."""
    n = 4 * (len(shape) + 1)
    header = struct.unpack(f"<{len(shape) + 1}I", read_exact(f, n))
    if header != (len(shape), *shape):
        raise ValueError(f"{getattr(f, 'name', 'stream')}: tensor at byte {f.tell() - n} "
                         f"has rank/dims {list(header)}, expected {[len(shape), *shape]}")
    return read_floats(f, shape)


def _map_shapes(man: dict) -> tuple[dict, dict]:
    """(query, support) (C, H, W) shape per level from the manifest."""
    query, support = {}, {}
    for lv in FEATURE_LEVELS:
        meta = man["levels"][lv.value]
        c = int(meta["channels"])
        query[lv] = (c, *(int(d) for d in meta["query_grid"]))
        support[lv] = (c, *(int(d) for d in meta["support_grid"]))
    return query, support


def _manifest(episodes: list[Episode], cfg: SynthConfig | None) -> dict:
    levels_meta = {}
    first = episodes[0]
    for lv in FEATURE_LEVELS:
        q = first.levels[lv]
        s = first.supports[first.class_ids[0]][0][lv]
        levels_meta[lv.value] = {
            "channels": q.channels,
            "query_grid": [q.height, q.width],
            "support_grid": [s.height, s.width],
        }
    man = {
        "format": 1,
        "num_classes": len(first.class_ids),
        "k": len(first.supports[first.class_ids[0]]),
        "levels": levels_meta,
        "episodes": [
            {
                "query_id": ep.query_id,
                "present": sorted(ep.present_classes),
                "gt_boxes": {
                    str(cid): [list(b) for b in boxes]
                    for cid, boxes in sorted(ep.gt_boxes.items())
                },
            }
            for ep in episodes
        ],
    }
    if cfg is not None:
        man["noise_sigma"] = cfg.noise_sigma
        man["blob_amplitude"] = cfg.blob_amplitude
    return man


def write_pack(path, episodes: list[Episode], cfg: SynthConfig | None = None) -> None:
    if not episodes:
        raise ValueError("cannot write an empty pack")
    manifest = json.dumps(
        _manifest(episodes, cfg), sort_keys=True, separators=(",", ":")
    ).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(manifest)))
        f.write(manifest)
        for ep in episodes:
            for lv in FEATURE_LEVELS:
                write_tensor(f, ep.levels[lv].data)
            for cid in ep.class_ids:
                for shot in ep.supports[cid]:
                    for lv in FEATURE_LEVELS:
                        write_tensor(f, shot[lv].data)


def read_pack(path) -> list[Episode]:
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise ValueError(f"{path}: not an episode pack (bad magic)")
        (mlen,) = struct.unpack("<I", read_exact(f, 4))
        require_bytes(f, mlen)
        man = json.loads(read_exact(f, mlen).decode())
        if man.get("format") != 1:
            raise ValueError(f"{path}: unsupported pack format {man.get('format')!r}")
        try:
            num_classes, k = int(man["num_classes"]), int(man["k"])
            query_shapes, support_shapes = _map_shapes(man)
            labels = [
                (meta["query_id"], frozenset(int(cid) for cid in meta["present"]),
                 {int(cid): [tuple(float(v) for v in box) for box in boxes]
                  for cid, boxes in meta["gt_boxes"].items()})
                for meta in man["episodes"]
            ]
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: malformed manifest: {e!r}") from None
        if not labels:
            raise ValueError(f"{path}: the manifest lists no episodes")
        episodes = []
        for query_id, present, gt_boxes in labels:
            levels = {lv: FeatureMap(read_tensor(f, query_shapes[lv]), lv)
                      for lv in FEATURE_LEVELS}
            supports = {}
            for cid in range(num_classes):
                shots = []
                for _ in range(k):
                    shots.append({lv: FeatureMap(read_tensor(f, support_shapes[lv]), lv)
                                  for lv in FEATURE_LEVELS})
                supports[cid] = shots
            episodes.append(Episode(query_id=query_id, levels=levels, supports=supports,
                                    present_classes=present, gt_boxes=gt_boxes))
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes at byte {f.tell() - 1}")
    return episodes
