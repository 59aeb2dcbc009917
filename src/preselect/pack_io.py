"""Episode-pack container: a JSON manifest followed by one fixed-size
record per episode.

Layout of a .epk file:

    magic    b"EPK1"
    u32      manifest length in bytes (little-endian)
    bytes    manifest JSON (utf-8, sorted keys)
    records  one per manifest episode, in manifest order

A record holds 3 * (1 + N * k) maps, each a header of four u32 words (rank
3, then C, H, W) followed by C * H * W float32 values, all little-endian.
The maps come in this order: the query's L2, L3, L4, then for each class id
0..N-1 ascending, for each of its k shots, the shot's L2, L3, L4. N, k and
every level's channels and query and support grids come from the manifest,
so each header word and each map's offset is fixed by it (_Record), and
every record has the same size.

The reader checks the file size against the magic, the manifest and the
episodes' records before it reads any map: a short file is "truncated", a
padded one has "trailing" bytes. It then reads one record at a time and
checks all its header words at once; a header that disagrees with the
manifest is reported with the byte offset of its map. Each level's support
maps are copied into one contiguous (N, k, C, h, w) array, and the
episode's FeatureMaps are views of it.
"""

from __future__ import annotations

import json
import math
import os
import struct
from io import BufferedReader

import numpy as np

from .episodes import FEATURE_LEVELS, Episode, SynthConfig
from .tensor_ops import FeatureMap

MAGIC = b"EPK1"
HEADER_WORDS = 4  # rank 3, then C, H, W


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


def _run(shapes: dict) -> tuple[dict, int]:
    """For L2, L3, L4 maps of the given (C, H, W) shapes written one after
    another: each level's (data word offset, shape), and the words of all
    three."""
    at, maps = 0, {}
    for lv in FEATURE_LEVELS:
        maps[lv] = (at + HEADER_WORDS, shapes[lv])
        at += HEADER_WORDS + math.prod(shapes[lv])
    return maps, at


class _Record:
    """One episode's record, in 4-byte words: the query's three maps, then
    the N * k shots of class 0..N-1, each three maps of the same size."""

    def __init__(self, num_classes: int, k: int, query_shapes: dict,
                 support_shapes: dict):
        self.num_classes, self.k = num_classes, k
        self.query, self.query_words = _run(query_shapes)
        self.shot, self.shot_words = _run(support_shapes)
        self.words = self.query_words + num_classes * k * self.shot_words

    def headers(self) -> tuple[np.ndarray, np.ndarray]:
        """The word index of every map's header and the four words it must
        hold, both (maps, 4), in record order."""
        shots = self.query_words + self.shot_words * np.arange(self.num_classes * self.k)
        data = np.concatenate([[at for at, _ in self.query.values()],
                               (shots[:, None] + [at for at, _ in self.shot.values()]).ravel()])
        expected = np.array([(3, *shape) for _, shape in self.query.values()]
                            + [(3, *shape) for _, shape in self.shot.values()]
                            * (self.num_classes * self.k))
        return (data - HEADER_WORDS)[:, None] + np.arange(HEADER_WORDS), expected

    def query_map(self, block: np.ndarray, lv) -> np.ndarray:
        """Level lv of the query, a (C, H, W) view of the record block."""
        at, shape = self.query[lv]
        return block[at : at + math.prod(shape)].reshape(shape)

    def support_maps(self, block: np.ndarray, lv) -> np.ndarray:
        """Level lv of every shot, an (N, k, C, h, w) view of the record
        block."""
        at, shape = self.shot[lv]
        shots = block[self.query_words :].reshape(self.num_classes, self.k, self.shot_words)
        return shots[:, :, at : at + math.prod(shape)].reshape(shots.shape[:2] + shape)


def _map_shapes(man: dict) -> tuple[dict, dict]:
    """(query, support) (C, H, W) shape per level from the manifest."""
    query, support = {}, {}
    for lv in FEATURE_LEVELS:
        meta = man["levels"][lv.value]
        c = int(meta["channels"])
        (qh, qw), (sh, sw) = meta["query_grid"], meta["support_grid"]
        query[lv] = (c, int(qh), int(qw))
        support[lv] = (c, int(sh), int(sw))
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


def _put(view: np.ndarray, maps: np.ndarray) -> None:
    if maps.shape != view.shape:
        raise ValueError(f"maps of shape {maps.shape} where the first episode "
                         f"gives {view.shape}")
    view[...] = maps


def write_pack(path, episodes: list[Episode], cfg: SynthConfig | None = None) -> None:
    """Write episodes as an EPK1 pack. Every episode needs the first one's
    classes 0..N-1, shot count and map shapes."""
    if not episodes:
        raise ValueError("cannot write an empty pack")
    man = _manifest(episodes, cfg)
    rec = _Record(man["num_classes"], man["k"], *_map_shapes(man))
    block = np.zeros(rec.words, dtype="<u4")
    index, expected = rec.headers()
    block[index] = expected
    maps = block.view("<f4")
    manifest = json.dumps(man, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(manifest)))
        f.write(manifest)
        for ep in episodes:
            if ep.class_ids != list(range(rec.num_classes)):
                raise ValueError(f"episode {ep.query_id!r} has classes {ep.class_ids}, "
                                 f"the pack 0..{rec.num_classes - 1}")
            for lv in FEATURE_LEVELS:
                _put(rec.query_map(maps, lv), ep.levels[lv].data)
                _put(rec.support_maps(maps, lv),
                     np.array([[shot[lv].data for shot in ep.supports[cid]]
                               for cid in ep.class_ids]))
            f.write(block)


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
            dims = [d for shapes in (query_shapes, support_shapes)
                    for shape in shapes.values() for d in shape]
            if min(num_classes, k, *dims) < 1:
                raise ValueError("class count, shot count and map dims must be positive")
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
        rec = _Record(num_classes, k, query_shapes, support_shapes)
        start = f.tell()
        end, size = start + 4 * rec.words * len(labels), os.fstat(f.fileno()).st_size
        if size < end:
            raise ValueError(f"{path}: truncated at byte {size}: the manifest implies "
                             f"{end} bytes")
        if size > end:
            raise ValueError(f"{path}: trailing bytes at byte {end}")

        index, expected = rec.headers()
        block = np.empty(rec.words, dtype="<u4")
        maps = block.view("<f4")
        episodes = []
        for query_id, present, gt_boxes in labels:
            if f.readinto(block) != block.nbytes:
                raise ValueError(f"{path}: truncated at byte {f.tell()}")
            found = block[index]
            bad = (found != expected).any(axis=1)
            if bad.any():
                i = int(bad.argmax())
                raise ValueError(f"{path}: tensor at byte {start + 4 * int(index[i, 0])} "
                                 f"has rank/dims {found[i].tolist()}, "
                                 f"expected {expected[i].tolist()}")
            levels = {lv: FeatureMap(np.array(rec.query_map(maps, lv), np.float32), lv)
                      for lv in FEATURE_LEVELS}
            stacked = {lv: np.array(rec.support_maps(maps, lv), np.float32, order="C")
                       for lv in FEATURE_LEVELS}
            supports = {cid: [{lv: FeatureMap(stacked[lv][cid, j], lv) for lv in FEATURE_LEVELS}
                              for j in range(k)]
                        for cid in range(num_classes)}
            episodes.append(Episode(query_id=query_id, levels=levels, supports=supports,
                                    present_classes=present, gt_boxes=gt_boxes))
            start += block.nbytes
    return episodes
