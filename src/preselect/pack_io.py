"""Episode-pack container: a JSON manifest followed by one fixed-size
record per episode.

Layout of a .epk file:

    magic    b"EPK1"
    u32      manifest length in bytes (little-endian)
    bytes    manifest JSON (utf-8, sorted keys)
    records  one per manifest episode, in manifest order

A record is one packed numpy structured record (_record) whose dtype the
manifest fixes: N, k, and each level's channels and query and support grids.

    L2_header  <u4 (4,)        rank 3, then C, H, W of the query's L2 map
    L2         <f4 (C, H, W)   the query's L2 map
    L3_header, L3, L4_header, L4
    shots      (N, k) records of the same six fields at the support grids;
               [i, j] is shot j of class i, classes 0..N-1

numpy caps a dtype at 2 GiB; a manifest that implies a larger record is
malformed. One template record with every header filled in drives both
sides: the writer fills its map fields by name and writes it once per
episode. The reader checks the file size against the manifest before it
reads any map ("truncated", "trailing" bytes), reads one record at a time
and compares all its header words with the template's at once, reporting a
mismatch with the byte offset of its map. Each level's support maps are
copied out into one contiguous (N, k, C, h, w) array, and the episode's
FeatureMaps are views of it.
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


def _record(man: dict) -> np.dtype:
    """The dtype of one episode's record, from the manifest's class count,
    shot count and per-level channels and query and support grids."""
    num_classes, k = int(man["num_classes"]), int(man["k"])
    query, support = [], []
    for lv in FEATURE_LEVELS:
        meta = man["levels"][lv.value]
        c = int(meta["channels"])
        (qh, qw), (sh, sw) = meta["query_grid"], meta["support_grid"]
        for maps, shape in ((query, (c, int(qh), int(qw))), (support, (c, int(sh), int(sw)))):
            if min(shape) < 1:
                raise ValueError(f"{lv.value} map dims {shape} must be positive")
            maps += [(f"{lv.value}_header", "<u4", (HEADER_WORDS,)), (lv.value, "<f4", shape)]
    if min(num_classes, k) < 1:
        raise ValueError("class count and shot count must be positive")
    return np.dtype(query + [("shots", support, (num_classes, k))])


def _template(dtype: np.dtype) -> np.ndarray:
    """A zeroed record of dtype with every map's header filled in."""
    rec = np.zeros((), dtype)
    for maps in (rec, rec["shots"]):
        for lv in FEATURE_LEVELS:
            maps[f"{lv.value}_header"] = (3, *maps.dtype[lv.value].shape)
    return rec


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
    rec = _template(_record(man))
    manifest = json.dumps(man, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(manifest)))
        f.write(manifest)
        for ep in episodes:
            if ep.class_ids != list(range(man["num_classes"])):
                raise ValueError(f"episode {ep.query_id!r} has classes {ep.class_ids}, "
                                 f"the pack 0..{man['num_classes'] - 1}")
            for lv in FEATURE_LEVELS:
                _put(rec[lv.value], ep.levels[lv].data)
                _put(rec["shots"][lv.value],
                     np.array([[shot[lv].data for shot in ep.supports[cid]]
                               for cid in ep.class_ids]))
            f.write(rec)


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
            dtype = _record(man)
            labels = [
                (meta["query_id"], frozenset(int(cid) for cid in meta["present"]),
                 {int(cid): [tuple(float(v) for v in box) for box in boxes]
                  for cid, boxes in meta["gt_boxes"].items()})
                for meta in man["episodes"]
            ]
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"{path}: malformed manifest: {e!r}") from None
        if not labels:
            raise ValueError(f"{path}: the manifest lists no episodes")
        start = f.tell()
        end, size = start + dtype.itemsize * len(labels), os.fstat(f.fileno()).st_size
        if size < end:
            raise ValueError(f"{path}: truncated at byte {size}: the manifest implies "
                             f"{end} bytes")
        if size > end:
            raise ValueError(f"{path}: trailing bytes at byte {end}")

        rec = _template(dtype)
        words = rec.reshape(1).view("<u4")
        # Every header word is >= 1 (rank 3; _record rejects dims < 1) and
        # every map word of the template is 0, so the template's nonzero
        # words are exactly the headers, four to a map, in record order.
        index = np.flatnonzero(words).reshape(-1, HEADER_WORDS)
        expected = words[index]
        num_classes, k = dtype["shots"].shape
        episodes = []
        for query_id, present, gt_boxes in labels:
            if f.readinto(words) != words.nbytes:
                raise ValueError(f"{path}: truncated at byte {f.tell()}")
            found = words[index]
            bad = (found != expected).any(axis=1)
            if bad.any():
                i = int(bad.argmax())
                raise ValueError(f"{path}: tensor at byte {start + 4 * int(index[i, 0])} "
                                 f"has rank/dims {found[i].tolist()}, "
                                 f"expected {expected[i].tolist()}")
            levels = {lv: FeatureMap(np.array(rec[lv.value], np.float32), lv)
                      for lv in FEATURE_LEVELS}
            stacked = {lv: np.array(rec["shots"][lv.value], np.float32, order="C")
                       for lv in FEATURE_LEVELS}
            supports = {cid: [{lv: FeatureMap(stacked[lv][cid, j], lv) for lv in FEATURE_LEVELS}
                              for j in range(k)]
                        for cid in range(num_classes)}
            episodes.append(Episode(query_id=query_id, levels=levels, supports=supports,
                                    present_classes=present, gt_boxes=gt_boxes))
            start += words.nbytes
    return episodes
