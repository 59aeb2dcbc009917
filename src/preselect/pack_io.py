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
mismatch with the byte offset of its map. Each level's maps are copied
into one array for the whole pack, (E, C, H, W) for the query maps and
(E, N, k, C, h, w) for the shots; episode i's query map and shots at that
level are row i of them, C-contiguous views. The manifest must be a
JSON object of format 1, with one rule per kind of value: a count, a dim,
a present class id and the format are JSON integers (not bools, floats or
strings), a gt_boxes key spells an integer in decimal, and a box
coordinate is a JSON number. Query ids are distinct. An episode's present
list must name exactly the classes that have boxes, and the first class
that disagrees is named. An episode that Episode rejects is reported with
the pack path and the episode's index, and a non-finite map value with its
byte offset.
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
    """The next prod(shape) little-endian float32 values of f, shaped;
    ValueError naming the byte offset of the first one that is not finite."""
    start = f.tell()
    values = np.frombuffer(read_exact(f, 4 * math.prod(shape)), dtype="<f4")
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"{getattr(f, 'name', 'stream')}: non-finite value "
                         f"{values[i]} at byte {start + 4 * i}")
    return values.reshape(shape).astype(np.float32)


def _record(man: dict) -> np.dtype:
    """The dtype of one episode's record, from the manifest's class count,
    shot count and per-level channels and query and support grids."""
    num_classes, k = _int(man["num_classes"], "class count"), _int(man["k"], "shot count")
    query, support = [], []
    for lv in FEATURE_LEVELS:
        meta = man["levels"][lv.value]
        c = _int(meta["channels"], f"{lv.value} channel count")
        for maps, grid in ((query, "query_grid"), (support, "support_grid")):
            h, w = meta[grid]
            shape = (c, _int(h, f"{lv.value} {grid} dim"), _int(w, f"{lv.value} {grid} dim"))
            if min(shape) < 1:
                raise ValueError(f"{lv.value} map dims {shape} must be positive")
            maps += [(f"{lv.value}_header", "<u4", (HEADER_WORDS,)), (lv.value, "<f4", shape)]
    if min(num_classes, k) < 1:
        raise ValueError("class count and shot count must be positive")
    return np.dtype(query + [("shots", support, (num_classes, k))])


def _int(value, what: str) -> int:
    """A manifest integer: a JSON integer, not a bool, float or string."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def _class_key(key: str) -> int:
    """A gt_boxes key: a class id spelled in decimal. ValueError for "6.0",
    "06" or " 6"."""
    cid = int(key)
    if str(cid) != key:
        raise ValueError(f"class id {key!r} is not an integer")
    return cid


def _coordinate(value) -> float:
    """A box coordinate: a JSON number, not a bool or string."""
    if type(value) not in (int, float):
        raise ValueError(f"box coordinate {value!r} is not a number")
    return float(value)


def _template(dtype: np.dtype) -> np.ndarray:
    """A zeroed record of dtype with every map's header filled in."""
    rec = np.zeros((), dtype)
    for maps in (rec, rec["shots"]):
        for lv in FEATURE_LEVELS:
            maps[f"{lv.value}_header"] = (3, *maps.dtype[lv.value].shape)
    return rec


def _manifest(episodes: list[Episode], cfg: SynthConfig | None) -> dict:
    first = episodes[0]
    num_classes, k = first.shots[FEATURE_LEVELS[0]].shape[:2]
    man = {
        "format": 1,
        "num_classes": num_classes,
        "k": k,
        "levels": {lv.value: {"channels": first.levels[lv].channels,
                              "query_grid": list(first.levels[lv].data.shape[1:]),
                              "support_grid": list(first.shots[lv].shape[3:])}
                   for lv in FEATURE_LEVELS},
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
    class count, shot count and map shapes."""
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
            for lv in FEATURE_LEVELS:
                _put(rec[lv.value], ep.levels[lv].data)
                _put(rec["shots"][lv.value], ep.shots[lv])
            f.write(rec)


def read_pack(path) -> list[Episode]:
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise ValueError(f"{path}: not an episode pack (bad magic)")
        (mlen,) = struct.unpack("<I", read_exact(f, 4))
        require_bytes(f, mlen)
        raw = read_exact(f, mlen)
        try:
            man = json.loads(raw.decode())
        except ValueError as e:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: malformed manifest: {e}") from None
        fmt = man.get("format") if isinstance(man, dict) else None
        if type(fmt) is not int or fmt != 1:
            raise ValueError(f"{path}: unsupported pack format {fmt!r}")
        try:
            dtype = _record(man)
            labels = [
                (meta["query_id"], frozenset(_int(c, "present class") for c in meta["present"]),
                 {_class_key(cid): [tuple(map(_coordinate, box)) for box in boxes]
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
        # One array per level and role for the whole pack, episode i's maps
        # in row i: six allocations, not six per episode. numpy asks for huge
        # pages for those of 4 MiB or more; the next read can reuse them whole.
        queries = {lv: np.empty((len(labels), *rec[lv.value].shape), np.float32)
                   for lv in FEATURE_LEVELS}
        stacks = {lv: np.empty((len(labels), *rec["shots"][lv.value].shape), np.float32)
                  for lv in FEATURE_LEVELS}
        episodes: dict[str, Episode] = {}
        for i, (query_id, present, gt_boxes) in enumerate(labels):
            if f.readinto(words) != words.nbytes:
                raise ValueError(f"{path}: truncated at byte {f.tell()}")
            found = words[index]
            bad = (found != expected).any(axis=1)
            if bad.any():
                i = int(bad.argmax())
                raise ValueError(f"{path}: tensor at byte {start + 4 * int(index[i, 0])} "
                                 f"has rank/dims {found[i].tolist()}, "
                                 f"expected {expected[i].tolist()}")
            for lv in FEATURE_LEVELS:
                np.copyto(queries[lv][i], rec[lv.value])
                np.copyto(stacks[lv][i], rec["shots"][lv.value])
            try:
                levels = {lv: FeatureMap(queries[lv][i]) for lv in FEATURE_LEVELS}
                shots = {lv: stacks[lv][i] for lv in FEATURE_LEVELS}
                ep = Episode(query_id=query_id, levels=levels, shots=shots,
                             gt_boxes=gt_boxes)
                if present != ep.present_classes:
                    cid = min(present ^ ep.present_classes)
                    raise ValueError(f"present class {cid} has no ground-truth boxes"
                                     if cid in present else
                                     f"class {cid} has ground-truth boxes but is not present")
            except ValueError as e:
                # Header words read as floats are tiny and finite, so the
                # record's first non-finite word is a map value.
                values = words.view("<f4")
                bad = np.flatnonzero(~np.isfinite(values))
                what = (f"non-finite value {values[bad[0]]} at byte {start + 4 * int(bad[0])}"
                        if bad.size else e)
                raise ValueError(f"{path}: episode {i}: {what}") from None
            if episodes.setdefault(query_id, ep) is not ep:
                raise ValueError(f"{path}: query id {query_id!r} is repeated")
            start += words.nbytes
    return list(episodes.values())
