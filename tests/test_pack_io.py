"""Round-trip and wire-format tests for episode packs and model
checkpoints."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from preselect.checkpoint import load_checkpoint, save_checkpoint
from preselect.cli import EXIT_OK, main
from preselect.episodes import Episode, SynthConfig, synth_episodes
from preselect.pack_io import read_pack, write_pack
from preselect.scorer import ScoreModel
from preselect.tensor_ops import FeatureMap, Level

from helpers import random_projector, scores_batch


def episodes_fixture(n=3, seed=0):
    cfg = SynthConfig(num_classes=5, present_count=2, k=2)
    return cfg, synth_episodes(cfg, seed, n)


def assert_same_episodes(loaded, episodes):
    """Labels and every map equal (==), in pack order."""
    assert len(loaded) == len(episodes)
    for a, b in zip(loaded, episodes):
        assert (a.query_id, a.present_classes, a.gt_boxes) == \
            (b.query_id, b.present_classes, b.gt_boxes)
        assert list(a.levels) == list(b.levels)
        for lv in a.levels:
            assert a.levels[lv].data.shape == b.levels[lv].data.shape
            assert (a.levels[lv].data == b.levels[lv].data).all()
        assert a.class_ids == b.class_ids
        for cid in a.class_ids:
            assert len(a.supports[cid]) == len(b.supports[cid])
            for s1, s2 in zip(a.supports[cid], b.supports[cid]):
                assert list(s1) == list(s2)
                for lv in s1:
                    assert s1[lv].data.shape == s2[lv].data.shape
                    assert (s1[lv].data == s2[lv].data).all()


def map_offsets(raw: bytes) -> list[int]:
    """The byte offset of every map header of a pack, in file order,
    walked one map at a time from the manifest."""
    (mlen,) = struct.unpack("<I", raw[4:8])
    man = json.loads(raw[8 : 8 + mlen])
    levels = [man["levels"][lv] for lv in ("L2", "L3", "L4")]
    query = [16 + 4 * meta["channels"] * math.prod(meta["query_grid"]) for meta in levels]
    shot = [16 + 4 * meta["channels"] * math.prod(meta["support_grid"]) for meta in levels]
    sizes = (query + shot * (man["num_classes"] * man["k"])) * len(man["episodes"])
    return list(8 + mlen + np.cumsum([0] + sizes[:-1]))


class TestPackWire:
    """The EPK1 bytes map by map, and the byte offsets the reader names."""

    @pytest.fixture
    def pack(self, tmp_path):
        cfg, eps = episodes_fixture()
        path = tmp_path / "pack.epk"
        write_pack(path, eps, cfg)
        return path

    def test_layout_is_rank_dims_data(self, pack):
        raw = pack.read_bytes()
        at = map_offsets(raw)
        q = read_pack(pack)[0].levels[Level.L2].data
        assert struct.unpack("<4I", raw[at[0] : at[0] + 16]) == (3, *q.shape)
        assert raw[at[0] + 16 : at[1]] == q.astype("<f4").tobytes()
        assert at[-1] + 16 + 4 * 64 * 2 * 2 == len(raw)  # the last shot's L4 map

    @pytest.mark.parametrize("which", ["first_query", "middle_support", "last_record"])
    @pytest.mark.parametrize("word", range(4))
    def test_flipped_header_names_map_offset(self, pack, which, word):
        """A changed header word fails with the byte offset of its map: the
        first map, the L3 map of class 2's second shot in episode 1, and
        the last map of the last episode."""
        raw = pack.read_bytes()
        at = map_offsets(raw)
        per_episode = len(at) // 3
        offset = {"first_query": at[0],
                  "middle_support": at[per_episode + 3 + 3 * (2 * 2 + 1) + 1],
                  "last_record": at[-1]}[which]
        bad = bytearray(raw)
        bad[offset + 4 * word] ^= 0x02
        pack.write_bytes(bytes(bad))
        with pytest.raises(ValueError, match=f"tensor at byte {offset} has rank/dims"):
            read_pack(pack)

    def test_cut_inside_episode_block(self, pack):
        raw = pack.read_bytes()
        at = map_offsets(raw)
        pack.write_bytes(raw[: at[len(at) // 2] + 20])
        with pytest.raises(ValueError, match="truncated"):
            read_pack(pack)

    def test_one_trailing_byte(self, pack):
        raw = pack.read_bytes()
        pack.write_bytes(raw + b"\0")
        with pytest.raises(ValueError, match=f"trailing bytes at byte {len(raw)}"):
            read_pack(pack)


# Channels and grids unlike the synthetic defaults: odd, unequal sides
# and dims of 1, with a different channel count at every level.
ODD_CHANNELS = {Level.L2: 3, Level.L3: 1, Level.L4: 5}
ODD_QUERY = {Level.L2: (7, 5), Level.L3: (1, 9), Level.L4: (3, 3)}
ODD_SUPPORT = {Level.L2: (3, 1), Level.L3: (5, 2), Level.L4: (1, 1)}


def odd_episodes(n=2, num_classes=3, k=2, seed=0):
    """Episodes built by hand at the ODD_* dims, random maps."""
    rng = np.random.default_rng(seed)

    def maps(grids):
        return {lv: FeatureMap(rng.standard_normal((ODD_CHANNELS[lv], *grids[lv]),
                                                   dtype=np.float32), lv)
                for lv in (Level.L2, Level.L3, Level.L4)}

    return [Episode(query_id=f"odd-{i}", levels=maps(ODD_QUERY),
                    supports={cid: [maps(ODD_SUPPORT) for _ in range(k)]
                              for cid in range(num_classes)},
                    present_classes=frozenset({i % num_classes}),
                    gt_boxes={i % num_classes: [(0.0, 1.0, 2.0, 3.5)]})
            for i in range(n)]


class TestOddDims:
    """Packs whose record is built from channels and grids other than the
    synthetic defaults."""

    def test_round_trip_and_rewrite(self, tmp_path):
        eps = odd_episodes()
        path, again = tmp_path / "pack.epk", tmp_path / "again.epk"
        write_pack(path, eps)
        loaded = read_pack(path)
        assert_same_episodes(loaded, eps)
        write_pack(again, loaded)
        assert again.read_bytes() == path.read_bytes()
        assert map_offsets(path.read_bytes())[-1] + 16 + 4 * 5 * 1 * 1 == len(path.read_bytes())

    def test_every_flipped_header_names_its_map(self, tmp_path):
        """Each map's header, query and shots alike, is checked against the
        manifest: a changed dim word fails with that map's offset."""
        path = tmp_path / "pack.epk"
        write_pack(path, odd_episodes(n=1, num_classes=2, k=1))
        raw = path.read_bytes()
        for offset in map_offsets(raw):
            bad = bytearray(raw)
            bad[offset + 8] ^= 0x04  # the map's H word
            path.write_bytes(bytes(bad))
            with pytest.raises(ValueError, match=f"tensor at byte {offset} has rank/dims"):
                read_pack(path)


class TestEpisodePack:
    def test_round_trip(self, tmp_path):
        cfg, eps = episodes_fixture()
        path = tmp_path / "pack.epk"
        write_pack(path, eps, cfg)
        assert_same_episodes(read_pack(path), eps)

    def test_many_classes_round_trip(self, tmp_path):
        """100 classes of 5 shots, as the many_classes benchmark reads; the
        rewritten pack has the same bytes."""
        cfg = SynthConfig(num_classes=100, present_count=3, k=5)
        eps = synth_episodes(cfg, 6, 2)
        path, again = tmp_path / "pack.epk", tmp_path / "again.epk"
        write_pack(path, eps, cfg)
        loaded = read_pack(path)
        assert_same_episodes(loaded, eps)
        write_pack(again, loaded, cfg)
        assert again.read_bytes() == path.read_bytes()

    def test_golden_bytes(self, tmp_path):
        """Acceptance criterion 8's gen pack keeps its sha256."""
        path = tmp_path / "pack.epk"
        assert main(["gen", "--classes", "8", "--present", "2", "--episodes", "8",
                     "--shots", "2", "--seed", "3", "-o", str(path)]) == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "968ff57c1178a737d0f33e935f746c11a11632830b64b19e0504229fa3154d24"

    def test_support_maps_share_one_array_per_level(self, tmp_path):
        cfg, eps = episodes_fixture(n=1)
        path = tmp_path / "pack.epk"
        write_pack(path, eps, cfg)
        ep = read_pack(path)[0]
        for lv in (Level.L2, Level.L3, Level.L4):
            bases = {id(shot[lv].data.base) for shots in ep.supports.values()
                     for shot in shots}
            assert len(bases) == 1
            (base,) = {shot[lv].data.base.shape for shot in ep.supports[0]}
            assert base == (5, 2, *ep.supports[0][0][lv].data.shape)

    def test_magic_bytes(self, tmp_path):
        _, eps = episodes_fixture(n=1)
        path = tmp_path / "pack.epk"
        write_pack(path, eps)
        assert path.read_bytes()[:4] == b"EPK1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.epk"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_pack(path)

    def test_unknown_format_rejected(self, tmp_path):
        _, eps = episodes_fixture(n=1)
        path = tmp_path / "pack.epk"
        write_pack(path, eps)
        raw = path.read_bytes()
        assert raw.count(b'"format":1') == 1
        path.write_bytes(raw.replace(b'"format":1', b'"format":2'))
        with pytest.raises(ValueError, match="format"):
            read_pack(path)

    def test_deterministic_bytes(self, tmp_path):
        cfg, eps = episodes_fixture()
        p1, p2 = tmp_path / "a.epk", tmp_path / "b.epk"
        write_pack(p1, eps, cfg)
        write_pack(p2, eps, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_pack_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pack(tmp_path / "empty.epk", [])

    def test_levels_preserved(self, tmp_path):
        _, eps = episodes_fixture(n=1)
        path = tmp_path / "pack.epk"
        write_pack(path, eps)
        loaded = read_pack(path)[0]
        for lv in (Level.L2, Level.L3, Level.L4):
            assert loaded.levels[lv].level is lv


class TestCheckpoint:
    @staticmethod
    def _state(seed=0):
        channels = {Level.L2: 4, Level.L3: 6, Level.L4: 8}
        model = ScoreModel.init(8, hidden=16, seed=seed)
        rng = np.random.default_rng(seed)
        proj = random_projector(channels, 8, rng)
        return model, proj

    def test_round_trip(self, tmp_path):
        model, proj = self._state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, proj)
        m2, p2 = load_checkpoint(path)
        np.testing.assert_array_equal(m2.w1, model.w1)
        np.testing.assert_array_equal(m2.b1, model.b1)
        np.testing.assert_array_equal(m2.w2, model.w2)
        np.testing.assert_array_equal(m2.b2, model.b2)
        assert m2.eps == pytest.approx(model.eps)
        for lv in proj.weights:
            np.testing.assert_array_equal(p2.weights[lv], proj.weights[lv])
            np.testing.assert_array_equal(p2.biases[lv], proj.biases[lv])

    def test_magic_bytes(self, tmp_path):
        model, proj = self._state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, proj)
        assert path.read_bytes()[:4] == b"TPF1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"EPK1" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        model, proj = self._state()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, proj)
        save_checkpoint(p2, model, proj)
        assert p1.read_bytes() == p2.read_bytes()

    def test_scores_survive_round_trip(self, tmp_path):
        """A reloaded model scores maps identically to the original."""
        from preselect.tensor_ops import FeatureMap

        model, proj = self._state(seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, proj)
        m2, _ = load_checkpoint(path)
        rng = np.random.default_rng(2)
        for _ in range(5):
            m = FeatureMap(rng.standard_normal((8, 4, 4)).astype(np.float32),
                           Level.L4)
            assert scores_batch(m2, m.data[None])[0] == scores_batch(model, m.data[None])[0]
