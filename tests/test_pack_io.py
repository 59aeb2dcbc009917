"""Round-trip and wire-format tests for episode packs and model
checkpoints."""

import hashlib
import itertools
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from preselect.checkpoint import load_checkpoint, save_checkpoint
from preselect.cli import EXIT_OK, main
from preselect.episodes import (FEATURE_LEVELS, FusionProjector, SynthConfig, align_query,
                                prototype_matrices, synth_episodes)
from preselect.pack_io import read_pack, write_pack
from preselect.scorer import Phase, ScoreModel, TrainConfig, query_scores, train
from preselect.selector import TopN, run_inference
from preselect.tensor_ops import Level

from helpers import odd_episodes, random_projector, scores_batch


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
        assert list(a.shots) == list(b.shots)
        for lv in a.shots:
            assert a.shots[lv].shape == b.shots[lv].shape
            assert (a.shots[lv] == b.shots[lv]).all()


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

    @pytest.mark.parametrize("which", ["first_query", "middle_support", "last_record"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_episode_and_byte(self, pack, which, value):
        """A non-finite map value fails with the pack, its episode's index
        and its own byte offset: the first value of the first map, the
        fifth of the L3 map of class 2's second shot in episode 1, and the
        last value of the last episode."""
        raw = pack.read_bytes()
        at = map_offsets(raw)
        per_episode = len(at) // 3
        episode, offset = {"first_query": (0, at[0] + 16),
                           "middle_support": (1, at[per_episode + 3 + 3 * (2 * 2 + 1) + 1]
                                              + 16 + 4 * 4),
                           "last_record": (2, len(raw) - 4)}[which]
        bad = bytearray(raw)
        bad[offset : offset + 4] = struct.pack("<f", value)
        pack.write_bytes(bytes(bad))
        with pytest.raises(ValueError) as e:
            read_pack(pack)
        assert str(e.value) == (f"{pack}: episode {episode}: non-finite value "
                                f"{np.float32(value)} at byte {offset}")

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

    def test_golden_prototypes_and_aligned_queries(self, tmp_path):
        """On criterion 8's gen pack, every episode's prototype matrix and
        aligned query keep their sha256: a pin on the two reductions of
        per-query setup alone, with no BLAS call in between."""
        path = tmp_path / "pack.epk"
        assert main(["gen", "--classes", "8", "--present", "2", "--episodes", "8",
                     "--shots", "2", "--seed", "3", "-o", str(path)]) == EXIT_OK
        digest = hashlib.sha256()
        for ep in read_pack(path):
            digest.update(prototype_matrices(ep.shots).tobytes())
            digest.update(align_query(ep.levels).tobytes())
        assert digest.hexdigest() == \
            "20e9b0e13d4cd390f1d683c1187e24c5042a4b0495a193a9b8bc32c0474fc658"

    def test_support_maps_share_one_array_per_level(self, tmp_path):
        """Each level's shots come back as one C-contiguous float32
        (N, k, C, h, w) array, and each query map as one (C, H, W) array.
        No two of them, across episodes and levels, share memory, nor does
        any share memory with a second read of the pack: no view of the
        reader's record buffer, which the next episode overwrites. Once the
        whole pack is read, every map still holds what was written."""
        cfg, eps = episodes_fixture(n=3)
        path = tmp_path / "pack.epk"
        write_pack(path, eps, cfg)
        loaded, again = read_pack(path), read_pack(path)

        def arrays(episodes):
            return [a for ep in episodes
                    for a in (*(m.data for m in ep.levels.values()), *ep.shots.values())]

        for lv in (Level.L2, Level.L3, Level.L4):
            for ep in loaded:
                assert ep.shots[lv].shape == eps[0].shots[lv].shape
                assert ep.shots[lv].shape[:2] == (5, 2)
        ours, theirs = arrays(loaded), arrays(again)
        assert len(ours) == 3 * 6
        for a in ours:
            assert a.dtype == np.float32 and a.flags.c_contiguous
        for a, b in itertools.combinations(ours, 2):
            assert not np.shares_memory(a, b)
        for a, b in itertools.product(ours, theirs):
            assert not np.shares_memory(a, b)
        assert_same_episodes(loaded, eps)
        assert_same_episodes(again, eps)

    def test_one_allocation_per_level_not_per_episode(self, tmp_path):
        """read_pack allocates each level's maps once for the whole pack:
        the blocks it leaves allocated that are larger than one episode's
        L4 shot stack are as many for 12 episodes as for 4."""
        cfg = SynthConfig(num_classes=5, present_count=2, k=2)
        counts = []
        for n in (4, 12):
            path = tmp_path / f"pack{n}.epk"
            write_pack(path, synth_episodes(cfg, 0, n), cfg)
            tracemalloc.start()
            try:
                loaded = read_pack(path)
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            one_stack = loaded[0].shots[Level.L4].nbytes
            traces = snapshot.filter_traces([tracemalloc.Filter(True, "*pack_io.py")]).traces
            counts.append(sum(t.size > one_stack for t in traces))
        assert counts[0] == counts[1] > 0

    def test_huge_manifest_rejected_before_any_buffer(self, tmp_path):
        """A short file whose manifest claims 64 records of nearly 1 GiB
        fails as truncated before the reader asks for memory: its peak
        traced allocation stays under 4 MB."""
        cfg, eps = episodes_fixture(n=1)
        path = tmp_path / "pack.epk"
        write_pack(path, eps, cfg)
        raw = path.read_bytes()
        (mlen,) = struct.unpack("<I", raw[4:8])
        man = json.loads(raw[8 : 8 + mlen])
        levels = [man["levels"][lv] for lv in ("L2", "L3", "L4")]
        query = sum(16 + 4 * meta["channels"] * math.prod(meta["query_grid"]) for meta in levels)
        shot = sum(16 + 4 * meta["channels"] * math.prod(meta["support_grid"]) for meta in levels)
        man["num_classes"] = (2**30 - query) // (man["k"] * shot)
        man["episodes"] = [dict(man["episodes"][0], query_id=f"q{i}") for i in range(64)]
        manifest = json.dumps(man).encode()
        path.write_bytes(raw[:4] + struct.pack("<I", len(manifest)) + manifest
                         + raw[8 + mlen :])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated"):
                read_pack(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

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
        for lv in proj.weights:
            np.testing.assert_array_equal(p2.weights[lv], proj.weights[lv])
            np.testing.assert_array_equal(p2.biases[lv], proj.biases[lv])

    @pytest.mark.parametrize("c,hidden", [(1, 1), (8, 16), (3, 5)])
    def test_layer_shapes_are_one_rule(self, tmp_path, c, hidden):
        """init, the checkpoint reader and the model's own check share
        ScoreModel.shapes: an initialised model has those shapes and
        reloads with them, and a model whose b1 is one entry short is
        rejected."""
        shapes = list(ScoreModel.shapes(c, hidden))
        model = ScoreModel.init(c, hidden=hidden)
        assert [a.shape for a in model.layers] == shapes
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, FusionProjector.identity({lv: c for lv in FEATURE_LEVELS}, 2))
        assert [a.shape for a in load_checkpoint(path)[0].layers] == shapes
        with pytest.raises(ValueError, match="layer shapes"):
            ScoreModel(model.w1, model.b1[:-1], model.w2, model.b2)

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
            m = FeatureMap(rng.standard_normal((8, 4, 4)).astype(np.float32))
            assert scores_batch(m2, m.data[None])[0] == scores_batch(model, m.data[None])[0]

    def test_trained_model_reloads_bitwise(self, tmp_path):
        """A TPF-trained model and its saved-and-loaded copy give the same
        query_scores bytes on 64 noisy 20-way episodes (1280 pairs), and
        run_inference gives the same selection, scores and detections."""
        train_eps = synth_episodes(SynthConfig(), 1, 32)
        channels = {lv: m.channels for lv, m in train_eps[0].levels.items()}
        model, proj, _ = train(ScoreModel.init(64, hidden=64, seed=0),
                               FusionProjector.identity(channels, 64), train_eps,
                               TrainConfig(learning_rate=0.5, epochs=4, phase=Phase.TPF_ONLY))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, proj)
        m2, p2 = load_checkpoint(path)
        for ep in synth_episodes(SynthConfig(noise_sigma=0.6, blob_amplitude=3.0), 5, 64):
            q4, protos = ep.levels[Level.L4].data, prototype_matrices(ep.shots)
            assert query_scores(m2, q4, protos).tobytes() == \
                query_scores(model, q4, protos).tobytes()
            got, want = (run_inference(m, p, ep, TopN(10)) for m, p in ((m2, p2), (model, proj)))
            assert (got.selected, got.scores, got.detections) == \
                (want.selected, want.scores, want.detections)
