"""Round-trip and wire-format tests for episode packs and model
checkpoints."""

import io
import struct

import numpy as np
import pytest

from preselect.checkpoint import load_checkpoint, save_checkpoint
from preselect.episodes import SynthConfig, synth_episodes
from preselect.pack_io import read_pack, read_tensor, write_pack, write_tensor
from preselect.scorer import ScoreModel
from preselect.tensor_ops import Level

from helpers import random_projector, scores_batch


def episodes_fixture(n=3, seed=0):
    cfg = SynthConfig(num_classes=5, present_count=2, k=2)
    return cfg, synth_episodes(cfg, seed, n)


class TestTensorWire:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 4, 5)).astype(np.float32)
        buf = io.BytesIO()
        write_tensor(buf, arr)
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf, (3, 4, 5)), arr)

    def test_layout_is_rank_dims_data(self):
        arr = np.float32([[1.5, -2.0]])
        buf = io.BytesIO()
        write_tensor(buf, arr)
        raw = buf.getvalue()
        assert struct.unpack("<I", raw[:4]) == (2,)
        assert struct.unpack("<II", raw[4:12]) == (1, 2)
        assert struct.unpack("<2f", raw[12:]) == (1.5, -2.0)

    def test_rank1(self):
        buf = io.BytesIO()
        write_tensor(buf, np.float32([7.0]))
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf, (1,)), [7.0])

    @pytest.mark.parametrize("shape", [(3, 4, 6), (4, 5), (3, 4, 5, 1)])
    def test_header_checked_before_data(self, shape):
        buf = io.BytesIO()
        write_tensor(buf, np.zeros((3, 4, 5), np.float32))
        buf.seek(0)
        with pytest.raises(ValueError, match="rank/dims"):
            read_tensor(buf, shape)
        assert buf.tell() <= 4 * (len(shape) + 1)


class TestEpisodePack:
    def test_round_trip(self, tmp_path):
        cfg, eps = episodes_fixture()
        path = tmp_path / "pack.epk"
        write_pack(path, eps, cfg)
        loaded = read_pack(path)
        assert len(loaded) == len(eps)
        for a, b in zip(eps, loaded):
            assert a.query_id == b.query_id
            assert a.present_classes == b.present_classes
            assert a.gt_boxes == b.gt_boxes
            for lv in a.levels:
                np.testing.assert_array_equal(a.levels[lv].data, b.levels[lv].data)
            for cid in a.supports:
                for s1, s2 in zip(a.supports[cid], b.supports[cid]):
                    for lv in s1:
                        np.testing.assert_array_equal(s1[lv].data, s2[lv].data)

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
