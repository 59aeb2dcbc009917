"""End-to-end tests of the command-line interface: exit codes,
determinism of generated artifacts, and config-file handling."""

import json
import math
import struct

import numpy as np
import pytest

from preselect.checkpoint import load_checkpoint, save_checkpoint
from preselect.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main

GEN_ARGS = ["gen", "--classes", "6", "--present", "2", "--episodes", "6",
            "--shots", "2", "--seed", "0"]
TRAIN_ARGS = ["train", "--phases", "tpf", "--epochs", "3", "--lr", "0.3",
              "--hidden", "16", "--seed", "0"]


@pytest.fixture
def pack(tmp_path):
    path = tmp_path / "pack.epk"
    assert main(GEN_ARGS + ["-o", str(path)]) == EXIT_OK
    return path


@pytest.fixture
def ckpt(tmp_path, pack):
    path = tmp_path / "model.ckpt"
    assert main(TRAIN_ARGS + ["--pack", str(pack), "-o", str(path)]) == EXIT_OK
    return path


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.epk", tmp_path / "b.epk"
        assert main(GEN_ARGS + ["-o", str(a)]) == EXIT_OK
        assert main(GEN_ARGS + ["-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a.epk", tmp_path / "b.epk"
        assert main(GEN_ARGS + ["-o", str(a)]) == EXIT_OK
        args = GEN_ARGS.copy()
        args[args.index("--seed") + 1] = "1"
        assert main(args + ["-o", str(b)]) == EXIT_OK
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_config_rejected(self, tmp_path):
        out = tmp_path / "bad.epk"
        code = main(["gen", "--classes", "0", "-o", str(out)])
        assert code == EXIT_VALIDATION


class TestTrain:
    def test_deterministic_checkpoint(self, tmp_path, pack):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert main(TRAIN_ARGS + ["--pack", str(pack), "-o", str(a)]) == EXIT_OK
        assert main(TRAIN_ARGS + ["--pack", str(pack), "-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_pack_is_validation_error(self, tmp_path):
        code = main(TRAIN_ARGS + ["--pack", str(tmp_path / "nope.epk"),
                                  "-o", str(tmp_path / "m.ckpt")])
        assert code == EXIT_VALIDATION

    def test_divergence_is_numerical_error(self, tmp_path, pack):
        # A clipped step moves the scorer by at most lr. At 1e30 the logits
        # grow until a picked probability underflows to 0 (an infinite
        # loss); at 1e39 one step overflows the float32 weights.
        for lr in ("1e30", "1e39"):
            out = tmp_path / f"m{lr}.ckpt"
            with np.errstate(all="ignore"):
                code = main(["train", "--phases", "tpf", "--epochs", "5",
                             "--lr", lr, "--hidden", "16",
                             "--pack", str(pack), "-o", str(out)])
            assert code == EXIT_NUMERICAL
            assert not out.exists()


class TestEval:
    def test_all_strategy_is_lossless(self, tmp_path, pack, ckpt, capsys):
        report = tmp_path / "report.json"
        code = main(["eval", "--checkpoint", str(ckpt), "--pack", str(pack),
                     "--strategy", "all", "--report", str(report)])
        assert code == EXIT_OK
        record = json.loads(report.read_text())
        assert record["omission_rate"] == 0.0
        assert record["ap_full"] == record["ap_minor"]

    def test_recall_csv_written(self, tmp_path, pack, ckpt):
        csv = tmp_path / "recall.csv"
        code = main(["eval", "--checkpoint", str(ckpt), "--pack", str(pack),
                     "--strategy", "topn", "--top-n", "6",
                     "--recall-csv", str(csv)])
        assert code == EXIT_OK
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "class_id,recall"
        assert len(lines) > 1

    def test_bad_checkpoint_magic(self, tmp_path, pack):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"XXXX" + b"\x00" * 16)
        code = main(["eval", "--checkpoint", str(bogus), "--pack", str(pack)])
        assert code == EXIT_VALIDATION


def _pack_cuts(raw: bytes) -> dict[str, int]:
    (mlen,) = struct.unpack("<I", raw[4:8])
    return {"magic_length": 6, "manifest": 8 + mlen // 2,
            "tensor_header": 8 + mlen + 6, "last_tensor_body": len(raw) - 2}


def _ckpt_cuts(raw: bytes) -> dict[str, int]:
    c, hidden = struct.unpack("<II", raw[4:12])
    mlp_end = 16 + 4 * (hidden * 2 * c + hidden + 2 * hidden + 2)
    return {"magic_dims": 6, "w1_body": 16 + 4 * hidden * c,
            "level_header": mlp_end + 4 + 6, "last_tensor_body": len(raw) - 2}


def _edit_manifest(pack, edit) -> None:
    """Rewrite the pack's manifest JSON through edit(manifest)."""
    raw = pack.read_bytes()
    (mlen,) = struct.unpack("<I", raw[4:8])
    man = json.loads(raw[8 : 8 + mlen])
    edit(man)
    blob = json.dumps(man, sort_keys=True, separators=(",", ":")).encode()
    pack.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + mlen :])


CUTS = [("pack", part) for part in _pack_cuts(b"\0" * 8)] + \
       [("checkpoint", part) for part in _ckpt_cuts(b"\0" * 16)]


class TestMalformedInputs:
    """A cut or padded pack or checkpoint exits 1 with one error line."""

    @staticmethod
    def _eval_error(pack, ckpt, capsys):
        code = main(["eval", "--checkpoint", str(ckpt), "--pack", str(pack)])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_VALIDATION
        assert len(err) == 1 and err[0].startswith("error:"), err
        return err[0]

    @pytest.mark.parametrize("target,part", CUTS, ids=[f"{t}-{p}" for t, p in CUTS])
    def test_truncated(self, pack, ckpt, capsys, target, part):
        path = pack if target == "pack" else ckpt
        raw = path.read_bytes()
        cuts = _pack_cuts(raw) if target == "pack" else _ckpt_cuts(raw)
        path.write_bytes(raw[: cuts[part]])
        assert "truncated" in self._eval_error(pack, ckpt, capsys)

    @pytest.mark.parametrize("target", ["pack", "checkpoint"])
    def test_trailing_bytes(self, pack, ckpt, capsys, target):
        path = pack if target == "pack" else ckpt
        path.write_bytes(path.read_bytes() + b"\0")
        assert "trailing" in self._eval_error(pack, ckpt, capsys)

    @pytest.mark.parametrize("tensor", ["query", "support"])
    @pytest.mark.parametrize("byte", range(16))
    def test_flipped_tensor_header(self, pack, ckpt, capsys, tensor, byte):
        """Any change to a rank or dim byte of the first query or support
        map is caught from the header, before a read of its data."""
        raw = pack.read_bytes()
        (mlen,) = struct.unpack("<I", raw[4:8])
        offset = 8 + mlen
        if tensor == "support":
            man = json.loads(raw[8 : 8 + mlen])
            offset += sum(16 + 4 * meta["channels"] * math.prod(meta["query_grid"])
                          for meta in man["levels"].values())
        assert struct.unpack("<I", raw[offset : offset + 4]) == (3,)
        for mask in (0x01, 0x80, 0xFF):
            bad = bytearray(raw)
            bad[offset + byte] ^= mask
            pack.write_bytes(bytes(bad))
            assert "rank/dims" in self._eval_error(pack, ckpt, capsys)

    @pytest.mark.parametrize("byte", range(16))
    def test_flipped_checkpoint_header(self, pack, ckpt, capsys, byte):
        """A flipped header byte either still loads or exits 1 with one
        error line; a flipped high byte of the channel count (7) or the
        hidden width (11) asks for more bytes than the file holds."""
        raw = ckpt.read_bytes()
        for mask in (0x80, 0xFF):
            bad = bytearray(raw)
            bad[byte] ^= mask
            ckpt.write_bytes(bytes(bad))
            code = main(["eval", "--checkpoint", str(ckpt), "--pack", str(pack)])
            err = capsys.readouterr().err.splitlines()
            assert code in (EXIT_OK, EXIT_VALIDATION)
            if byte in (7, 11):
                assert code == EXIT_VALIDATION
            if code == EXIT_VALIDATION:
                assert len(err) == 1 and err[0].startswith("error:"), err

    @pytest.mark.parametrize("key", ["query_id", "present", "gt_boxes"])
    def test_episode_entry_missing_key(self, pack, ckpt, capsys, key):
        _edit_manifest(pack, lambda man: man["episodes"][0].pop(key))
        assert "malformed manifest" in self._eval_error(pack, ckpt, capsys)

    @pytest.mark.parametrize("value", [float("inf"), 2**64, 0, -1])
    def test_manifest_dim_out_of_range(self, pack, ckpt, capsys, value):
        """An infinite, too large, zero or negative channel count."""
        _edit_manifest(pack, lambda man: man["levels"]["L3"].update(channels=value))
        assert "malformed manifest" in self._eval_error(pack, ckpt, capsys)

    def test_present_class_not_a_candidate(self, pack, ckpt, capsys):
        def add_class_99(man):
            meta = man["episodes"][0]
            meta["present"].append(99)
            meta["gt_boxes"]["99"] = [[0.0, 0.0, 1.0, 1.0]]

        _edit_manifest(pack, add_class_99)
        assert "not candidate classes" in self._eval_error(pack, ckpt, capsys)

    @pytest.mark.parametrize("command", ["train", "eval", "bench"])
    def test_pack_without_episodes(self, tmp_path, pack, ckpt, capsys, command):
        """A manifest that lists no episodes, followed by no tensors."""
        _edit_manifest(pack, lambda man: man.update(episodes=[]))
        raw = pack.read_bytes()
        (mlen,) = struct.unpack("<I", raw[4:8])
        pack.write_bytes(raw[: 8 + mlen])
        args = {"train": TRAIN_ARGS + ["-o", str(tmp_path / "out.ckpt")],
                "eval": ["eval", "--checkpoint", str(ckpt)],
                "bench": ["bench", "--checkpoint", str(ckpt)]}[command]
        code = main(args + ["--pack", str(pack)])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_VALIDATION
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "no episodes" in err[0]

    def test_overflowing_projector_checkpoint(self, pack, ckpt, capsys):
        """Projector weights that overflow the float32 fused map."""
        model, proj = load_checkpoint(ckpt)
        for lv in proj.weights:
            proj.weights[lv] = np.full_like(proj.weights[lv], 3e38)
        save_checkpoint(ckpt, model, proj)
        assert "non-finite" in self._eval_error(pack, ckpt, capsys)

    def test_nonpositive_eps_checkpoint(self, pack, ckpt, capsys):
        raw = bytearray(ckpt.read_bytes())
        raw[12:16] = struct.pack("<f", 0.0)
        ckpt.write_bytes(bytes(raw))
        assert "eps" in self._eval_error(pack, ckpt, capsys)


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classes": 4, "present": 1, "episodes": 3,
                                   "shots": 2, "seed": 7}))
        out = tmp_path / "pack.epk"
        assert main(["--config", str(cfg), "gen", "-o", str(out)]) == EXIT_OK
        from preselect.pack_io import read_pack

        eps = read_pack(out)
        assert len(eps) == 3
        assert len(eps[0].class_ids) == 4

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classes": 4, "present": 1, "episodes": 3,
                                   "shots": 2}))
        out = tmp_path / "pack.epk"
        assert main(["--config", str(cfg), "gen", "--classes", "5",
                     "-o", str(out)]) == EXIT_OK
        from preselect.pack_io import read_pack

        assert len(read_pack(out)[0].class_ids) == 5

    @pytest.mark.parametrize("config", [
        [1, 2],             # not an object
        "str",              # not an object
        {"top_n": 3.7},     # --top-n 3.7 is not an int
        {"top_n": "abc"},   # nor is --top-n abc
        {"peak": [1]},      # a list is no command-line value
        {"top_k": 3},       # no command has --top-k
    ], ids=["list", "string", "float-for-int", "text-for-int", "list-value", "unknown-key"])
    def test_malformed_config_rejected(self, tmp_path, pack, ckpt, capsys, config):
        """Each case exits 1 with one error line and prints nothing, before
        any command runs."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["--config", str(cfg), "eval", "--checkpoint", str(ckpt),
                     "--pack", str(pack)])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {cfg}"), err

    def test_config_value_parsed_as_flag(self, tmp_path, pack, ckpt, capsys):
        """A string value takes the option's type, as on the command line:
        "6" for --top-n keeps all 6 classes, so minor AP equals full AP."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_n": "6", "strategy": "topn"}))
        assert main(["--config", str(cfg), "eval", "--checkpoint", str(ckpt),
                     "--pack", str(pack)]) == EXIT_OK
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["ap_minor"] == record["ap_full"]

    def test_missing_config_file(self, tmp_path):
        code = main(["--config", str(tmp_path / "nope.json"),
                     "gen", "-o", str(tmp_path / "p.epk")])
        assert code == EXIT_VALIDATION


class TestBench:
    def test_bench_smoke(self, tmp_path, pack, ckpt, capsys):
        code = main(["bench", "--checkpoint", str(ckpt), "--pack", str(pack),
                     "--strategy", "topn", "--top-n", "3"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        sums = record["stage_seconds"]
        heavy = {tag: sums[tag]["fusion"] + sums[tag]["detect"] for tag in ("full", "minor")}
        assert record["heavy_ratio"] == heavy["minor"] / heavy["full"]
        assert 0.0 < record["heavy_ratio"]
        assert record["fit"]["scoring_seconds_per_class"] > 0.0
        # The published 20-class full-loop figure appears in the report.
        assert record["reference"]["full_seconds"] == pytest.approx(0.733, abs=1e-12)

    @pytest.mark.parametrize("strategy", [["--strategy", "all"], ["--top-n", "6"]])
    def test_degenerate_fit_is_validation_error(self, pack, ckpt, capsys, strategy):
        """A minor loop that keeps every class times the same work as the
        full loop, so no per-class cost can be fitted."""
        code = main(["bench", "--checkpoint", str(ckpt), "--pack", str(pack)] + strategy)
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err

    def test_default_top_n_on_small_pack(self, tmp_path, capsys):
        """Acceptance criterion 8's 8-class pack with bench's defaults:
        TopN(10) keeps every class, and the error says so."""
        pack, ckpt = tmp_path / "pack.epk", tmp_path / "model.ckpt"
        assert main(["gen", "--classes", "8", "--present", "2", "--episodes", "8",
                     "--shots", "2", "--seed", "3", "-o", str(pack)]) == EXIT_OK
        assert main(TRAIN_ARGS + ["--pack", str(pack), "-o", str(ckpt)]) == EXIT_OK
        capsys.readouterr()
        code = main(["bench", "--checkpoint", str(ckpt), "--pack", str(pack)])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert "kept all 8 classes" in err and "--top-n must be below 8" in err
