"""End-to-end tests of the command-line interface: exit codes,
determinism of generated artifacts, and config-file handling."""

import inspect
import io
import json
import math
import os
import struct
import sys

import numpy as np
import pytest

from preselect import checkpoint, cli, pack_io
from preselect.checkpoint import load_checkpoint, save_checkpoint
from preselect.cli import (EXIT_CLOSED_PIPE, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                           build_parser, main)
from preselect.episodes import SynthConfig
from preselect.metrics import average_precision, evaluate
from preselect.scorer import ScoreModel, TrainConfig
from preselect.tensor_ops import Level

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


def test_parser_defaults_are_the_library_defaults():
    """Every option default that the library also sets is the library's."""
    parser = build_parser()
    gen = parser.parse_args(["gen", "-o", "p.epk"])
    trn = parser.parse_args(["train", "--pack", "p.epk", "-o", "m.ckpt"])
    ev = parser.parse_args(["eval", "--checkpoint", "m.ckpt", "--pack", "p.epk"])
    synth = SynthConfig()
    assert (gen.classes, gen.present, gen.shots, gen.amplitude, gen.sigma) == \
        (synth.num_classes, synth.present_count, synth.k, synth.blob_amplitude,
         synth.noise_sigma)
    assert trn.hidden == inspect.signature(ScoreModel.init).parameters["hidden"].default
    assert trn.batch_size == TrainConfig().batch_size
    assert ev.iou == inspect.signature(evaluate).parameters["iou_threshold"].default
    assert ev.iou == inspect.signature(average_precision).parameters["iou_threshold"].default


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

    @pytest.mark.parametrize("flags,field", [
        (["--amplitude", "inf"], "blob_amplitude"), (["--amplitude", "nan"], "blob_amplitude"),
        (["--amplitude", "-10"], "blob_amplitude"), (["--amplitude", "0"], "blob_amplitude"),
        (["--sigma", "-1"], "noise_sigma"), (["--sigma", "inf"], "noise_sigma"),
    ], ids=["amplitude-inf", "amplitude-nan", "amplitude-negative", "amplitude-zero",
            "sigma-negative", "sigma-inf"])
    def test_unusable_amplitude_or_sigma_rejected(self, tmp_path, capsys, flags, field):
        """An amplitude that is not finite and positive, or a noise sigma
        that is not finite and non-negative, exits 1 with one error line
        naming the field and the value, and writes no pack."""
        out = tmp_path / "bad.epk"
        code = main(["gen", "--classes", "6", "--episodes", "2", "-o", str(out)] + flags)
        stdout, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert field in err and repr(float(flags[1])) in err, err
        assert not out.exists()


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

    def test_divergence_is_numerical_error(self, tmp_path, capsys, pack):
        """A clipped step moves the scorer by at most lr. At 1e30 the logits
        grow until a picked probability underflows to 0 (an infinite loss);
        at 1e39 one step overflows the float32 weights. JOINT at 1e30 on a
        16-episode 20-class pack overflows its float32 gradients. Each exits
        2 with one line, with no warning before it, and writes no
        checkpoint."""
        joint_pack = tmp_path / "joint.epk"
        assert main(["gen", "--classes", "20", "--episodes", "16",
                     "-o", str(joint_pack)]) == EXIT_OK
        runs = [(["--phases", "tpf", "--epochs", "5", "--lr", lr, "--hidden", "16"], pack)
                for lr in ("1e30", "1e39")]
        runs.append((["--phases", "joint", "--joint-epochs", "2", "--joint-lr", "1e30",
                      "--hidden", "8"], joint_pack))
        capsys.readouterr()
        for i, (flags, data) in enumerate(runs):
            out = tmp_path / f"m{i}.ckpt"
            code = main(["train", "--pack", str(data), "-o", str(out)] + flags)
            err = capsys.readouterr().err.splitlines()
            assert code == EXIT_NUMERICAL
            assert len(err) == 1 and err[0].startswith("numerical failure:"), err
            assert not out.exists()

    @pytest.mark.parametrize("flags", [["--phases", "tpf", "--lr", "1e300"],
                                       ["--phases", "joint", "--joint-lr", "1e300"],
                                       ["--phases", "joint", "--joint-lr", "1e300",
                                        "--batch-size", "4"]],
                             ids=["tpf", "joint", "joint-3-batches"])
    def test_step_overflow_is_numerical_error(self, tmp_path, capsys, flags):
        """A finite learning rate whose first step overflows the float32
        parameters exits 2 with one line, and writes no checkpoint: with one
        batch no loss follows that step, and in JOINT the next batch would
        fuse with the overflowed projections first."""
        pack, out = tmp_path / "p.epk", tmp_path / "m.ckpt"
        assert main(["gen", "--classes", "6", "--episodes", "2", "-o", str(pack)]) == EXIT_OK
        code = main(["train", "--epochs", "1", "--joint-epochs", "1", "--hidden", "8",
                     "--pack", str(pack), "-o", str(out)] + flags)
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_NUMERICAL
        assert len(err) == 1 and "non-finite" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--batch-size", "-5"], ["--batch-size", "0"], ["--epochs", "-1"],
        ["--joint-epochs", "-2"], ["--hidden", "0"], ["--lr", "-1"], ["--lr", "inf"],
        ["--joint-lr", "inf"], ["--phases", ""], ["--phases", ","], ["-o", "missing/m.ckpt"],
    ], ids=["batch-negative", "batch-zero", "epochs-negative", "joint-epochs-negative",
            "hidden-zero", "lr-negative", "lr-inf", "joint-lr-inf", "phases-empty",
            "phases-comma", "output-dir-missing"])
    def test_bad_number_rejected_before_training(self, tmp_path, pack, capsys, flags):
        """A bad number, or a phase list that names no phase, exits 1 with
        one error line before any output or training, and writes no
        checkpoint."""
        out = tmp_path / "bad.ckpt"
        code = main(["train", "--phases", "joint,tpf", "--joint-epochs", "1", "--epochs", "1",
                     "--hidden", "16", "--pack", str(pack), "-o", str(out)] + flags)
        stdout, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
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

    @pytest.mark.parametrize("flag", ["--report", "--recall-csv"])
    def test_missing_output_dir_rejected_before_eval(self, tmp_path, pack, ckpt, capsys, flag):
        """An output in a directory that does not exist exits 1 with one
        error line before any report line is printed."""
        out = tmp_path / "missing" / "out"
        code = main(["eval", "--checkpoint", str(ckpt), "--pack", str(pack), flag, str(out)])
        stdout, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert not out.parent.exists()

    def test_bad_checkpoint_magic(self, tmp_path, pack):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"XXXX" + b"\x00" * 16)
        code = main(["eval", "--checkpoint", str(bogus), "--pack", str(pack)])
        assert code == EXIT_VALIDATION


class TestDirectoryOutput:
    @pytest.mark.parametrize("command", ["gen -o", "train -o", "eval --report",
                                         "eval --recall-csv"])
    def test_directory_output_rejected_first(self, tmp_path, pack, ckpt, capsys, command):
        """An output path that is an existing directory exits 1 with one
        error line naming it, before anything is generated, trained or
        printed, and the directory stays empty."""
        name, flag = command.split()
        out = tmp_path / "outdir"
        out.mkdir()
        args = {"gen": GEN_ARGS[1:], "train": TRAIN_ARGS[1:] + ["--pack", str(pack)],
                "eval": ["--checkpoint", str(ckpt), "--pack", str(pack)]}[name]
        capsys.readouterr()
        code = main([name, *args, flag, str(out)])
        stdout, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert stdout == ""
        assert err.splitlines() == [f"error: cannot write {out}: it is a directory"]
        assert not any(out.iterdir())


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


# Each manifest label edit of TestMalformedInputs::test_malformed_label and
# the error it must give.
LABEL_ERRORS = {
    "query-id-list": "not a string",
    "query-id-repeated": "repeated",
    "box-infinite": "non-finite box",
    "present-without-boxes": "has no ground-truth boxes",
    "present-fraction": "not an integer",
    "box-key-zero-padded": "not an integer",
    "box-for-absent-class": "has ground-truth boxes but is not present",
    "box-strings": "not a number",
    "box-bool": "not a number",
    "present-string": "not an integer",
    "shots-fraction": "not an integer",
    "shots-string": "not an integer",
    "classes-float": "not an integer",
    "query-grid-fractions": "not an integer",
}


class TestMalformedInputs:
    """A cut or padded pack or checkpoint exits 1 with one error line."""

    @staticmethod
    def _eval_error(pack, ckpt, capsys):
        code = main(["eval", "--checkpoint", str(ckpt), "--pack", str(pack)])
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert code == EXIT_VALIDATION
        assert out == ""
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
        hidden width (11) asks for more bytes than the file holds, and a
        flipped eps byte (12-15) leaves a word other than train's."""
        raw = ckpt.read_bytes()
        for mask in (0x80, 0xFF):
            bad = bytearray(raw)
            bad[byte] ^= mask
            ckpt.write_bytes(bytes(bad))
            code = main(["eval", "--checkpoint", str(ckpt), "--pack", str(pack)])
            err = capsys.readouterr().err.splitlines()
            assert code in (EXIT_OK, EXIT_VALIDATION)
            if byte in (7, 11) or byte >= 12:
                assert code == EXIT_VALIDATION
            if code == EXIT_VALIDATION:
                assert len(err) == 1 and err[0].startswith("error:"), err

    @pytest.mark.parametrize("first", [b"x", b"\xff"], ids=["not-json", "not-utf8"])
    def test_manifest_not_json(self, pack, ckpt, capsys, first):
        """A manifest whose first byte is not JSON, or not UTF-8: one line
        naming the pack."""
        raw = bytearray(pack.read_bytes())
        raw[8:9] = first
        pack.write_bytes(bytes(raw))
        err = self._eval_error(pack, ckpt, capsys)
        assert err.startswith(f"error: {pack}: malformed manifest: "), err

    @pytest.mark.parametrize("key", ["query_id", "present", "gt_boxes"])
    def test_episode_entry_missing_key(self, pack, ckpt, capsys, key):
        _edit_manifest(pack, lambda man: man["episodes"][0].pop(key))
        assert "malformed manifest" in self._eval_error(pack, ckpt, capsys)

    @pytest.mark.parametrize("value", [float("inf"), 2**64, 0, -1, "32", 32.0, True])
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
        err = self._eval_error(pack, ckpt, capsys)
        assert err.startswith(f"error: {pack}: episode 0: ") and "not candidate classes" in err

    @pytest.mark.parametrize("update", [{"format": True}, {"format": 1.0}, None],
                             ids=["format-true", "format-float", "not-an-object"])
    def test_unsupported_format(self, pack, ckpt, capsys, update):
        """A manifest whose format is not the JSON integer 1, or that is
        not a JSON object."""
        raw = pack.read_bytes()
        (mlen,) = struct.unpack("<I", raw[4:8])
        man = {**json.loads(raw[8 : 8 + mlen]), **update} if update else [1]
        blob = json.dumps(man).encode()
        pack.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + mlen :])
        assert "unsupported pack format" in self._eval_error(pack, ckpt, capsys)

    @pytest.mark.parametrize("case", LABEL_ERRORS)
    def test_malformed_label(self, pack, ckpt, capsys, case):
        """A label that would crash eval or be read as another label: a
        query id that is not a string or repeats another episode's (ground
        truth is keyed by it), an infinite box coordinate (Python's json
        reads Infinity), and a present class p + 0.5 or a gt_boxes key "0p",
        which int() reads as p. A present class without ground-truth boxes
        has nothing to match. Each error names the pack first."""
        def edit(man):
            first, second = man["episodes"][:2]
            key = next(iter(first["gt_boxes"]))
            if case == "query-id-list":
                first["query_id"] = [1]
            elif case == "query-id-repeated":
                second["query_id"] = first["query_id"]
            elif case == "box-infinite":
                first["gt_boxes"][key][0][2] = math.inf
            elif case == "present-fraction":
                first["present"][0] += 0.5
            elif case == "present-without-boxes":
                first["present"].append(min(set(range(man["num_classes"]))
                                            - set(first["present"])))
            elif case == "box-for-absent-class":
                absent = min(set(range(man["num_classes"])) - set(first["present"]))
                first["gt_boxes"][str(absent)] = [[0.0, 0.0, 1.0, 1.0]]
            elif case == "box-strings":
                first["gt_boxes"][key][0] = ["1", "1", "3", "3"]
            elif case == "box-bool":
                first["gt_boxes"][key][0] = [True, 1, 3, 3]
            elif case == "present-string":
                first["present"][0] = str(first["present"][0])
            elif case == "shots-fraction":
                man["k"] += 0.7
            elif case == "shots-string":
                man["k"] = str(man["k"])
            elif case == "classes-float":
                man["num_classes"] = float(man["num_classes"])
            elif case == "query-grid-fractions":
                h, w = man["levels"]["L4"]["query_grid"]
                man["levels"]["L4"]["query_grid"] = [h + 0.9, w + 0.2]
            else:
                first["gt_boxes"]["0" + key] = first["gt_boxes"].pop(key)

        _edit_manifest(pack, edit)
        err = self._eval_error(pack, ckpt, capsys)
        assert err.startswith(f"error: {pack}: ") and LABEL_ERRORS[case] in err

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
        """An eps word other than float32(ScoreModel.eps), the one train
        writes, exits 1 with one error line naming the file."""
        raw = bytearray(ckpt.read_bytes())
        for eps in (0.0, -1e-5, float("nan"), float("inf"), 2e-5):
            raw[12:16] = struct.pack("<f", eps)
            ckpt.write_bytes(bytes(raw))
            err = self._eval_error(pack, ckpt, capsys)
            assert err.startswith(f"error: {ckpt}: ") and "eps" in err, err

    @pytest.mark.parametrize("command", ["eval", "bench"])
    @pytest.mark.parametrize("case", ["hidden-zero", "fusion-zero", "fusion-l2-narrow"])
    def test_width_train_cannot_write(self, pack, ckpt, capsys, case, command):
        """A scorer of hidden width 0, fusion levels of output width 0, or
        an L2 projection 10 wide against the others' 64: the load rejects
        each, naming the file, before a score or a fused map is computed."""
        if case == "hidden-zero":
            raw = ckpt.read_bytes()
            c, hidden, eps = struct.unpack("<IIf", raw[4:16])
            b2 = 16 + 4 * hidden * (2 * c + 3)
            ckpt.write_bytes(raw[:4] + struct.pack("<IIf", c, 0, eps) + raw[b2:])
            want = "hidden width"
        else:
            model, proj = load_checkpoint(ckpt)
            for lv in (Level.L2,) if case == "fusion-l2-narrow" else proj.weights:
                rows = 10 if case == "fusion-l2-narrow" else 0
                proj.weights[lv] = proj.weights[lv][:rows]
                proj.biases[lv] = proj.biases[lv][:rows]
            save_checkpoint(ckpt, model, proj)
            want = "fusion output widths"
        code = main([command, "--checkpoint", str(ckpt), "--pack", str(pack), "--top-n", "3"])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: {ckpt}: ") and want in err, err

    @pytest.mark.parametrize("command", ["eval", "bench"])
    @pytest.mark.parametrize("case", ["l2-takes-10", "scorer-c-32"])
    def test_checkpoint_widths_against_pack(self, pack, ckpt, monkeypatch, capsys, case,
                                            command):
        """A checkpoint whose L2 projection takes 10 channels, or whose
        scorer takes C = 32, against the pack's 16 and 64: one error line
        naming both files, before the first query."""
        model, proj = load_checkpoint(ckpt)
        if case == "l2-takes-10":
            proj.weights[Level.L2] = proj.weights[Level.L2][:, :10]
        else:
            model = ScoreModel.init(32, hidden=16)
        save_checkpoint(ckpt, model, proj)
        queries = []
        for name in ("evaluate", "run_inference"):
            monkeypatch.setattr(f"preselect.cli.{name}", lambda *a, **k: queries.append(a))
        code = main([command, "--checkpoint", str(ckpt), "--pack", str(pack), "--top-n", "3"])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION and queries == []
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert str(ckpt) in err and str(pack) in err, err

    @pytest.mark.parametrize("command", ["eval", "bench"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("blob", ["w1", "b2", "projector"])
    def test_nonfinite_checkpoint_weight(self, pack, ckpt, capsys, blob, value, command):
        """A NaN or inf weight is rejected at load, naming its byte offset,
        before any score is computed from it."""
        model, proj = load_checkpoint(ckpt)
        target = {"w1": model.w1, "b2": model.b2, "projector": proj.weights[Level.L3]}[blob]
        target.flat[1] = value
        save_checkpoint(ckpt, model, proj)
        offset = ckpt.read_bytes().index(np.float32(value).tobytes())
        code = main([command, "--checkpoint", str(ckpt), "--pack", str(pack),
                     "--top-n", "3"])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert f"non-finite value {value} at byte {offset}" in err


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["eval", "--checkpoint", "m.ckpt", "--pack", "p.epk", "--top-n", "abc"],
        ["eval", "--checkpoint", "m.ckpt"],
        ["detect", "--pack", "p.epk"],
        ["gen", "--colors", "3", "-o", "p.epk"],
        ["gen", "--seed", "-1", "-o", "p.epk"],
        ["train", "--pack", "p.epk", "--seed", "-1", "-o", "m.ckpt"],
    ], ids=["bad-int", "missing-required", "unknown-command", "unknown-flag",
            "gen-seed-negative", "train-seed-negative"])
    def test_usage_error_is_validation_error(self, tmp_path, monkeypatch, capsys, args):
        """A command line argparse rejects exits 1 with one error line
        naming the command, no usage block, and nothing on stdout."""
        monkeypatch.chdir(tmp_path)
        code = main(args)
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: preselect"), err
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_negative_seed_rejected_while_parsing(self, tmp_path, monkeypatch, capsys,
                                                  command):
        """--seed -1, which numpy's generators reject, exits 1 with one line
        naming --seed, before gen makes an episode or train reads its
        pack, and writes nothing."""
        def unreachable(*args):
            raise AssertionError(f"ran {command} before checking --seed")

        monkeypatch.setattr(pack_io, "read_pack", unreachable)
        monkeypatch.setattr(cli, "synth_episodes", unreachable)
        out = tmp_path / "out"
        code = main([command, "--pack", "p.epk", "--seed", "-1", "-o", str(out)]
                    if command == "train" else [command, "--seed", "-1", "-o", str(out)])
        stdout, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert stdout == ""
        assert err == f"error: preselect {command}: argument --seed: must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("args,flag", [
        (["eval", "--iou", "0"], "--iou"),
        (["eval", "--iou", "1"], "--iou"),
        (["eval", "--top-n", "0"], "--top-n"),
        (["eval", "--strategy", "adaptive", "--threshold", "1.5"], "--threshold"),
        (["bench", "--top-n", "0"], "--top-n"),
        (["bench", "--strategy", "adaptive", "--threshold", "-0.1"], "--threshold"),
    ], ids=["eval-iou-zero", "eval-iou-one", "eval-top-n-zero", "eval-threshold-above-one",
            "bench-top-n-zero", "bench-threshold-negative"])
    def test_option_rejected_before_any_read(self, monkeypatch, capsys, args, flag):
        """eval and bench check their selection and IoU options before they
        load the checkpoint or read the pack, as train checks its configs."""
        def unreachable(path):
            raise AssertionError(f"read {path} before checking the options")

        monkeypatch.setattr(checkpoint, "load_checkpoint", unreachable)
        monkeypatch.setattr(pack_io, "read_pack", unreachable)
        code = main(args + ["--checkpoint", "m.ckpt", "--pack", "p.epk"])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} "), err


class TestClosedStdout:
    class _ClosedPipe(io.TextIOBase):
        """A stdout whose reader has exited: every write raises, as a write
        to such a pipe does. Its file descriptor is a temporary file's."""

        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_closed_stdout_exits_like_sigpipe(self, tmp_path, pack, ckpt, monkeypatch, capsys,
                                              command):
        """A reader that has gone ends the command with exit 141 and
        nothing on stderr, and stdout's descriptor then points at devnull,
        so the interpreter's last flush has nothing to report."""
        capsys.readouterr()
        path = tmp_path / "stdout"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", self._ClosedPipe(fd))
            code = main([command, "--checkpoint", str(ckpt), "--pack", str(pack),
                         "--top-n", "3"])
            os.write(fd, b"after")
        finally:
            os.close(fd)
        assert code == EXIT_CLOSED_PIPE == 141
        assert capsys.readouterr().err == ""
        assert path.read_bytes() == b""


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
        {"threshold": [1]},  # a list is no command-line value
        {"top_k": 3},       # no command has --top-k
        {"seed": -1},       # --seed -1 is below 0
        b'{"top_n": 3,}',   # not JSON
        b"\xff",            # not UTF-8
    ], ids=["list", "string", "float-for-int", "text-for-int", "list-value", "unknown-key",
            "negative-seed", "not-json", "not-utf8"])
    def test_malformed_config_rejected(self, tmp_path, pack, ckpt, capsys, config):
        """Each case exits 1 with one error line naming the file and prints
        nothing, before any command runs. Bytes are the file as written."""
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        code = main(["--config", str(cfg), "eval", "--checkpoint", str(ckpt),
                     "--pack", str(pack)])
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {cfg}"), err

    def test_config_supplies_required_options(self, tmp_path, pack, ckpt, capsys):
        """--pack and --checkpoint of eval, and -o of gen, may come from the
        file alone; the run prints what the flags print, config hash
        included. A flag still wins over the file's value."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"pack": str(pack), "checkpoint": str(ckpt)}))
        eval_flags = ["eval", "--checkpoint", str(ckpt), "--pack", str(pack)]
        capsys.readouterr()
        outs = []
        for argv in (eval_flags, ["--config", str(cfg), "eval"],
                     ["--config", str(cfg), *eval_flags]):
            assert main(argv) == EXIT_OK
            outs.append(capsys.readouterr().out.splitlines()[0])
        assert outs[0] == outs[1] == outs[2]
        cfg.write_text(json.dumps({"pack": str(tmp_path / "none.epk"), "checkpoint": str(ckpt)}))
        assert main(["--config", str(cfg), "eval", "--pack", str(pack)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == outs[0]

        a, b = tmp_path / "a.epk", tmp_path / "b.epk"
        cfg.write_text(json.dumps({"output": str(b)}))
        assert main(GEN_ARGS + ["-o", str(a)]) == EXIT_OK
        assert main(["--config", str(cfg)] + GEN_ARGS) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("config ") and lines[0] == lines[2]
        assert a.read_bytes() == b.read_bytes()

    def test_config_value_parsed_as_flag(self, tmp_path, pack, ckpt, capsys):
        """A string value takes the option's type, as on the command line:
        "6" for --top-n keeps all 6 classes, so minor AP equals full AP."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_n": "6", "strategy": "topn"}))
        assert main(["--config", str(cfg), "eval", "--checkpoint", str(ckpt),
                     "--pack", str(pack)]) == EXIT_OK
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["ap_minor"] == record["ap_full"]

    @pytest.mark.parametrize("where", [["--config", "{cfg}"], ["--config={cfg}"]],
                             ids=["separate", "joined"])
    @pytest.mark.parametrize("flags", [[], ["--checkpoint", "{ckpt}", "--pack", "{pack}"]],
                             ids=["from-file", "with-flags"])
    def test_config_after_command_says_where_it_goes(self, tmp_path, pack, ckpt, capsys,
                                                     where, flags):
        """--config after the command exits 1 with one line that says it
        must come before the command, whether or not the file's options are
        also given as flags, and prints nothing."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"pack": str(pack), "checkpoint": str(ckpt)}))
        argv = [a.format(cfg=cfg, ckpt=ckpt, pack=pack) for a in ["eval", *flags, *where]]
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: preselect: --config must come before the command, "
                       "as in: preselect --config FILE eval ...\n")

    def test_config_hash_ignores_paths(self, tmp_path, capsys):
        """gen's config hash depends on its option values only: not on -o,
        nor on whether the values came from --config."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"classes": 6, "episodes": 2}))
        runs = [["gen", "--classes", "6", "--episodes", "2", "-o", str(tmp_path / "a.epk")],
                ["gen", "--classes", "6", "--episodes", "2", "-o", str(tmp_path / "b.epk")],
                ["--config", str(cfg), "gen", "-o", str(tmp_path / "c.epk")],
                ["gen", "--classes", "7", "--episodes", "2", "-o", str(tmp_path / "d.epk")]]
        lines = []
        for argv in runs:
            assert main(argv) == EXIT_OK
            lines.append(capsys.readouterr().out.splitlines()[0])
        assert lines[0].startswith("config ")
        assert lines[0] == lines[1] == lines[2] != lines[3]

    def test_eval_config_hash_ignores_outputs(self, tmp_path, pack, ckpt, capsys):
        """--report and --recall-csv leave eval's config hash as it is."""
        base = ["eval", "--checkpoint", str(ckpt), "--pack", str(pack)]
        hashes = []
        for extra in ([], ["--report", str(tmp_path / "r.json"),
                           "--recall-csv", str(tmp_path / "r.csv")]):
            assert main(base + extra) == EXIT_OK
            hashes.append(json.loads(capsys.readouterr().out.splitlines()[0])["config"])
        assert hashes[0] == hashes[1]

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

    def test_one_class_pack_hint(self, tmp_path, capsys):
        """On a one-class pack TopN keeps the class whatever --top-n is, so
        the error names a threshold instead, and that setting runs."""
        pack, ckpt = tmp_path / "one.epk", tmp_path / "one.ckpt"
        assert main(["gen", "--classes", "1", "--present", "1", "--episodes", "4",
                     "--shots", "2", "-o", str(pack)]) == EXIT_OK
        assert main(TRAIN_ARGS + ["--pack", str(pack), "-o", str(ckpt)]) == EXIT_OK
        capsys.readouterr()
        bench = ["bench", "--checkpoint", str(ckpt), "--pack", str(pack)]
        assert main(bench) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert "kept all 1 classes" in err and "--strategy adaptive" in err
        assert "--top-n must be below" not in err
        assert main(bench + ["--strategy", "adaptive", "--threshold", "1"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1
