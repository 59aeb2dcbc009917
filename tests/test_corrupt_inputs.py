"""Property tests of the readers through the CLI: a pack (EPK1) or a
checkpoint (TPF1) cut at any offset, or with any one byte flipped, never
gives a traceback. A cut file exits 1 with one `error:` line naming it; a
flipped byte exits 0, or 1 with one `error:` line naming the file. A NaN
map value in a pack exits 1 with one line that names the pack, the episode
and the value's offset.

The examples are derandomized and bounded, so a run is deterministic and
takes about two seconds.
"""

import contextlib
import io
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from preselect.cli import EXIT_OK, EXIT_VALIDATION, main  # noqa: E402

EXAMPLES = settings(max_examples=60, derandomize=True, deadline=None, database=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A one-episode pack and a checkpoint trained on it: per file, its
    path, its bytes and the offset where its bulk float data begins."""
    d = tmp_path_factory.mktemp("corrupt")
    pack, ckpt = d / "pack.epk", d / "model.ckpt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--classes", "3", "--present", "1", "--episodes", "1",
                     "--shots", "1", "--seed", "0", "-o", str(pack)]) == EXIT_OK
        assert main(["train", "--phases", "tpf", "--epochs", "1", "--hidden", "4",
                     "--pack", str(pack), "-o", str(ckpt)]) == EXIT_OK
    raw_pack, raw_ckpt = pack.read_bytes(), ckpt.read_bytes()
    (mlen,) = struct.unpack("<I", raw_pack[4:8])
    return {
        "pack": (pack, raw_pack, 8 + mlen + 16),  # magic, manifest, first header
        "checkpoint": (ckpt, raw_ckpt, 16),        # magic, dims, eps
    }


def _case(files, target):
    """The path that _eval writes target's changed bytes to."""
    return files[target][0].with_name(f"case-{target}")


def _eval(files, target, data):
    """Run eval with target's bytes replaced by data and the other file as
    made; (exit code, stderr lines)."""
    paths = {name: path for name, (path, _, _) in files.items()}
    paths[target] = _case(files, target)
    paths[target].write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--checkpoint", str(paths["checkpoint"]),
                     "--pack", str(paths["pack"])])
    return code, err.getvalue().splitlines()


def _offsets(files, target):
    """Offsets over the whole file, half of them drawn from its headers."""
    _, raw, header_end = files[target]
    return st.one_of(st.integers(0, header_end - 1), st.integers(0, len(raw) - 1))


@pytest.mark.parametrize("target", ["pack", "checkpoint"])
def test_truncated_anywhere(files, target):
    @EXAMPLES
    @given(cut=_offsets(files, target))
    def check(cut):
        code, err = _eval(files, target, files[target][1][:cut])
        assert code == EXIT_VALIDATION
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert str(_case(files, target)) in err[0], err

    check()


@pytest.mark.parametrize("target", ["pack", "checkpoint"])
def test_flipped_byte_anywhere(files, target):
    @EXAMPLES
    @given(offset=_offsets(files, target), mask=st.integers(1, 255))
    def check(offset, mask):
        data = bytearray(files[target][1])
        data[offset] ^= mask
        code, err = _eval(files, target, bytes(data))
        assert code in (EXIT_OK, EXIT_VALIDATION)
        if code == EXIT_VALIDATION:
            assert len(err) == 1 and err[0].startswith("error:"), err
            assert str(_case(files, target)) in err[0], err

    check()


@pytest.mark.parametrize("where", ["query", "support"])
def test_non_finite_map_value_named(files, where):
    """A NaN in a map is one `error:` line naming the pack, the episode and
    the value's byte offset: the first query value, or the last support
    value."""
    path, raw, first_value = files["pack"]
    offset = first_value if where == "query" else len(raw) - 4
    data = bytearray(raw)
    data[offset : offset + 4] = struct.pack("<f", float("nan"))
    code, err = _eval(files, "pack", bytes(data))
    assert code == EXIT_VALIDATION
    assert err == [f"error: {path.with_name('case-pack')}: episode 0: "
                   f"non-finite value nan at byte {offset}"]
