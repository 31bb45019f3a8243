"""Container format tests: round trips, byte stability, corruption rejection."""

import struct

import numpy as np
import pytest

from fedprompt import container
from fedprompt.autograd import Parameter, ParameterSet
from fedprompt.container import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    read_container,
    save_checkpoint,
    temp_path,
    write_container,
)
from fedprompt.errors import FormatError


def small_params():
    rng = np.random.default_rng(0)
    return ParameterSet(
        [
            Parameter("weights", rng.standard_normal((3, 4))),
            Parameter("bias", rng.standard_normal(4)),
            Parameter("gain", np.array(2.5)),  # rank 0
        ]
    )


class TestRoundTrip:
    def test_checkpoint_bitwise(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.ftpg"
        save_checkpoint(path, params, "alpha=1\nbeta=two\n")
        loaded, config_text = load_checkpoint(path)
        assert config_text == "alpha=1\nbeta=two\n"
        assert loaded.schema() == params.schema()
        for name, p in params.items():
            assert np.array_equal(loaded[name].value, p.value)

    def test_identical_content_identical_bytes(self, tmp_path):
        params = small_params()
        a, b = tmp_path / "a.ftpg", tmp_path / "b.ftpg"
        save_checkpoint(a, params, "x=1\n")
        save_checkpoint(b, params, "x=1\n")
        assert a.read_bytes() == b.read_bytes()

    def test_tensors_stored_sorted_by_name(self, tmp_path):
        path = tmp_path / "c.ftpg"
        save_checkpoint(path, small_params(), "")
        raw = path.read_bytes()
        assert raw.find(b"bias") < raw.find(b"gain") < raw.find(b"weights")

    def test_no_temp_file_left(self, tmp_path):
        path = tmp_path / "d.ftpg"
        save_checkpoint(path, small_params(), "")
        assert list(tmp_path.iterdir()) == [path]

    def test_written_through_temp_path(self, tmp_path, monkeypatch):
        path = tmp_path / "g.ftpg"
        renamed = []
        monkeypatch.setattr(container.os, "replace", lambda src, dst: renamed.append((src, dst)))
        save_checkpoint(path, small_params(), "")
        assert renamed == [(temp_path(path), path)]
        assert temp_path(path) == f"{path}.tmp"

    def test_failed_replace_removes_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "e.ftpg"
        save_checkpoint(path, small_params(), "old\n")
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(container.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, small_params(), "new\n")
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_exact_bytes(self, tmp_path):
        grid = np.arange(12.0).reshape(3, 4)
        arrays = {
            "b": grid[:, ::2],  # strided, not C-contiguous
            "a": np.array(-1.5),  # rank 0
            "c": np.asfortranarray(grid[:2, :2]).astype(">f8"),
        }
        path = tmp_path / "exact.ftpg"
        write_container(path, arrays, "k=v\n")
        expected = b"".join([
            b"FTPG", struct.pack("<II", 1, 3),
            struct.pack("<I", 1), b"a", struct.pack("<I", 0), struct.pack("<d", -1.5),
            struct.pack("<I", 1), b"b", struct.pack("<III", 2, 3, 2),
            struct.pack("<6d", 0, 2, 4, 6, 8, 10),
            struct.pack("<I", 1), b"c", struct.pack("<III", 2, 2, 2),
            struct.pack("<4d", 0, 1, 4, 5),
            struct.pack("<I", 4), b"k=v\n",
        ])
        assert path.read_bytes() == expected
        loaded, _ = read_container(path)
        assert loaded["a"].shape == ()

    def test_failed_tensor_write_removes_temp_file(self, tmp_path):
        path = tmp_path / "f.ftpg"
        with pytest.raises(ValueError):
            write_container(path, {"a": np.ones(2), "b": np.array(["x"])}, "")
        assert list(tmp_path.iterdir()) == []

    def test_empty_container(self, tmp_path):
        path = tmp_path / "empty.ftpg"
        write_container(path, {}, "nothing=here\n")
        arrays, config_text = read_container(path)
        assert arrays == {}
        assert config_text == "nothing=here\n"


class TestRejection:
    def make_file(self, tmp_path):
        path = tmp_path / "m.ftpg"
        save_checkpoint(path, small_params(), "k=v\n")
        return path, path.read_bytes()

    def test_wrong_magic(self, tmp_path):
        # the magic of the retired embedding-world files among them
        path, raw = self.make_file(tmp_path)
        path.write_bytes(b"FTPE" + raw[4:])
        with pytest.raises(FormatError, match="bad magic b'FTPE'") as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_unsupported_version(self, tmp_path):
        path, raw = self.make_file(tmp_path)
        bad = raw[:4] + struct.pack("<I", 99) + raw[8:]
        path.write_bytes(bad)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_every_truncation_rejected(self, tmp_path):
        path, raw = self.make_file(tmp_path)
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(FormatError):
                load_checkpoint(path)
        path.write_bytes(raw)
        load_checkpoint(path)  # sanity: untouched bytes still parse

    def test_trailing_garbage_rejected(self, tmp_path):
        path, raw = self.make_file(tmp_path)
        path.write_bytes(raw + b"x")
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == len(raw)

    def test_implausible_tensor_count(self, tmp_path):
        path, raw = self.make_file(tmp_path)
        path.write_bytes(raw[:8] + struct.pack("<I", 2**31) + raw[12:])
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert "tensor count" in str(err.value)

    def test_non_finite_values_rejected(self, tmp_path):
        path = tmp_path / "nan.ftpg"
        write_container(path, {"a": np.zeros(2)}, "")
        raw = bytearray(path.read_bytes())
        # header 12 + name record 5 + rank 4 + one dim 4 = offset 25
        raw[25:33] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 25

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        record = struct.pack("<I", 1) + b"a" + struct.pack("<II", 1, 1) + struct.pack("<d", 0.5)
        body = CHECKPOINT_MAGIC + struct.pack("<II", 1, 2) + record + record
        body += struct.pack("<I", 0)
        path = tmp_path / "dup.ftpg"
        path.write_bytes(body)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert "duplicate" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "absent.ftpg")
