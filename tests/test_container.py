"""Container format tests: round trips, byte stability, private temp
files, corruption rejection."""

import os
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedprompt import container
from fedprompt.autograd import Parameter, ParameterSet
from fedprompt.container import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
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
        real_replace = os.replace
        renamed = []

        def recording_replace(src, dst):
            renamed.append((Path(src), Path(src).read_bytes(), dst))
            real_replace(src, dst)

        monkeypatch.setattr(container.os, "replace", recording_replace)
        save_checkpoint(path, small_params(), "")
        [(src, written, dst)] = renamed
        assert dst == path
        assert src.parent == tmp_path and src != path
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == written

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
        params = ParameterSet([
            Parameter("b", grid[:, ::2]),  # strided, not C-contiguous
            Parameter("a", np.array(-1.5)),  # rank 0
            Parameter("c", np.asfortranarray(grid[:2, :2]).astype(">f8")),
        ])
        path = tmp_path / "exact.ftpg"
        save_checkpoint(path, params, "k=v\n")
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
        loaded, _ = load_checkpoint(path)
        assert loaded["a"].shape == ()

    def test_failed_tensor_write_removes_temp_file(self, tmp_path, monkeypatch):
        # the first tensor outgrows the write buffer, so the temp file
        # holds bytes when the second one fails
        params = ParameterSet([Parameter("a", np.ones(4096)), Parameter("b", np.ones(2))])
        real = np.ascontiguousarray
        held = []

        def failing(arr, dtype=None):
            if arr is params["b"].value:
                held.extend(p.stat().st_size for p in tmp_path.iterdir())
                raise OSError("disk full")
            return real(arr, dtype=dtype)

        monkeypatch.setattr(container.np, "ascontiguousarray", failing)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tmp_path / "f.ftpg", params, "")
        assert len(held) == 1 and held[0] >= 8 * 4096
        assert list(tmp_path.iterdir()) == []

    def test_empty_container(self, tmp_path):
        path = tmp_path / "empty.ftpg"
        save_checkpoint(path, ParameterSet([]), "nothing=here\n")
        params, config_text = load_checkpoint(path)
        assert params.schema() == ()
        assert config_text == "nothing=here\n"


class TestPrivateTempFile:
    """A save writes only through a temp file it created itself."""

    def test_existing_temp_names_untouched(self, tmp_path):
        path = tmp_path / "m.ftpg"
        decoys = {tmp_path / "m.ftpg.tmp": b"keep", tmp_path / "m.ftpg.0.tmp": b"keep 0"}
        for decoy, data in decoys.items():
            decoy.write_bytes(data)
        save_checkpoint(path, small_params(), "")
        save_checkpoint(path, small_params(), "again\n")
        assert sorted(tmp_path.iterdir()) == sorted([path, *decoys])
        assert {d: d.read_bytes() for d in decoys} == decoys
        assert load_checkpoint(path)[1] == "again\n"

    def test_interleaved_saves_to_one_path(self, tmp_path, monkeypatch):
        # save B runs whole inside save A's rename: each has its own temp
        # file, so both finish and the last rename, A's, wins
        path = tmp_path / "m.ftpg"
        real_replace = os.replace
        a_bytes = []

        def replace_after_b(src, dst):
            monkeypatch.setattr(container.os, "replace", real_replace)
            a_bytes.append(Path(src).read_bytes())
            save_checkpoint(path, small_params(), "b\n")
            real_replace(src, dst)

        monkeypatch.setattr(container.os, "replace", replace_after_b)
        save_checkpoint(path, small_params(), "a\n")
        assert list(tmp_path.iterdir()) == [path]
        assert [path.read_bytes()] == a_bytes
        assert load_checkpoint(path)[1] == "a\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_follows_umask(self, tmp_path, umask):
        # the mode open(path, "wb") gives a new file
        path = tmp_path / "m.ftpg"
        old = os.umask(umask)
        try:
            save_checkpoint(path, small_params(), "")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    @settings(max_examples=30, deadline=None)
    @given(
        existing=st.dictionaries(
            st.sampled_from(
                ["m.ftpg", "m.ftpg.tmp", *(f"m.ftpg.{k}.tmp" for k in range(4))]
            ),
            st.binary(max_size=64),
        ),
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6
        ),
    )
    def test_only_the_checkpoint_changes(self, existing, values):
        params = ParameterSet([Parameter("w", np.array(values))])
        with tempfile.TemporaryDirectory() as d:
            root = Path(d)
            path = root / "m.ftpg"
            for name, data in existing.items():
                (root / name).write_bytes(data)
            before = {p.name: p.read_bytes() for p in root.iterdir()}
            # a failed save leaves the directory exactly as it was
            failing = mock.patch.object(container.os, "replace", side_effect=OSError("disk full"))
            with failing, pytest.raises(OSError, match="disk full"):
                save_checkpoint(path, params, "k=v\n")
            assert {p.name: p.read_bytes() for p in root.iterdir()} == before

            save_checkpoint(path, params, "k=v\n")
            after = {p.name: p.read_bytes() for p in root.iterdir()}
            assert after.keys() == before.keys() | {"m.ftpg"}
            assert {n: b for n, b in after.items() if n != "m.ftpg"} == {
                n: b for n, b in before.items() if n != "m.ftpg"
            }
            loaded, config_text = load_checkpoint(path)
            assert loaded["w"].value.tobytes() == params["w"].value.tobytes()
            assert config_text == "k=v\n"


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
        save_checkpoint(path, ParameterSet([Parameter("a", np.zeros(2))]), "")
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
