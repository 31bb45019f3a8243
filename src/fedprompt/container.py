"""Binary checkpoint container.

A little-endian layout: the four-byte magic, a format version, a tensor
count, then each tensor as a length-prefixed name, a rank, the dims, and
the raw float64 values, and finally a length-prefixed UTF-8 echo of the
experiment configuration.  Tensors are written in lexicographic name
order so identical contents produce identical bytes.  Any other magic,
such as that of the retired embedding-world files (FTPE), is refused.

Readers parse the whole file before returning anything, so a truncated
or corrupt file raises FormatError with the failing byte offset and no
partial state escapes.  Writes go through a temp file (temp_path) and an
atomic rename for the same reason; a failed write removes the temp file.
"""

import contextlib
import os
import struct

import numpy as np

from fedprompt.autograd import Parameter, ParameterSet
from fedprompt.errors import FormatError

CHECKPOINT_MAGIC = b"FTPG"
CONTAINER_VERSION = 1

# plausibility caps; files beyond these are rejected as corrupt rather
# than allowed to drive huge allocations
_MAX_TENSORS = 4096
_MAX_NAME_LEN = 4096
_MAX_RANK = 8
_MAX_ELEMENTS = 50_000_000
_MAX_CONFIG_LEN = 1_000_000


def temp_path(path) -> str:
    """The file a container is written to before it is renamed to path."""
    return f"{path}.tmp"


def write_container(path, arrays: dict[str, np.ndarray], config_text: str) -> None:
    """Write the container straight to a temp file, piece by piece: each
    tensor's values go out as one little-endian C-order buffer, which for
    a float64 C-order array is the array's own memory, not a copy."""
    tmp = temp_path(path)
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", CONTAINER_VERSION, len(arrays)))
            for name in sorted(arrays):
                arr = np.asarray(arrays[name], dtype=np.float64)
                name_b = name.encode("utf-8")
                f.write(struct.pack("<I", len(name_b)) + name_b)
                f.write(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
                # only the buffer is taken from here: ascontiguousarray
                # promotes rank 0 to rank 1, so the shape comes from arr
                f.write(np.ascontiguousarray(arr, dtype="<f8").data)
            config_b = config_text.encode("utf-8")
            f.write(struct.pack("<I", len(config_b)) + config_b)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"file truncated while reading {what}", offset=self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def read_container(path) -> tuple[dict[str, np.ndarray], str]:
    """Parse a container file, returning its tensors and config echo."""
    with open(path, "rb") as f:
        r = _Reader(f.read())

    got_magic = r.take(4, "magic")
    if got_magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {got_magic!r}, expected {CHECKPOINT_MAGIC!r}", offset=0)
    version = r.u32("version")
    if version != CONTAINER_VERSION:
        raise FormatError(f"unsupported container version {version}", offset=4)
    n_tensors = r.u32("tensor count")
    if n_tensors > _MAX_TENSORS:
        raise FormatError(f"implausible tensor count {n_tensors}", offset=8)

    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        at = r.pos
        name_len = r.u32("name length")
        if name_len > _MAX_NAME_LEN:
            raise FormatError(f"implausible name length {name_len}", offset=at)
        try:
            name = r.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("tensor name is not valid UTF-8", offset=at) from None
        if name in arrays:
            raise FormatError(f"duplicate tensor name {name!r}", offset=at)
        rank = r.u32("rank")
        if rank > _MAX_RANK:
            raise FormatError(f"implausible rank {rank} for tensor {name!r}", offset=at)
        dims = tuple(r.u32("dimension") for _ in range(rank))
        n_elem = 1
        for dim in dims:
            n_elem *= dim
        if n_elem > _MAX_ELEMENTS:
            raise FormatError(f"implausible element count {n_elem} for {name!r}", offset=at)
        data_at = r.pos
        raw = r.take(8 * n_elem, f"values of {name!r}")
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"non-finite values in tensor {name!r}", offset=data_at)
        arrays[name] = arr

    at = r.pos
    config_len = r.u32("config length")
    if config_len > _MAX_CONFIG_LEN:
        raise FormatError(f"implausible config length {config_len}", offset=at)
    try:
        config_text = r.take(config_len, "config echo").decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("config echo is not valid UTF-8", offset=at) from None
    if r.pos != len(r.data):
        raise FormatError(
            f"{len(r.data) - r.pos} trailing bytes after config echo", offset=r.pos
        )
    return arrays, config_text


def save_checkpoint(path, params: ParameterSet, config_text: str) -> None:
    write_container(path, {name: p.value for name, p in params.items()}, config_text)


def load_checkpoint(path) -> tuple[ParameterSet, str]:
    arrays, config_text = read_container(path)
    params = ParameterSet([Parameter(name, arr) for name, arr in arrays.items()])
    return params, config_text

