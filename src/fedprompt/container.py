"""Binary checkpoint container.

A little-endian layout: the four-byte magic, a format version, a tensor
count, then each tensor as a length-prefixed name, a rank, the dims, and
the raw float64 values, and finally a length-prefixed UTF-8 echo of the
experiment configuration.  Tensors are written in lexicographic name
order so identical contents produce identical bytes.  Any other magic,
such as that of the retired embedding-world files (FTPE), is refused.

load_checkpoint parses the whole file before returning anything, so a
truncated or corrupt file raises FormatError with the failing byte
offset and no partial state escapes.  save_checkpoint writes to a temp
file in the checkpoint's own directory and renames it over the
checkpoint, for the same reason.  The temp file is <checkpoint>.<n>.tmp
with the first n free at the time, created exclusively, so it is never
a file that already existed: two saves to one path never share it, and
no file other than the checkpoint is replaced.  A failed save removes
its own temp file; one left by a crashed process is skipped by later
saves, never touched.
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


def save_checkpoint(path, params: ParameterSet, config_text: str) -> None:
    """Write params and the config echo to path, whole or not at all.

    The container goes piece by piece to this call's own temp file, then
    is renamed over path.  Each tensor's values go out as one
    little-endian C-order buffer, which for a Parameter's value is the
    array's own memory, not a copy.
    """
    n = 0
    while True:
        tmp = f"{path}.{n}.tmp"
        try:
            # mode 0o666 less the umask, as open(path, "wb") would give
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            n += 1
    try:
        with open(fd, "wb") as f:
            items = params.items()
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", CONTAINER_VERSION, len(items)))
            for name, p in items:
                name_b = name.encode("utf-8")
                f.write(struct.pack("<I", len(name_b)) + name_b)
                f.write(struct.pack(f"<I{len(p.shape)}I", len(p.shape), *p.shape))
                # only the buffer is taken from here: ascontiguousarray
                # promotes rank 0 to rank 1, so the shape comes from p
                f.write(np.ascontiguousarray(p.value, dtype="<f8").data)
            config_b = config_text.encode("utf-8")
            f.write(struct.pack("<I", len(config_b)) + config_b)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n: int, what: str) -> memoryview:
        """The next n bytes, as a view that copies nothing."""
        if self.pos + n > len(self.data):
            raise FormatError(f"file truncated while reading {what}", offset=self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> tuple[ParameterSet, str]:
    """Parse the whole file at path, returning its parameters and config
    echo, or raise FormatError at the first bad byte."""
    with open(path, "rb") as f:
        r = _Reader(f.read())

    got_magic = bytes(r.take(4, "magic"))
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
            name = str(r.take(name_len, "tensor name"), "utf-8")
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
        # the one copy: the file's bytes decoded into a native float64 array
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"non-finite values in tensor {name!r}", offset=data_at)
        arrays[name] = arr

    at = r.pos
    config_len = r.u32("config length")
    if config_len > _MAX_CONFIG_LEN:
        raise FormatError(f"implausible config length {config_len}", offset=at)
    try:
        config_text = str(r.take(config_len, "config echo"), "utf-8")
    except UnicodeDecodeError:
        raise FormatError("config echo is not valid UTF-8", offset=at) from None
    if r.pos != len(r.data):
        raise FormatError(
            f"{len(r.data) - r.pos} trailing bytes after config echo", offset=r.pos
        )
    # every check has passed, so each array is adopted, not copied again
    params = ParameterSet([Parameter(name, arr, copy=False) for name, arr in arrays.items()])
    return params, config_text
