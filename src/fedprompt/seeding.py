"""Deterministic seed derivation.

Every random draw in the package comes from a numpy Generator whose seed
is derived from the experiment master seed plus a label describing the
consumer.  Derivation is a SHA-256 hash over tagged parts, so streams for
different consumers are statistically independent and the mapping is
stable across platforms and Python versions (no reliance on hash()).
"""

import hashlib

import numpy as np


def _encode(part: int | str) -> bytes:
    if isinstance(part, bool):  # bool is an int subclass; reject to avoid surprises
        raise TypeError("hash64 parts must be int or str, not bool")
    if isinstance(part, int):
        return b"i" + part.to_bytes(8, "little", signed=True)
    if isinstance(part, str):
        data = part.encode("utf-8")
        return b"s" + len(data).to_bytes(4, "little") + data
    raise TypeError(f"hash64 parts must be int or str, got {type(part).__name__}")


def hash64(*parts: int | str) -> int:
    """Collapse a label tuple into a 64-bit unsigned seed.

    Ints are encoded as 8-byte little-endian two's complement, strings as
    UTF-8.  A one-byte type tag precedes each part so ("a", 1) and ("a1",)
    cannot collide.
    """
    digest = hashlib.sha256(b"".join(map(_encode, parts))).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(*parts: int | str) -> np.random.Generator:
    """Fresh PCG64 generator seeded from the given label parts."""
    return np.random.default_rng(hash64(*parts))
