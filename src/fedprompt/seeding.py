"""Deterministic seed derivation.

Every random draw in the package comes from a numpy Generator whose seed
is derived from the experiment master seed plus a label describing the
consumer.  Derivation is a SHA-256 hash over tagged parts, so streams for
different consumers are statistically independent and the mapping is
stable across platforms and Python versions (no reliance on hash()).

rngs_for builds many streams that share a label prefix in one pass: it
hashes the prefix once and runs numpy's SeedSequence mixing for every
seed at once, vectorised over a [4, n] uint32 pool.  Each stream is
bitwise the one rng_for builds.
"""

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF


def _encode(part: int | str) -> bytes:
    if isinstance(part, bool):  # bool is an int subclass; reject to avoid surprises
        raise TypeError("hash64 parts must be int or str, not bool")
    if isinstance(part, int):
        return b"i" + part.to_bytes(8, "little", signed=True)
    if isinstance(part, str):
        data = part.encode("utf-8")
        return b"s" + len(data).to_bytes(4, "little") + data
    raise TypeError(f"hash64 parts must be int or str, got {type(part).__name__}")


def _sha256(parts):
    return hashlib.sha256(b"".join(map(_encode, parts)))


def hash64(*parts: int | str) -> int:
    """Collapse a label tuple into a 64-bit unsigned seed.

    Ints are encoded as 8-byte little-endian two's complement, strings as
    UTF-8.  A one-byte type tag precedes each part so ("a", 1) and ("a1",)
    cannot collide.
    """
    return int.from_bytes(_sha256(parts).digest()[:8], "little")


def rng_for(*parts: int | str) -> np.random.Generator:
    """Fresh PCG64 generator seeded from the given label parts."""
    return np.random.default_rng(hash64(*parts))


def _powers(init: int, mult: int, n: int) -> np.ndarray:
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# numpy's SeedSequence constants.  Each hashmix step XORs with one hash
# constant and multiplies by the next, and the constants advance by a fixed
# multiplier whatever the data, so every step's pair is known in advance:
# A for the 16 steps that mix a 4-word pool, B for the 8 output words.
_HASH_A = _powers(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _mixing_constants(src: int) -> tuple[np.ndarray, np.ndarray]:
    # source word src is hashed once for each other pool word, in order
    xor, mul = np.zeros((2, 4, 1), dtype=np.uint32)
    dsts = [d for d in range(4) if d != src]
    step = 4 + 3 * src
    xor[dsts] = _HASH_A[step : step + 3]
    mul[dsts] = _HASH_A[step + 1 : step + 4]
    return xor, mul


_MIXING = [_mixing_constants(src) for src in range(4)]


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mul
    words ^= words >> 16
    return words


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """[n, 4] uint64: SeedSequence(s).generate_state(4, np.uint64) for each
    of n uint64 seeds s, the words PCG64 is seeded with.

    A seed's entropy is its 32-bit words [lo, hi]; SeedSequence drops a
    zero hi word, which hashes like the zero padding of its 4-word pool.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[:2] = seeds & _MASK32, seeds >> 32
    pool = _hashmix(pool, _HASH_A[:4], _HASH_A[1:5])
    for src, (xor, mul) in enumerate(_MIXING):
        # every other word w becomes mix(w, hashmix(word src)); word src stays
        mixed = _MIX_L * pool - _MIX_R * _hashmix(pool[src], xor, mul)
        mixed ^= mixed >> 16
        mixed[src] = pool[src]
        pool = mixed
    words = _hashmix(np.concatenate((pool, pool)), _HASH_B[:8], _HASH_B[1:])
    # pairs of 32-bit words read as little-endian 64-bit words, as numpy does
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """The seed words of one PCG64 stream, computed beforehand."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 seed words, asked for {n_words} {np.dtype(dtype)}")
        return self.words


def rngs_for(*parts: int | str, ids) -> list[np.random.Generator]:
    """[rng_for(*parts, i) for i in ids], bitwise, built in one pass.

    The vectorised pass has a fixed cost of a few streams built by
    rng_for, so a caller with only a handful of streams uses rng_for.
    """
    prefix = _sha256(parts)
    digests = []
    for i in ids:
        h = prefix.copy()
        h.update(_encode(i))
        digests.append(h.digest()[:8])
    seeds = np.frombuffer(b"".join(digests), dtype="<u8")
    return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in _seed_words(seeds)]
