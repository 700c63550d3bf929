"""Deterministic, platform-stable RNG streams.

Every stochastic draw in the simulator and trainer comes from a stream keyed
by labeled parts, so replaying any (seed, id, purpose) tuple reproduces the
exact draw regardless of call order, worker count, or platform hash state.

Seeding: the parts hash (sha256) to a 64-bit `stream_seed`, and `det_rng`
returns a PCG64 `Generator` in exactly the state `np.random.default_rng` gives
that seed. numpy derives that state through `SeedSequence`; `det_rng` hands
PCG64 a `StreamSeed`, which computes the same four seed words with
straight-line integer code in about three quarters of the time. A stream
whose seed words PCG64 reads from `StreamSeed` cannot spawn:
`Generator.spawn` raises TypeError. Nothing in the program spawns; a part
that needs another stream keys its own.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence


def stream_seed(*parts) -> int:
    key = "|".join(map(str, parts))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class StreamSeed(ISeedSequence):
    """`SeedSequence(seed)` for one 64-bit seed, as far as PCG64 asks."""

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = seed

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            return SeedSequence(self.seed).generate_state(n_words, dtype)
        return _pcg64_words(self.seed)


def _pcg64_words(seed: int) -> np.ndarray:
    """`SeedSequence(seed).generate_state(4, np.uint64)` for 0 <= seed < 2**64.

    numpy's algorithm, unrolled over uint32 words held in Python ints:
    `mix_entropy` hashes the entropy words [lo, hi] into a pool of four
    (a seed below 2**32 has the single word [lo], but hashing hi = 0 into
    the pool slot gives the same word), mixes every pool word into every
    other, and `generate_state` hashes the pool twice round into eight
    uint32 words, paired low word first. Each `hashmix` step k is
    t = ((v ^ A_k) * A_{k+1}) mod 2**32, then t ^ t >> 16, with
    A_k = 0x43B0D7E5 * 0x931E8875**k; `mix(x, y)` is
    r = (0xCA01F9DD * x - 0x4973F715 * y) mod 2**32, then r ^ r >> 16; the
    output hash uses B_i = 0x8B51F9DD * 0x58F38DED**i the same way. Pool
    words 2 and 3 start as the constants hashmix(0) at steps 2 and 3, and
    0x5228666D and 0x74577501 are 0xCA01F9DD times them. No loop: the same
    steps looped over constant tables take about half again as long.
    """
    t = (((seed & 0xFFFFFFFF) ^ 0x43B0D7E5) * 0xAE5A53A9) & 0xFFFFFFFF
    m0 = t ^ t >> 16
    t = (((seed >> 32) ^ 0xAE5A53A9) * 0x8488043D) & 0xFFFFFFFF
    m1 = t ^ t >> 16
    # mix pool word 0 into words 1, 2 and 3 (hashmix steps 4-6)
    t = ((m0 ^ 0x9205B1D5) * 0xE9096E59) & 0xFFFFFFFF
    t = (0xCA01F9DD * m1 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m1 = t ^ t >> 16
    t = ((m0 ^ 0xE9096E59) * 0x8D5CB6AD) & 0xFFFFFFFF
    t = (0x5228666D - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m2 = t ^ t >> 16
    t = ((m0 ^ 0x8D5CB6AD) * 0x9BB16511) & 0xFFFFFFFF
    t = (0x74577501 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m3 = t ^ t >> 16
    # word 1 into words 0, 2 and 3 (steps 7-9)
    t = ((m1 ^ 0x9BB16511) * 0x00C238C5) & 0xFFFFFFFF
    t = (0xCA01F9DD * m0 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m0 = t ^ t >> 16
    t = ((m1 ^ 0x00C238C5) * 0x4D029A09) & 0xFFFFFFFF
    t = (0xCA01F9DD * m2 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m2 = t ^ t >> 16
    t = ((m1 ^ 0x4D029A09) * 0xCC132E1D) & 0xFFFFFFFF
    t = (0xCA01F9DD * m3 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m3 = t ^ t >> 16
    # word 2 into words 0, 1 and 3 (steps 10-12)
    t = ((m2 ^ 0xCC132E1D) * 0x83A97B41) & 0xFFFFFFFF
    t = (0xCA01F9DD * m0 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m0 = t ^ t >> 16
    t = ((m2 ^ 0x83A97B41) * 0xFA8DDCB5) & 0xFFFFFFFF
    t = (0xCA01F9DD * m1 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m1 = t ^ t >> 16
    t = ((m2 ^ 0xFA8DDCB5) * 0xAC4C06B9) & 0xFFFFFFFF
    t = (0xCA01F9DD * m3 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m3 = t ^ t >> 16
    # word 3 into words 0, 1 and 2 (steps 13-15)
    t = ((m3 ^ 0xAC4C06B9) * 0x26FF5A8D) & 0xFFFFFFFF
    t = (0xCA01F9DD * m0 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m0 = t ^ t >> 16
    t = ((m3 ^ 0x26FF5A8D) * 0x0E554A71) & 0xFFFFFFFF
    t = (0xCA01F9DD * m1 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m1 = t ^ t >> 16
    t = ((m3 ^ 0x0E554A71) * 0x78C50DA5) & 0xFFFFFFFF
    t = (0xCA01F9DD * m2 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    m2 = t ^ t >> 16
    # output hash: uint32 word i comes from pool word i % 4 (B_0 .. B_8)
    t = ((m0 ^ 0x8B51F9DD) * 0x464A0A99) & 0xFFFFFFFF
    u = ((m1 ^ 0x464A0A99) * 0x819D14A5) & 0xFFFFFFFF
    w0 = t ^ t >> 16 | (u ^ u >> 16) << 32
    t = ((m2 ^ 0x819D14A5) * 0xD369FDC1) & 0xFFFFFFFF
    u = ((m3 ^ 0xD369FDC1) * 0x501638AD) & 0xFFFFFFFF
    w1 = t ^ t >> 16 | (u ^ u >> 16) << 32
    t = ((m0 ^ 0x501638AD) * 0xA600C129) & 0xFFFFFFFF
    u = ((m1 ^ 0xA600C129) * 0x8B0167F5) & 0xFFFFFFFF
    w2 = t ^ t >> 16 | (u ^ u >> 16) << 32
    t = ((m2 ^ 0x8B0167F5) * 0x5C1E2ED1) & 0xFFFFFFFF
    u = ((m3 ^ 0x5C1E2ED1) * 0x301D747D) & 0xFFFFFFFF
    w3 = t ^ t >> 16 | (u ^ u >> 16) << 32
    return np.array((w0, w1, w2, w3), dtype=np.uint64)


def det_rng(*parts) -> np.random.Generator:
    """The stream keyed by parts: `np.random.default_rng(stream_seed(*parts))`."""
    return Generator(PCG64(StreamSeed(stream_seed(*parts))))
