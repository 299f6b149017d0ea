"""Deterministic random-stream derivation.

Every stochastic component in the package draws from a counter-based
generator derived from a root seed plus a path of tags, so independent
components never share a stream and the same (seed, tags) pair always
produces the same sequence regardless of call order elsewhere.

Bulk draws. The streams and their draws stay those of substream and
numpy's calls; these functions only read them in bulk. substream's
Generator is numpy's Philox keyed by
SeedSequence(entropy).generate_state(2, uint64), and Philox is counter
based (Salmon et al., SC 2011), so a stream's words can be read ahead
and decoded. stream_keys runs numpy's SeedSequence hash for many
streams at once, philox_words reads the first raw words of many keyed
streams through one reused Philox, and philox_stream is a key's
Generator. Two decoders turn raw words into numpy's draws: lemire_halves
gives integers(n)'s values and says which Lemire rejects, and uniforms
gives random()'s. draws_agree checks all of this against substream and
numpy's calls once per process; where it fails, callers draw by
substream and the calls.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK_64 = (1 << 64) - 1
_MASK_32 = (1 << 32) - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the
# entropy pool holds 4 words, hashmix runs INIT_A and MULT_A, mix the
# MIX pair, and generate_state INIT_B and MULT_B
_POOL = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715


def _tag_to_int(tag: object) -> int:
    # Stable across processes: never use the builtin hash(), which is
    # salted per interpreter run for str.
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK_64
    digest = hashlib.blake2b(str(tag).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def seed_sequence(seed: int, *tags: object) -> np.random.SeedSequence:
    """Build a SeedSequence for the stream identified by (seed, *tags)."""
    entropy = [_tag_to_int(seed)] + [_tag_to_int(t) for t in tags]
    return np.random.SeedSequence(entropy)


def substream(seed: int, *tags: object) -> np.random.Generator:
    """Return an independent Generator for the stream (seed, *tags).

    Philox is counter based, so streams with distinct tag paths are
    statistically independent and cheap to spawn in any order.
    """
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *tags)))


def stream_seed(seed: int, *tags: object) -> int:
    """Collapse (seed, *tags) into a single 64-bit seed for APIs that take one."""
    return int(seed_sequence(seed, *tags).generate_state(1, np.uint64)[0])


def _words(value: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative int, low word
    first; 0 is one word."""
    words = [value & _MASK_32]
    while value > _MASK_32:
        value >>= 32
        words.append(value & _MASK_32)
    return words


def _constants(init: int, mult: int, n: int) -> np.ndarray:
    """A SeedSequence hash constant and its next n values, each the last
    times mult mod 2**32, as a uint32 column."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK_32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashed(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash step with each constant of consts but the last
    on value's rows: xor with it, multiply by the next one, fold the high
    16 bits into the low."""
    value = value ^ consts[:-1]
    value *= consts[1:]
    return value ^ (value >> 16)


def _hashed_keys(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(2, uint64) for each row of
    uint32 entropy words, all rows at once: numpy's mix_entropy into a
    4-word pool, then generate_state. Every row steps the hash constants
    alike, and the updates from one source word touch the other pool
    words independently, so each is one operation on all of them."""
    m, width = entropy.shape
    consts = _constants(_INIT_A,
                        _MULT_A, _POOL * (_POOL + max(0, width - _POOL)))
    used = 0

    def hashmix(value, n):
        # the next n of numpy's hashmix calls, on value or on its n rows
        nonlocal used
        used += n
        return _hashed(value, consts[used - n:used + 1])

    def mix(x, y):
        value = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return value ^ (value >> 16)

    pool = np.zeros((_POOL, m), dtype=np.uint32)
    pool[:min(width, _POOL)] = entropy[:, :_POOL].T
    pool = hashmix(pool, _POOL)
    for src in range(_POOL):
        others = [dst for dst in range(_POOL) if dst != src]
        pool[others] = mix(pool[others], hashmix(pool[src], _POOL - 1))
    for src in range(_POOL, width):
        pool = mix(pool, hashmix(entropy[:, src], _POOL))
    state = _hashed(pool, _constants(_INIT_B, _MULT_B, _POOL))
    # generate_state reads its uint32 words as little-endian pairs
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(
        np.uint64)


def stream_keys(paths, count: int) -> np.ndarray:
    """The Philox keys of substream(*path, i) for each path and each i
    in range(count), path after path: a (len(paths) * count, 2) uint64
    array. count is at most 2**32, so each i is one entropy word; the
    paths are hashed in one pass per entropy word count."""
    prefixes = [[w for tag in path for w in _words(_tag_to_int(tag))]
                for path in paths]
    keys = np.empty((len(paths), count, 2), dtype=np.uint64)
    for width in {len(p) for p in prefixes}:
        group = [j for j, p in enumerate(prefixes) if len(p) == width]
        entropy = np.empty((len(group), count, width + 1), dtype=np.uint32)
        entropy[:, :, :width] = np.array([prefixes[j] for j in group],
                                         dtype=np.uint32)[:, None]
        entropy[:, :, width] = np.arange(count)
        keys[group] = _hashed_keys(entropy.reshape(-1, width + 1)).reshape(
            len(group), count, 2)
    return keys.reshape(-1, 2)


class _Key(ISeedSequence):
    """A seed sequence that hands Philox a key already derived."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def philox_stream(key) -> np.random.Generator:
    """The Generator of Philox keyed by key, from its start: for a key of
    stream_keys, the Generator of its substream."""
    return np.random.Generator(np.random.Philox(_Key(key)))


def philox_words(keys: np.ndarray, n_words: int) -> np.ndarray:
    """The first n_words raw 64-bit words of each key's Philox stream,
    one row per key, read through one Philox whose state is set to each
    key's start in turn."""
    zero = (0, 0, 0, 0)
    start = {"counter": zero, "key": None}
    state = {"bit_generator": "Philox", "state": start, "buffer": zero,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bit_generator = np.random.Philox(_Key(np.zeros(2, dtype=np.uint64)))
    rows = np.empty((len(keys), n_words), dtype=np.uint64)
    for row, key in zip(rows, keys.tolist()):
        start["key"] = key
        bit_generator.state = state
        row[:] = bit_generator.random_raw(n_words)
    return rows


def lemire_halves(words: np.ndarray, n: int):
    """numpy's bounded draws integers(n), 2 <= n < 2**32, from the 32-bit
    halves of words, low half first, as Philox serves them, by Lemire's
    multiply-shift (ACM TOMACS 2019): the values (u * n) >> 32, one per
    half along the last axis, and whether Lemire accepts each,
    (u * n) mod 2**32 >= (2**32 - n) mod n. numpy drops a rejected half
    and draws the next half in its place."""
    # "<u8" is a no-op view on a little-endian host and byte-swaps on a
    # big-endian one
    m = words.astype("<u8", copy=False).view("<u4") * np.uint64(n)
    return m >> 32, m.astype(np.uint32) >= (2**32 - n) % n


def uniforms(words: np.ndarray) -> np.ndarray:
    """numpy's random() of each raw 64-bit word, (w >> 11) * 2**-53."""
    return (words >> 11) * 2.0 ** -53


@functools.cache
def draws_agree() -> bool:
    """Whether stream_keys, philox_words, philox_stream, lemire_halves
    and uniforms give substream's keys and numpy's calls: on fixed
    streams of one- and two-word seeds, an odd integers(n) draw with and
    without Lemire rejections, the random() draws that follow it and
    random() calls on a philox_stream past the words read. Checked once
    per process; where it fails, callers draw by numpy's calls."""
    paths = [(0, "tree"), (2**32 + 7, "tree"), (-1, "check")]
    keys = stream_keys(paths, 2)
    for j, key in enumerate(keys):
        called = substream(*paths[j // 2], j % 2)
        if called.bit_generator.state["state"]["key"].tolist() \
                != key.tolist():
            return False
        # 3 * 2**30 + 1 rejects about one half in four
        n = (300, 3 * 2**30 + 1)[j % 2]
        words = philox_words(keys[j:j + 1], 24)[0]
        values, accepted = lemire_halves(words, n)
        used = np.flatnonzero(accepted)[:9]
        if used.size < 9 or not np.array_equal(
                called.integers(0, n, size=9), values[used]):
            return False
        read = used[-1] // 2 + 1
        if not np.array_equal(called.random(24 - read),
                              uniforms(words[read:])):
            return False
        stream = philox_stream(key)
        stream.bit_generator.random_raw(24, output=False)
        if not np.array_equal(called.random(5), stream.random(5)):
            return False
    return True
