"""numpy's SeedSequence hashing, for a block of keys at once.

``np.random.default_rng(np.random.SeedSequence(key))`` costs about 15 µs a
key, most of it in SeedSequence's Python-level hashing of a few uint32
words. The hash runs the same fixed sequence of constants for every key,
so the keys of a block can go through it together as uint32 array
columns. This module re-implements numpy's algorithm bit for bit (numpy
keeps it stable for reproducibility; ``tests/test_seeding.py`` checks it
against numpy itself):

- An entropy int splits into uint32 words, low first; 0 is one word. A
  key tuple concatenates the words of its ints.
- The pool has 4 words. Word i is ``hashmix`` of entropy word i, or of 0
  past the end, so an entropy of at most 4 words equals itself padded
  with zeros. Then, for each src and each dst != src,
  ``pool[dst] = mix(pool[dst], hashmix(pool[src]))``; entropy words past
  the fourth are mixed into every pool word the same way.
- ``generate_state`` cycles through the pool, scrambling each word with
  a second constant sequence.

A `Key` hands one key's words to numpy's own PCG64 seeding.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix, while the pool is mixed
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _int_words(n: int) -> tuple[int, ...]:
    """SeedSequence's split of an entropy int into uint32 words, low first."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return tuple(words)


def _hash_constants(init: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) of each successive hashmix: the constant, then its update."""
    h = init
    while True:
        nxt = h * mult & _MASK32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _scramble(v: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    v = (v ^ xor) * mult  # uint32 arrays wrap silently
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def generate_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(words).generate_state(n_words) for every column of `entropy`.

    `entropy` is a (words, keys) uint32 array; the result is (n_words, keys).
    """
    if len(entropy) < _POOL:
        pad = np.zeros((_POOL - len(entropy), entropy.shape[1]), dtype=np.uint32)
        entropy = np.vstack([entropy, pad])
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_scramble(entropy[i], constants) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _scramble(pool[src], constants))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _scramble(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    return np.array([_scramble(pool[i % _POOL], constants) for i in range(n_words)])


def check_run_seed(seed) -> None:
    """Raise TypeError unless `seed` is an int or numpy integer.

    SeedSequence would take other types: it reads '7' as 7.
    """
    if not isinstance(seed, (int, np.integer)):  # _int_words' bit masks need one
        raise TypeError(f"run seed {seed!r} is not an integer")


def key_state(seed: int, ids: Sequence[int], tags: Sequence[int],
              n_words: int) -> np.ndarray:
    """SeedSequence((seed, e, tag)).generate_state(n_words) for every tag and id.

    Returns a (len(tags), n_words, len(ids)) uint32 array. SeedSequence
    sees only the concatenated words of a key, so keys are hashed
    together in groups of equal word count.
    """
    check_run_seed(seed)
    head = _int_words(seed)
    for e in ids:  # the uint32 cast below would truncate a float
        if not isinstance(e, (int, np.integer)):
            raise TypeError(f"episode id {e!r} is not an integer")
    if min(ids) < 0:  # SeedSequence's error; the uint32 cast below raises OverflowError
        raise ValueError(f"expected non-negative integer, got {min(ids)}")
    if max(ids) <= _MASK32 and max(tags) <= _MASK32:  # the usual case, no loop over keys
        entropy = np.empty((len(head) + 2, len(tags) * len(ids)), dtype=np.uint32)
        entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
        entropy[-2] = np.tile(np.array(ids, dtype=np.uint32), len(tags))
        entropy[-1] = np.repeat(np.array(tags, dtype=np.uint32), len(ids))
        words = generate_state(entropy, n_words)
    else:
        keys = [head + _int_words(e) + _int_words(t) for t in tags for e in ids]
        by_count = defaultdict(list)
        for pos, key in enumerate(keys):
            by_count[len(key)].append(pos)
        words = np.empty((n_words, len(keys)), dtype=np.uint32)
        for pos in by_count.values():
            entropy = np.array([keys[p] for p in pos], dtype=np.uint32).T
            words[:, pos] = generate_state(entropy, n_words)
    return words.reshape(n_words, len(tags), len(ids)).transpose(1, 0, 2)


class Key(ISeedSequence):
    """One key's first 8 generate_state words, handed to numpy as an ISeedSequence.

    ``np.random.PCG64(Key(words))`` equals ``PCG64(SeedSequence(key))``: PCG64
    asks for 4 uint64 words, which are SeedSequence's 8 uint32 words viewed
    as uint64. `words` must be contiguous.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Key seeds PCG64 only, not {n_words} {np.dtype(dtype)} words")
        return self.words.view(np.uint64)
