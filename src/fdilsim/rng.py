"""Deterministic random-stream derivation.

Every source of randomness in a run is a stream derived from the master seed
plus a tuple of integer labels (purpose, task, round, client, ...).  The
labels are hashed into a Philox counter-based generator key, so streams are
independent of each other and of execution order: running clients in
parallel, or skipping a client entirely, never perturbs anyone else's draws.

The key is the first 16 bytes of SHA-256 over the seed and the labels, each
as 16 big-endian signed bytes.  It reaches Philox through a seed sequence
that returns the key itself, which gives the stream of ``Philox(key=key)``
without the OS-entropy ``SeedSequence`` that call builds and never uses.

The hot path takes its bounded integers from many streams at once through
:func:`stream_integers`, which returns exactly what each stream's own
``integers`` call would.  numpy's bounded integers below 2**32 take one
32-bit word per element (Philox's 64-bit outputs, low half first) and map
it by Lemire's rule: ``m = w * n``, value ``m >> 32``, and the word is
rejected and a fresh one taken when ``m mod 2**32`` falls below
``(2**32 - n) mod n``; a range of one takes no word.  The helper reads each
stream's first words from one Philox re-keyed through its state, maps them
in whole-array ops, and gives any stream for which that reading could be
wrong (a rejected word, a range of 2**32 or more, an empty range, or a
range of one before a wider one) to ``derive_stream`` and ``integers``.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

# Purpose labels, first element of every derivation tuple.
INIT_PARAMS = 0
TASK_DATA = 1
PARTITION = 2
CLIENT_SAMPLING = 3
LOCAL_TRAINING = 4
PROBE_POINT = 5
PROBE_BATCH = 6


@functools.cache
def _key_sequence() -> type:
    """The seed-sequence type whose state is a fixed Philox key.

    Defined on first use: importing ``numpy.random`` when this module is
    imported would add about 20 ms to every ``import fdilsim``.
    """

    class KeySequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return KeySequence


def _key(master_seed: int, labels) -> np.ndarray:
    """The Philox key of ``(master_seed, labels)``: two native uint64 words."""
    message = b"".join([int(v).to_bytes(16, "big", signed=True) for v in (master_seed, *labels)])
    return np.frombuffer(hashlib.sha256(message).digest(), dtype=np.uint64, count=2)


def _keys(master_seed: int, keys) -> np.ndarray:
    """``_key`` of every label tuple in ``keys`` (all of one length), ``(S, 2)``.

    Values that fit int64 are packed for all keys at once: 16 big-endian
    signed bytes are the sign word and then the value's own 8 bytes.
    """
    try:
        values = np.empty((len(keys), 1 + len(keys[0])), dtype=np.int64)
        values[:, 0] = master_seed
        values[:, 1:] = keys
    except OverflowError:
        return np.array([_key(master_seed, labels) for labels in keys], dtype=np.uint64)
    words = np.empty(values.shape + (2,), dtype=">i8")
    words[..., 0] = values >> 63
    words[..., 1] = values
    message = memoryview(words.tobytes())
    step = words.shape[1] * 16
    digests = b"".join(
        [hashlib.sha256(message[at : at + step]).digest() for at in range(0, len(message), step)]
    )
    return np.frombuffer(digests, dtype=np.uint64).reshape(-1, 4)[:, :2]


def derive_stream(master_seed: int, labels: tuple[int, ...] | list[int]) -> np.random.Generator:
    """Return a Generator keyed by SHA-256(master_seed || labels).

    Distinct (seed, labels) tuples give statistically independent streams;
    identical tuples give identical streams.  Label order matters.
    """
    return np.random.Generator(np.random.Philox(_key_sequence()(_key(master_seed, labels))))


_WORD = 1 << 32


def stream_integers(master_seed: int, keys, low, high, size: tuple[int, ...]) -> np.ndarray:
    """``derive_stream(master_seed, key).integers(low, high, size)`` for every key, stacked.

    ``keys`` is a list of label tuples of one length.  ``low`` and ``high``
    broadcast to ``(len(keys),) + size``; stream ``s`` takes the bounds at
    ``[s]``, and the result is int64 of that shape.  Each stream's first
    words come from one Philox, made for this call and set to the stream's
    fresh state, so no generator is built per key; the words are mapped by
    numpy's rule (see the module docstring) for all streams at once.  A
    stream whose reading could differ from numpy's calls ``integers`` on its
    own derived stream instead, so every row is exact.
    """
    shape = (len(keys),) + tuple(size)
    length = math.prod(size)
    if not len(keys):
        return np.zeros(shape, dtype=np.int64)
    low = np.asarray(low, dtype=np.int64)
    high = np.asarray(high, dtype=np.int64)
    span = high - low  # broadcasts to shape: one range per stream or per element
    fallback = np.zeros(len(keys), dtype=bool)
    if length and not 2 <= span.min() <= span.max() < _WORD:
        span = np.broadcast_to(span, shape)
        flat = span.reshape(len(keys), -1)
        odd = (flat < 1) | (flat >= _WORD)
        ones = flat == 1
        fallback = odd.any(axis=1) | (ones[:, :-1] & ~ones[:, 1:]).any(axis=1)
        span = np.where(odd.reshape(shape), 2, span)
    span = span.view(np.uint64)

    # One Philox for all keys, set to each stream's fresh state in turn.  The
    # state setter takes Python ints and lists about four times as fast as arrays.
    philox = np.random.Philox(_key_sequence()(np.zeros(2, dtype=np.uint64)))
    fresh = philox.state
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    raw = np.empty((len(keys), (length + 1) // 2), dtype=np.uint64)
    for s, key in enumerate(_keys(master_seed, keys).tolist()):
        fresh["state"]["key"] = key
        philox.state = fresh
        raw[s] = philox.random_raw(raw.shape[1])
    # Each 64-bit output as two 32-bit words, low half first; m = w * n.
    m = raw.astype("<u8", copy=False).view("<u4")[:, :length].reshape(shape) * span
    del raw
    leftover = m.astype("<u8", copy=False).view("<u4")[..., ::2]  # m mod 2**32
    # numpy checks the threshold only for a leftover below n, which bounds it.
    suspect = leftover < span
    if suspect.any():
        suspect = np.nonzero(suspect)
        n = np.broadcast_to(span, shape)[suspect]
        fallback[suspect[0][leftover[suspect] < (_WORD - n) % n]] = True
    m >>= 32
    out = m.view(np.int64)
    out += low
    for s in np.flatnonzero(fallback).tolist():
        bounds = np.broadcast_to(low, shape)[s], np.broadcast_to(high, shape)[s]
        out[s] = derive_stream(master_seed, keys[s]).integers(*bounds, size)
    return out
