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
"""

from __future__ import annotations

import functools
import hashlib

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


def derive_stream(master_seed: int, labels: tuple[int, ...] | list[int]) -> np.random.Generator:
    """Return a Generator keyed by SHA-256(master_seed || labels).

    Distinct (seed, labels) tuples give statistically independent streams;
    identical tuples give identical streams.  Label order matters.
    """
    message = b"".join([int(v).to_bytes(16, "big", signed=True) for v in (master_seed, *labels)])
    key = np.frombuffer(hashlib.sha256(message).digest(), dtype=np.uint64, count=2)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))
