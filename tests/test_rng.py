import numpy as np
import pytest

from fdilsim import derive_stream
from fdilsim.rng import stream_integers


def test_same_labels_reproduce():
    a = derive_stream(25, (1, 2, 3)).random(1000)
    b = derive_stream(25, (1, 2, 3)).random(1000)
    assert np.array_equal(a, b)


def test_label_order_matters():
    a = derive_stream(25, (1, 2)).random(100)
    b = derive_stream(25, (2, 1)).random(100)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = derive_stream(25, (1,)).random(100)
    b = derive_stream(26, (1,)).random(100)
    assert not np.array_equal(a, b)


def test_label_extension_differs():
    a = derive_stream(25, (1,)).random(100)
    b = derive_stream(25, (1, 0)).random(100)
    assert not np.array_equal(a, b)


def test_uniform_mean_sanity():
    draws = derive_stream(2025, (9, 9)).random(100_000)
    assert 0.497 <= draws.mean() <= 0.503


def test_negative_labels_and_seeds_accepted():
    stream = derive_stream(-7, (-1, -2))
    assert 0.0 <= stream.random() < 1.0


# (seed, labels, Philox key, first five integers(0, 1000), then random()),
# pinned values: a change to how streams are built that moves any stream, and
# so every output byte of a run, fails here.
GOLDEN_STREAMS = [
    (0, (), (0xD59D71F7FF084737, 0x28D26CD575C89E97), [961, 956, 9, 780, 529], 0.6145768646497847),
    (25, (4, 1, 0, 3), (0xF78C592EE5400BFF, 0xD574F73C7541DF7C), [549, 843, 749, 292, 612], 0.7736415112219027),
    (-7, (-1, -2), (0xBBBE0C67D55961A0, 0x9AAF261418DCF4F3), [689, 372, 996, 471, 903], 0.3639343453483238),
    (2**63, (6, 15, 2, 63), (0xDFEFBB0627627A5C, 0xD62CC2E39DA06626), [53, 593, 206, 648, 203], 0.12433597645931638),
    (-(2**100), (3, -(2**64), 9), (0xC7637B25EAA7C5B7, 0xA361A12675EFC564), [462, 128, 645, 917, 183], 0.45455559071034324),
]


def test_derived_streams_match_golden_keys_states_and_draws():
    for seed, labels, key, ints, uniform in GOLDEN_STREAMS:
        stream = derive_stream(seed, labels)
        state = stream.bit_generator.state
        assert state["bit_generator"] == "Philox"
        assert state["state"]["key"].tolist() == list(key)
        assert state["state"]["counter"].tolist() == [0, 0, 0, 0]
        assert (state["buffer_pos"], state["has_uint32"], state["uinteger"]) == (4, 0, 0)
        assert stream.integers(0, 1000, size=5).tolist() == ints
        assert stream.random() == uniform
        fresh = derive_stream(seed, list(labels))
        assert fresh.bit_generator.state["state"]["key"].tolist() == list(key)


def own_integers(seed, labels, low, high, size):
    """One stream's own draw: what ``stream_integers`` must return for its key."""
    return derive_stream(seed, labels).integers(low, high, size)


def test_bulk_reading_equals_each_streams_own_integers_call():
    # Over 1,000 streams: small ranges, 2**31 + 1 (about half of all words
    # are rejected there, so nearly every stream falls back), ranges just
    # below, at and above 2**32, and negative lows.
    streams = 0
    for n in (2, 3, 50, 1000, 2**31 + 1, 2**32 - 1, 2**32, 2**33):
        keys = [(4, n % 1009, t, m) for t in range(15) for m in range(8)]
        for low in (0, -3):
            bulk = stream_integers(7, keys, low, low + n, (5, 4))
            assert bulk.shape == (len(keys), 5, 4) and bulk.dtype == np.int64
            for key, row in zip(keys, bulk):
                assert np.array_equal(row, own_integers(7, key, low, low + n, (5, 4)))
            streams += len(keys)
    assert streams >= 1000


def test_bulk_reading_with_bounds_per_stream_and_per_element():
    rng = np.random.default_rng(5)
    # A range per stream, as the local batches of shards of many sizes.
    sizes = rng.integers(2, 300, size=64)
    keys = [(4, 2, 7, m) for m in range(64)]
    bulk = stream_integers(11, keys, 0, sizes[:, None, None], (3, 16))
    for key, n, row in zip(keys, sizes, bulk):
        assert np.array_equal(row, own_integers(11, key, 0, n, (3, 16)))
    # A range per element, as the swap targets of client sampling, N = M included:
    # the last target's range is 1 there, and numpy takes no word for it.
    for m, n in ((1, 1), (2, 2), (8, 4), (8, 8), (64, 32), (64, 64), (1000, 1000)):
        keys = [(3, m, t) for t in range(5)]
        bulk = stream_integers(2, keys, np.arange(n), m, (n,))
        for key, row in zip(keys, bulk):
            assert np.array_equal(row, own_integers(2, key, np.arange(n), m, None))


def test_bulk_reading_falls_back_where_words_would_shift():
    # A range of 1 takes no word, so one before a wider range shifts the
    # words after it; such a stream is read on its own.
    keys = [(9, t) for t in range(40)]
    high = np.array([1, 5, 1, 7, 9, 1])
    bulk = stream_integers(3, keys, 0, high, (6,))
    for key, row in zip(keys, bulk):
        assert np.array_equal(row, own_integers(3, key, 0, high, None))
    # Labels and seeds beyond int64 take the per-key hash.
    big = [(2**64, 1), (-(2**70), 3)]
    bulk = stream_integers(2**80, big, 0, 10, (7,))
    for key, row in zip(big, bulk):
        assert np.array_equal(row, own_integers(2**80, key, 0, 10, (7,)))
    assert stream_integers(1, [], 0, 5, (3,)).shape == (0, 3)
    # An empty range fails as numpy's own call does.
    with pytest.raises(ValueError):
        stream_integers(1, [(1,)], 5, 5, (2,))
