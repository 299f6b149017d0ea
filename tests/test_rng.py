"""Random-stream derivation: determinism, independence, stability."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from optnet._rng import (draws_agree, philox_stream, seed_sequence,
                         stream_keys, stream_seed, substream)


def test_same_path_same_stream():
    a = substream(0, "alpha", 3).random(16)
    b = substream(0, "alpha", 3).random(16)
    assert np.array_equal(a, b)


def test_different_tags_different_streams():
    a = substream(0, "alpha").random(16)
    b = substream(0, "beta").random(16)
    c = substream(1, "alpha").random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tag_types_are_distinguished():
    # the string "3" and the int 3 must not collide
    a = substream(0, 3).random(8)
    b = substream(0, "3").random(8)
    assert not np.array_equal(a, b)


def test_order_independence():
    # deriving stream B first must not change stream A
    first = substream(5, "a").random(8)
    substream(5, "b").random(8)
    again = substream(5, "a").random(8)
    assert np.array_equal(first, again)


def test_stream_seed_is_stable():
    # pinned values guard against accidental changes to the derivation;
    # hashing is blake2b-based, so they are process independent
    assert stream_seed(0, "node", "selector") == 7676329661510028061
    assert stream_seed(7) == 16920295385781661272


def test_stream_seed_range_and_distinctness():
    seeds = {stream_seed(0, "x", i) for i in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_seed_sequence_entropy_differs_by_depth():
    # (0, "a") and (0, "a", "a") are different paths
    s1 = seed_sequence(0, "a").generate_state(4)
    s2 = seed_sequence(0, "a", "a").generate_state(4)
    assert not np.array_equal(s1, s2)


_TAGS = st.one_of(st.integers(-2**70, 2**70), st.text(max_size=4))


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.lists(_TAGS, min_size=1, max_size=4), min_size=1,
                max_size=4), st.integers(0, 6))
def test_stream_keys_are_the_seed_sequence_keys(paths, count):
    """Paths of any entropy word count, hashed together, get the keys
    SeedSequence gives each stream alone, and those keys start the
    streams substream starts."""
    keys = stream_keys(paths, count)
    assert keys.shape == (len(paths) * count, 2)
    expected = [seed_sequence(*path, i).generate_state(2, np.uint64)
                for path in paths for i in range(count)]
    assert keys.tolist() == [k.tolist() for k in expected]
    if count:
        assert np.array_equal(philox_stream(keys[-1]).random(4),
                              substream(*paths[-1], count - 1).random(4))


def test_the_bulk_draws_check_themselves_against_numpy():
    assert draws_agree()
