import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncgibbs import streams
from truncgibbs.kernel import SpinInterval
from truncgibbs.streams import UpdateStream, derive_key, site_uniform_pairs, uniforms, words


def test_same_seed_same_sequence():
    s1 = UpdateStream(derive_key(42, "x"), 16)
    s2 = UpdateStream(derive_key(42, "x"), 16)
    a = s1.take(1000)
    b = s2.take(1000)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_slots_are_stateless():
    s = UpdateStream(derive_key(7), 8)
    site_5, u_5 = site_uniform_pairs(s.site_key, s.uniform_key, [5], 8)
    s.take(100)  # consuming the stream must not change slot content
    assert site_uniform_pairs(s.site_key, s.uniform_key, [5], 8) == (site_5, u_5)


def test_take_matches_site_uniform_pairs():
    s1 = UpdateStream(derive_key(3), 8)
    sites, us = s1.take(50)
    s2 = UpdateStream(derive_key(3), 8)
    sites2, us2 = site_uniform_pairs(s2.site_key, s2.uniform_key, np.arange(50), 8)
    assert np.array_equal(sites, sites2)
    assert np.array_equal(us, us2)


@pytest.mark.parametrize("n", [-2, 2.5, True])
def test_take_rejects_a_count_that_is_not_an_integer_at_least_zero(n):
    # unchecked, take(-2) after take(3) moved the cursor back to 1 and take(2.5)
    # left it at 2.5, so the next take(2) replayed slots already consumed;
    # take(True) took one pair
    s = UpdateStream(derive_key(3), 8)
    s.take(3)
    with pytest.raises(ValueError, match="n must be an integer >= 0"):
        s.take(n)
    sites, us = s.take(np.int64(2))      # numpy integers count too
    want_sites, want_us = site_uniform_pairs(s.site_key, s.uniform_key, np.arange(3, 5), 8)
    assert np.array_equal(sites, want_sites) and np.array_equal(us, want_us)


def test_uniforms_open_interval_and_mean():
    u = uniforms(derive_key(1, "u"), np.arange(200_000))
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 3.0 / np.sqrt(12 * 200_000)


def test_sites_cover_volume_roughly_uniformly():
    s = UpdateStream(derive_key(9), 10)
    sites, _ = s.take(100_000)
    counts = np.bincount(sites, minlength=10)
    assert counts.min() > 0.8 * 10_000 and counts.max() < 1.2 * 10_000


def test_distinct_tags_decorrelate():
    assert derive_key(5, "a") != derive_key(5, "b")
    assert derive_key(5, 1) != derive_key(5, 2)
    w1 = words(derive_key(5, "a"), np.arange(100))
    w2 = words(derive_key(5, "b"), np.arange(100))
    assert not np.array_equal(w1, w2)


def test_batched_pairs_match_update_streams():
    streams = [UpdateStream(derive_key(11, "cftp", r), 4) for r in range(6)]
    site_keys = np.array([s.site_key for s in streams], dtype=np.uint64)
    u_keys = np.array([s.uniform_key for s in streams], dtype=np.uint64)
    for slot in (1, 2, 17):
        sites, us = site_uniform_pairs(site_keys, u_keys, slot, 4)
        for r, stream in enumerate(streams):
            # slot t of a stream is the last of the first t + 1 pairs it hands out
            want_sites, want_us = UpdateStream(stream.key, 4).take(slot + 1)
            assert sites[r] == want_sites[-1]
            assert us[r] == want_us[-1]


def test_n_sites_validation():
    # a fraction was truncated (2.5 sites ran as 2) and True ran as 1 site
    for n_sites in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="n_sites must be an integer >= 1"):
            UpdateStream(derive_key(0), n_sites)


@pytest.mark.parametrize("part", [7.9, "12", np.float64(3.0), np.array([1.5])])
def test_key_parts_that_are_not_integers_are_rejected(part):
    # int() took 7.9 as seed 7 and "12" as 12, so distinct seeds gave one key,
    # and np.uint64() did the same to a stream key
    with pytest.raises(TypeError):
        derive_key(part)
    with pytest.raises(TypeError):
        UpdateStream(part, 4)
    if not isinstance(part, str):       # a string part is a tag
        with pytest.raises(TypeError):
            derive_key(3, "x", part)


def test_integer_key_parts_keep_their_bits():
    assert derive_key(np.uint64(7), True) == derive_key(7, 1)
    assert derive_key(np.int32(-5)) == derive_key(2 ** 64 - 5)
    assert derive_key(3, np.array([4], dtype=np.uint8)).tolist() == [int(derive_key(3, 4))]
    for key, bits in [(7, 7), (np.int32(-1), 2 ** 64 - 1), (np.uint64(2 ** 64 - 1), 2 ** 64 - 1)]:
        stream = UpdateStream(key, 4)
        assert isinstance(stream.key, np.uint64) and stream.key == bits
    keys = np.array([0, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    assert UpdateStream(keys, 4).key.tolist() == keys.tolist()


SEEDS = st.integers(min_value=-(2 ** 63), max_value=2 ** 64 - 1)
INDICES = st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), max_size=16).map(
    lambda drawn: np.array([0, 2 ** 64 - 1, *drawn], dtype=np.uint64))


@settings(deadline=None)
@given(seed=SEEDS, tag=st.text(max_size=6), idx=INDICES)
def test_batched_keys_match_scalar_keys(seed, tag, idx):
    batch = derive_key(seed, tag, idx)
    assert batch.dtype == np.uint64 and batch.shape == idx.shape
    scalar = [derive_key(seed, tag, int(i)) for i in idx]
    assert all(isinstance(k, np.uint64) for k in scalar)
    assert batch.tolist() == [int(k) for k in scalar]


@settings(deadline=None)
@given(seed=SEEDS, idx=INDICES, n_sites=st.integers(min_value=1, max_value=9))
def test_stream_of_key_array_matches_scalar_streams(seed, idx, n_sites):
    keys = derive_key(seed, "cftp", idx)
    batch = UpdateStream(keys, n_sites)
    one_by_one = [UpdateStream(k, n_sites) for k in keys]
    assert batch.site_key.tolist() == [int(s.site_key) for s in one_by_one]
    assert batch.uniform_key.tolist() == [int(s.uniform_key) for s in one_by_one]


def test_negative_integer_parts_wrap_modulo_two_to_the_64():
    assert derive_key(-1, "x", -5) == derive_key(2 ** 64 - 1, "x", 2 ** 64 - 5)
    assert derive_key(3, np.array([-5, 7])).tolist() == [
        int(derive_key(3, 2 ** 64 - 5)), int(derive_key(3, 7))]


TOP_WORDS = np.array([2 ** 64 - 1, 2 ** 64 - 2 ** 11, 2 ** 64 - 2 ** 10], dtype=np.uint64)


def _uniforms_of_words(monkeypatch, w):
    """Run uniforms' word-to-float step on the given words."""
    monkeypatch.setattr(streams, "words", lambda key, counters: w)
    return uniforms(0, np.arange(w.size))


def test_uniforms_of_top_words_stay_below_one(monkeypatch):
    # unclamped, a word whose top 53 bits are all ones maps to (2**53 - 0.5) 2**-53 == 1.0
    u = _uniforms_of_words(monkeypatch, TOP_WORDS)
    assert np.all(u < 1.0)
    assert np.all(u == 1.0 - 2.0 ** -53)


def test_uniforms_bit_identical_below_the_top_words(monkeypatch):
    rng = np.random.default_rng(2026)
    w = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    w[:4] = [0, 2 ** 11 - 1, 2 ** 64 - 2 ** 11 - 1, 2 ** 63]
    w = w[(w >> np.uint64(11)) != np.uint64(2 ** 53 - 1)]
    unclamped = ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    u = _uniforms_of_words(monkeypatch, w)
    assert u.view(np.uint64).tolist() == unclamped.view(np.uint64).tolist()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 7), st.integers(0, 6),
       st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (0.0, 10.0)]))
def test_uniform_configurations_rows_are_consecutive_counters(seed, size, trials, ends):
    # row t is the t-th run of `size` counters of the tag's key, as the
    # per-trial draws gave it one row at a time
    interval = SpinInterval(*ends)
    got = streams.uniform_configurations(seed, "tag", interval, size, trials)
    assert got.shape == (trials, size) and got.dtype == np.float64
    key = derive_key(seed, "tag")
    for t, row in enumerate(got):
        u = uniforms(key, np.arange(t * size, (t + 1) * size, dtype=np.uint64))
        assert row.tobytes() == (interval.a + interval.width * u).tobytes()
