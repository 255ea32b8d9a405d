"""Deterministic counter-based random streams.

Every random quantity in the library is a pure function of a 64-bit key
and a counter, computed through the SplitMix64 finalizer.  A (key, slot)
pair therefore always yields the same value regardless of platform, call
order, or how much of the stream was consumed before: this is what lets
coupling-from-the-past revisit old time slots without storing them, and
what keeps every run bit-reproducible from its seed.

Key derivation: a global seed is expanded into per-component keys with
``derive_key(seed, "component", ...)``; adding a new component never
perturbs the streams of existing ones.  Integer parts may be arrays: one
call derives a batch of keys, each bit-identical to its scalar derivation.
"""

from __future__ import annotations

import operator

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = _U64(30), _U64(27), _U64(31), _U64(11)
_TWO53 = 2.0 ** -53
_BELOW_ONE = 1.0 - _TWO53


def mix64(x):
    """SplitMix64 finalizer on uint64 scalars or arrays.  The products wrap
    modulo 2**64; callers silence numpy's overflow warning for scalars."""
    x = (x ^ (x >> _S30)) * _MIX1
    x = (x ^ (x >> _S27)) * _MIX2
    return x ^ (x >> _S31)


def _u64(part):
    """An integer, or an integer array, modulo 2**64 as uint64; a float, a
    string or an array of another dtype raises TypeError."""
    if isinstance(part, np.ndarray):
        if not np.issubdtype(part.dtype, np.integer):
            raise TypeError(f"key parts must be integers, got an array of {part.dtype}")
        return part.astype(np.uint64)
    return _U64(operator.index(part) & 0xFFFFFFFFFFFFFFFF)


def _check_count(name: str, value, least: int = 0) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``least`` and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def derive_key(seed, *parts):
    """Fold a seed and a mix of ints / short string tags into a stream key.

    The seed and the integer parts are taken modulo 2**64 (any other part but
    a tag raises TypeError), and any of them may be an integer array: the keys
    then broadcast over the arrays, each element equal to the scalar
    derivation with that element in place.
    All-scalar input returns an ``np.uint64``.
    """
    with np.errstate(over="ignore"):
        key = mix64(_u64(seed))
        for part in parts:
            if isinstance(part, str):
                for byte in part.encode():
                    key = mix64(key ^ _U64(byte))
            else:
                key = mix64(key ^ _u64(part))
    return key if isinstance(key, np.ndarray) else np.uint64(key)


def words(key, counters):
    """One decorrelated 64-bit word per (key, counter) pair; broadcasts."""
    counters = np.asarray(counters, dtype=np.uint64)
    key = np.asarray(key, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(key + _GOLDEN * counters)


def uniforms(key, counters):
    """53-bit uniforms in the open interval (0, 1), one per counter.

    The top 53 bits k of a word map to (k + 0.5) 2**-53; for k = 2**53 - 1
    that rounds to 1.0, which is clamped to the largest double below 1.
    """
    u = ((words(key, counters) >> _S11).astype(np.float64) + 0.5) * _TWO53
    return np.minimum(u, _BELOW_ONE)


def uniform_configurations(seed, tag: str, interval, size: int, trials: int) -> np.ndarray:
    """``trials`` configurations of ``size`` spins, each uniform on the
    interval, as the rows of a (trials, size) array: row t holds counters
    t size to (t + 1) size - 1 of the key ``derive_key(seed, tag)``, all
    drawn by one :func:`uniforms` call."""
    u = uniforms(derive_key(seed, tag), np.arange(trials * size, dtype=np.uint64))
    return interval.a + interval.width * u.reshape(trials, size)


class UpdateStream:
    """Deterministic stream of (site index, uniform) update pairs.

    The pair at slot t is :func:`site_uniform_pairs` of the stream's two keys
    at t, a pure function of (key, t): :meth:`take` consumes the stream in
    order, and coupling from the past draws any slot through that function.
    Sites are marginally uniform over the volume and uniforms are
    independent across slots.  ``key`` may be an array of keys, one
    independent stream each; ``site_key`` and ``uniform_key`` are then
    arrays of the same shape.  A key is taken modulo 2**64 as a
    :func:`derive_key` part is, so a float or a string raises TypeError.
    ``n_sites`` is an integer >= 1 and a count an integer >= 0.
    """

    def __init__(self, key, n_sites: int):
        _check_count("n_sites", n_sites, least=1)
        self.key = _u64(key)
        self.n_sites = int(n_sites)
        self.site_key = derive_key(self.key, "site")
        self.uniform_key = derive_key(self.key, "uniform")
        self._cursor = 0

    def take(self, n: int):
        """Consume the next n pairs, advancing the cursor."""
        _check_count("n", n)        # before the cursor moves
        slots = np.arange(self._cursor, self._cursor + n, dtype=np.uint64)
        self._cursor += n
        return site_uniform_pairs(self.site_key, self.uniform_key, slots, self.n_sites)


def site_uniform_pairs(site_keys, uniform_keys, slot, n_sites: int):
    """(site, uniform) pairs of the keys at the slots; broadcasts.  The site
    is min(floor(u n_sites), n_sites - 1) for the site key's uniform u."""
    raw = uniforms(site_keys, slot)
    sites = np.minimum((raw * n_sites).astype(np.int64), n_sites - 1)
    return sites, uniforms(uniform_keys, slot)
