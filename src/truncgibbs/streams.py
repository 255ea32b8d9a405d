"""Deterministic counter-based random streams.

Every random quantity in the library is a pure function of a 64-bit key
and a counter, computed through the SplitMix64 finalizer.  A (key, slot)
pair therefore always yields the same value regardless of platform, call
order, or how much of the stream was consumed before: this is what lets
coupling-from-the-past revisit old time slots without storing them, and
what keeps every run bit-reproducible from its seed.

Key derivation: a global seed is expanded into per-component keys with
``derive_key(seed, "component", ...)``; adding a new component never
perturbs the streams of existing ones.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_TWO53 = 2.0 ** -53


def mix64(x):
    """SplitMix64 finalizer; accepts and returns uint64 scalars or arrays."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> _U64(30))) * _MIX1
        x = (x ^ (x >> _U64(27))) * _MIX2
        return x ^ (x >> _U64(31))


def derive_key(seed, *parts) -> np.uint64:
    """Fold a seed and a mix of ints / short string tags into a stream key."""
    with np.errstate(over="ignore"):
        key = mix64(_U64(int(seed) & 0xFFFFFFFFFFFFFFFF))
        for part in parts:
            if isinstance(part, str):
                for byte in part.encode():
                    key = mix64(key ^ _U64(byte))
            else:
                key = mix64(key ^ _U64(int(part) & 0xFFFFFFFFFFFFFFFF))
    return np.uint64(key)


def words(key, counters):
    """One decorrelated 64-bit word per (key, counter) pair; broadcasts."""
    counters = np.asarray(counters, dtype=np.uint64)
    key = np.asarray(key, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(key + _GOLDEN * counters)


def uniforms(key, counters):
    """53-bit uniforms in the open interval (0, 1), one per counter."""
    w = words(key, counters)
    return ((w >> _U64(11)).astype(np.float64) + 0.5) * _TWO53


def uniform_configurations(seed, tag: str, interval, size: int, trials: int):
    """Yield ``trials`` configurations of ``size`` spins, each uniform on the
    interval, from consecutive counters of the key ``derive_key(seed, tag)``."""
    key = derive_key(seed, tag)
    for trial in range(trials):
        u = uniforms(key, np.arange(trial * size, (trial + 1) * size, dtype=np.uint64))
        yield interval.a + interval.width * u


class UpdateStream:
    """Deterministic stream of (site index, uniform) update pairs.

    The pair at slot t is a pure function of (key, t); the stream can be
    consumed sequentially with :meth:`take` or revisited at arbitrary
    slots with :meth:`pairs_at`.  Sites are marginally uniform over the
    volume and uniforms are independent across slots.
    """

    def __init__(self, key, n_sites: int):
        if n_sites < 1:
            raise ValueError("n_sites must be positive")
        self.key = np.uint64(key)
        self.n_sites = int(n_sites)
        self.site_key = derive_key(self.key, "site")
        self.uniform_key = derive_key(self.key, "uniform")
        self._cursor = 0

    def pairs_at(self, slots):
        """Vectorized (sites, uniforms) for an array of slot indices."""
        slots = np.asarray(slots, dtype=np.uint64)
        raw = uniforms(self.site_key, slots)
        sites = np.minimum((raw * self.n_sites).astype(np.int64), self.n_sites - 1)
        return sites, uniforms(self.uniform_key, slots)

    def pair_at(self, slot):
        sites, us = self.pairs_at(np.asarray([slot]))
        return int(sites[0]), float(us[0])

    def take(self, n: int):
        """Consume the next n pairs, advancing the cursor."""
        slots = np.arange(self._cursor, self._cursor + n, dtype=np.uint64)
        self._cursor += n
        return self.pairs_at(slots)


def site_uniform_pairs(site_keys, uniform_keys, slot, n_sites: int):
    """One (site, uniform) pair per replica key at a shared slot index."""
    raw = uniforms(site_keys, np.uint64(slot))
    sites = np.minimum((raw * n_sites).astype(np.int64), n_sites - 1)
    return sites, uniforms(uniform_keys, np.uint64(slot))
