"""Shared generators for randomized property tests (seeded, reproducible),
and the scalar quantile the reference scans update with."""

from scipy.special import ndtr, ndtri

from truncgibbs.kernel import build_kernel


def _lex_positive(z):
    for c in z:
        if c:
            return c > 0
    return False


def random_kernel(rng, dimension=None, max_reach=3):
    """A random finitely supported symmetric kernel of norm 1.

    Only half-space offsets are drawn; the builder fills in the mirrors.
    """
    d = dimension if dimension is not None else int(rng.integers(1, 3))
    n_offsets = int(rng.integers(1, 4))
    raw = {}
    while not raw:
        for _ in range(n_offsets):
            z = tuple(int(c) for c in rng.integers(-max_reach, max_reach + 1, d))
            if _lex_positive(z):
                raw[z] = float(rng.uniform(0.1, 2.0))
    return build_kernel(d, raw)


def random_volume(rng, dimension, max_sites=4, span=5):
    """A random set of distinct sites inside a small box."""
    n = int(rng.integers(1, max_sites + 1))
    sites = set()
    while len(sites) < n:
        sites.add(tuple(int(c) for c in rng.integers(-span, span + 1, dimension)))
    return sorted(sites)


def scalar_quantile(m, a, b, u):
    """The heat-bath quantile of one update on Python floats, one tail by the
    sign of alpha + beta: the per-update reference of the sequential scans,
    equal bit for bit to the vector core ``truncnorm._sample_many``."""
    alpha = a - m
    beta = b - m
    if alpha + beta > 0.0:
        q = m - ndtri((1.0 - u) * ndtr(-alpha) + u * ndtr(-beta))
    else:
        q = m + ndtri((1.0 - u) * ndtr(alpha) + u * ndtr(beta))
    return min(max(q, a), b)
