"""Truncated-normal mathematics for one spin.

Everything the dynamics needs about the unit-variance normal conditioned
to [a, b]: density, CDF, inverse CDF, the closed-form mean, and the
mean-shift function (odd about the interval midpoint, increasing, and
invertible) together with its inverse.

Sampling is by inverse CDF on purpose: the map (m, u) -> quantile is
deterministic and non-decreasing in both arguments up to rounding (see
:func:`_sample_many`), so coupled chains keep pointwise order.  One
quantile kernel, :func:`_sample_many`, makes every draw, each from one
normal tail, as each interval mass (:func:`_mass`) takes one tail.  All
functions broadcast over numpy arrays and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy._core.umath import clip as _clip   # the ufunc behind ndarray.clip
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import DegenerateInterval, OutOfRange, ProbabilityOutOfRange
from .kernel import SpinInterval

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_TINY_MASS = 1e-15   # below this, switch from linear to log-space formulas
_SIGN = np.array([1.0, -1.0])   # the tail sign s, indexed by [upper tail]
_ZERO, _ONE = np.array(0.0), np.array(1.0)   # 0-d operands for _sample_many


def _phi(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _log_phi(x):
    return -0.5 * x * x - _LOG_SQRT_2PI


def _mass(alpha, beta):
    """Phi(beta) - Phi(alpha) through the smaller tail, elementwise.

    One normal tail per element, 2 ``ndtr``: s (Phi(s beta) - Phi(s alpha))
    with s = -1 from ``_SIGN`` where alpha > 0 (the survival side, accurate
    there), else s = 1.  Negation is exact and x - y is -(y - x), so each
    element gets the bits of its tail's formula as written.  A zero mass
    from equal ``ndtr`` values comes out as s * +0.0, which is -0.0 for
    s = -1; adding +0.0 keeps it at +0.0 and changes no other value.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    s = _SIGN.take(alpha > 0.0)
    return s * (ndtr(s * beta) - ndtr(s * alpha)) + 0.0


def _log_mass(alpha, beta):
    """log(Phi(beta) - Phi(alpha)), stable arbitrarily far into either tail."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    # reflect so the interval sits in the lower tail, where log_ndtr is sharp
    flip = alpha > 0.0
    lo = np.where(flip, -beta, alpha)
    hi = np.where(flip, -alpha, beta)
    la, lb = log_ndtr(lo), log_ndtr(hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return lb + np.log1p(-np.exp(la - lb))


@dataclass(frozen=True)
class TruncatedNormal:
    """The unit-variance normal with pre-truncation mean m conditioned to [a, b]."""

    m: float
    interval: SpinInterval


def _endpoints(m, interval):
    m = np.asarray(m, dtype=float)
    return interval.a - m, interval.b - m


def _points(u):
    """``u`` as floats; NaN, which is no point of the line, raises OutOfRange."""
    u = np.asarray(u, dtype=float)
    if np.isnan(u).any():
        raise OutOfRange("the point u must not be NaN")
    return u


def density(tn: TruncatedNormal, u):
    """phi(u - m) / (Phi(b - m) - Phi(a - m)) on [a, b], zero outside."""
    alpha, beta = _endpoints(tn.m, tn.interval)
    u = _points(u)
    z = _mass(alpha, beta)
    small = ~(z >= _TINY_MASS)      # NaN too: a NaN mean fails the log-space check
    if np.any(small):
        logz = _log_mass(alpha, beta)
        if np.any(~np.isfinite(np.where(small, logz, 0.0))):
            raise DegenerateInterval(f"no normal mass on [{tn.interval.a}, {tn.interval.b}] for m={tn.m}")
        g = np.exp(_log_phi(u - tn.m) - logz)
    else:
        g = _phi(u - tn.m) / z
    inside = (u >= tn.interval.a) & (u <= tn.interval.b)
    out = np.where(inside, g, 0.0)
    return out if out.ndim else float(out)


def cdf(tn: TruncatedNormal, u):
    """(Phi(u - m) - Phi(a - m)) / (Phi(b - m) - Phi(a - m)), clamped to [0, 1]."""
    alpha, beta = _endpoints(tn.m, tn.interval)
    u = _points(u)
    z = _mass(alpha, beta)
    if not np.all(z > 0.0):         # NaN too: a NaN mean has no mass
        raise DegenerateInterval(f"no normal mass on [{tn.interval.a}, {tn.interval.b}] for m={tn.m}")
    f = np.clip(_mass(alpha, u - tn.m) / z, 0.0, 1.0)
    f = np.where(u <= tn.interval.a, 0.0, np.where(u >= tn.interval.b, 1.0, f))
    return f if f.ndim else float(f)


def varphi(m, interval: SpinInterval):
    """The mean-shift (phi(b-m) - phi(a-m)) / (Phi(b-m) - Phi(a-m)).

    Odd about the interval midpoint and strictly increasing on [a, b];
    the truncated-normal mean is m minus this value.  The mass takes 2
    ``ndtr`` per element (:func:`_mass`), and the ``np.where`` guards of
    the log-space fallback run only when some mass is below ``_TINY_MASS``
    or NaN; a NaN mean then fails the fallback's check and raises
    DegenerateInterval.
    """
    alpha, beta = _endpoints(m, interval)
    z = _mass(alpha, beta)
    small = ~(z >= _TINY_MASS)
    if not np.any(small):
        plain = (_phi(beta) - _phi(alpha)) / z
        return plain if plain.ndim else float(plain)

    # log-space fallback: numerator and denominator shrink at matched rates
    logz = _log_mass(alpha, beta)
    la, lb = _log_phi(alpha), _log_phi(beta)
    hi = np.maximum(la, lb)
    lo = np.minimum(la, lb)
    with np.errstate(divide="ignore", invalid="ignore"):
        lognum = hi + np.log1p(-np.exp(lo - hi))
    sign = np.where(lb >= la, 1.0, -1.0)
    fallback = sign * np.exp(lognum - logz)
    if np.any(small & ~np.isfinite(fallback)):
        raise DegenerateInterval(f"no normal mass on [{interval.a}, {interval.b}] for m={m}")
    plain = (_phi(beta) - _phi(alpha)) / np.where(small, 1.0, z)
    out = np.where(small, fallback, plain)
    return out if out.ndim else float(out)


def mean(tn: TruncatedNormal):
    """E[X] = m - varphi(m); always interior to (a, b)."""
    out = np.asarray(tn.m, dtype=float) - varphi(tn.m, tn.interval)
    return out if out.ndim else float(out)


def inverse_cdf(tn: TruncatedNormal, p):
    """The quantile F^{-1}(p), clipped to [a, b], by :func:`_sample_many`.

    Draws by inverse CDF from a shared uniform, the map the monotone
    coupling is built on; it is non-decreasing in p and in m only within
    rounding, and only where :func:`_sample_many` says.  The residual
    |F(quantile) - p| stays below 1e-12 for any mean within tens of units
    of the interval.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):     # NaN too
        raise ProbabilityOutOfRange("p must lie in [0, 1]")
    alpha, beta = _endpoints(tn.m, tn.interval)
    if not np.all(_mass(alpha, beta) > 0.0):     # NaN too
        raise DegenerateInterval(f"no normal mass on [{tn.interval.a}, {tn.interval.b}] for m={tn.m}")
    a, b = tn.interval.a, tn.interval.b
    m, u = np.broadcast_arrays(np.asarray(tn.m, dtype=float), p)
    q = _sample_many(np.atleast_1d(m), a, b, np.atleast_1d(u)).reshape(m.shape)
    q = np.where(p == 0.0, a, np.where(p == 1.0, b, q))
    return q if q.ndim else float(q)


def _sample_many(m, a, b, u):
    """The one quantile kernel, on raw arrays: the runs' hot path, ``site_update``
    on one element, and :func:`inverse_cdf` behind its input checks.

    One normal tail per element, by the sign of alpha + beta: with s = -1
    (mean below the midpoint) m - ndtri((1-u) Phi(-alpha) + u Phi(-beta)),
    else the lower tail with s = 1.  Scaling by s = +-1 is exact and
    m + (-y) is m - y, so each element gets its own tail formula's bits.
    The sign is read from the two-entry table ``_SIGN`` at [alpha + beta > 0],
    and the formula runs in place in the fresh alpha and beta buffers, one
    two-operand step at a time; the operands of each step commute exactly,
    so the bits are those of the formula as written.  ``m`` and ``u`` are
    arrays of one shape (at least 1-D) and are never written; ``a`` and ``b``
    may be floats, numpy scalars or 0-d arrays, with the same bits.

    Non-decreasing only within the sampler's ``_order_tolerance``, and not
    everywhere.  In u it holds for means in [a, b], as the runs clip them;
    a mean 35 units above b inverts adjacent stream uniforms by 2x the
    tolerance (m + ndtri rounds at the scale of m).  In m, inversions pass
    the tolerance from widths b - a of about 6 up (27x at width 8), where
    the sign of alpha + beta picks a tail whose target rounds to 0 or 1.

    A level of the dynamics is a few dozen elements, where each of the 17
    numpy calls costs far more than its arithmetic, and a call with a 0-d
    float64 operand costs less than one with a numpy scalar or a Python
    float (``1.0 - u`` 429 vs 1258 ns, the clip 639 vs 1040 ns, ``a - m`` 631
    vs 831 ns at 16 elements, best of 7).  So the vector runs pass the
    interval's ends as 0-d arrays, the constants here are the 0-d ``_ZERO``
    and ``_ONE``, and the final clip calls numpy's clip ufunc without the
    ``ndarray.clip`` wrapper.
    """
    alpha = a - m
    beta = b - m
    s = _SIGN.take(alpha + beta > _ZERO)
    alpha *= s
    p = ndtr(alpha, out=alpha)
    p *= _ONE - u
    beta *= s
    t = ndtr(beta, out=beta)
    t *= u
    p += t
    q = ndtri(p, out=p)
    q *= s
    q += m
    return _clip(q, a, b, out=q)   # np.clip's bits; min/max would flip -0.0 to +0.0


def varphi_inverse(y, interval: SpinInterval):
    """The m in [a, b] with varphi(m) = y, by bracketed bisection.

    The attainable range is [varphi(a), varphi(b)] since the mean shift is
    increasing; values outside, and NaN, raise OutOfRange.
    """
    y = float(y)
    lo, hi = interval.a, interval.b
    v_lo = varphi(lo, interval)
    v_hi = varphi(hi, interval)
    if not v_lo <= y <= v_hi:       # NaN too
        raise OutOfRange(f"{y} outside attainable range [{v_lo}, {v_hi}]")
    if y == v_lo:
        return lo
    if y == v_hi:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if varphi(mid, interval) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
