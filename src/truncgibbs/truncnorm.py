"""Scalar truncated-normal mathematics.

Everything the dynamics needs about the unit-variance normal conditioned
to [a, b]: density, CDF, inverse CDF, the closed-form mean, and the
mean-shift function (odd about the interval midpoint, increasing, and
invertible) together with its inverse.

Sampling is by inverse CDF on purpose: the map (m, u) -> quantile is
deterministic and non-decreasing in both arguments, which is what makes
coupled chains driven by shared uniforms preserve pointwise order, and
each draw evaluates one normal tail (:func:`_sample_many`).  All
functions broadcast over numpy arrays and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import DegenerateInterval, OutOfRange, ProbabilityOutOfRange
from .kernel import SpinInterval

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_TINY_MASS = 1e-15   # below this, switch from linear to log-space formulas


def _phi(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _log_phi(x):
    return -0.5 * x * x - _LOG_SQRT_2PI


def _mass(alpha, beta):
    """Phi(beta) - Phi(alpha) through the smaller tail, elementwise."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    upper = ndtr(-alpha) - ndtr(-beta)   # survival side, accurate when alpha > 0
    lower = ndtr(beta) - ndtr(alpha)
    return np.where(alpha > 0.0, upper, lower)


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


def density(tn: TruncatedNormal, u):
    """phi(u - m) / (Phi(b - m) - Phi(a - m)) on [a, b], zero outside."""
    alpha, beta = _endpoints(tn.m, tn.interval)
    u = np.asarray(u, dtype=float)
    z = _mass(alpha, beta)
    small = z < _TINY_MASS
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
    u = np.asarray(u, dtype=float)
    z = _mass(alpha, beta)
    if np.any(z <= 0.0):
        raise DegenerateInterval(f"no normal mass on [{tn.interval.a}, {tn.interval.b}] for m={tn.m}")
    f = np.clip(_mass(alpha, u - tn.m) / z, 0.0, 1.0)
    f = np.where(u <= tn.interval.a, 0.0, np.where(u >= tn.interval.b, 1.0, f))
    return f if f.ndim else float(f)


def varphi(m, interval: SpinInterval):
    """The mean-shift (phi(b-m) - phi(a-m)) / (Phi(b-m) - Phi(a-m)).

    Odd about the interval midpoint and strictly increasing on [a, b];
    the truncated-normal mean is m minus this value.
    """
    alpha, beta = _endpoints(m, interval)
    z = _mass(alpha, beta)
    small = z < _TINY_MASS
    plain = np.where(small, np.nan, (_phi(beta) - _phi(alpha)) / np.where(small, 1.0, z))
    if not np.any(small):
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
    out = np.where(small, fallback, plain)
    return out if out.ndim else float(out)


def mean(tn: TruncatedNormal):
    """E[X] = m - varphi(m); always interior to (a, b)."""
    out = np.asarray(tn.m, dtype=float) - varphi(tn.m, tn.interval)
    return out if out.ndim else float(out)


def inverse_cdf(tn: TruncatedNormal, p):
    """The quantile F^{-1}(p), monotone in both p and m, clipped to [a, b].

    Draws by inverse CDF from a shared uniform: for fixed p the map is
    non-decreasing in m, which realizes the monotone coupling the
    attractive dynamics is built on.  Computed through whichever normal
    tail is better conditioned; the residual |F(quantile) - p| stays below
    1e-12 for any mean within tens of units of the interval.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p < 0.0) | (p > 1.0)):
        raise ProbabilityOutOfRange("p must lie in [0, 1]")
    alpha, beta = _endpoints(tn.m, tn.interval)
    if np.any(_mass(alpha, beta) <= 0.0):
        raise DegenerateInterval(f"no normal mass on [{tn.interval.a}, {tn.interval.b}] for m={tn.m}")
    a, b = tn.interval.a, tn.interval.b
    q = _sample_many(np.asarray(tn.m, dtype=float), a, b, p)
    q = np.where(p == 0.0, a, np.where(p == 1.0, b, q))
    return q if q.ndim else float(q)


def _sample_many(m, a, b, u):
    """The quantile core on raw arrays: the dynamics hot path, and
    :func:`inverse_cdf` behind its input checks.

    One normal tail per element, by the sign of alpha + beta: with s = -1
    (mean below the midpoint) m - ndtri((1-u) Phi(-alpha) + u Phi(-beta)),
    else the lower tail with s = 1.  Scaling by s = +-1 is exact and
    m + (-y) is m - y, so each element gets its own tail formula's bits.
    """
    alpha = a - m
    beta = b - m
    s = np.where(alpha + beta > 0.0, -1.0, 1.0)
    q = m + s * ndtri((1.0 - u) * ndtr(s * alpha) + u * ndtr(s * beta))
    return q.clip(a, b)   # np.clip's bits without its wrapper; min/max would flip -0.0


def _sample_one(m, a, b, u):
    """Scalar twin of :func:`_sample_many`: the same values bit for bit,
    with no array overhead."""
    alpha = a - m
    beta = b - m
    if alpha + beta > 0.0:
        q = m - ndtri((1.0 - u) * ndtr(-alpha) + u * ndtr(-beta))
    else:
        q = m + ndtri((1.0 - u) * ndtr(alpha) + u * ndtr(beta))
    return min(max(q, a), b)


def varphi_inverse(y, interval: SpinInterval):
    """The m in [a, b] with varphi(m) = y, by bracketed bisection.

    The attainable range is [varphi(a), varphi(b)] since the mean shift is
    increasing; values outside raise OutOfRange.
    """
    y = float(y)
    lo, hi = interval.a, interval.b
    v_lo = varphi(lo, interval)
    v_hi = varphi(hi, interval)
    if y < v_lo or y > v_hi:
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
