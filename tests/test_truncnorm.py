"""The scalar truncated-normal layer against independent oracles.

Oracles used here: direct error-function evaluation (math.erf), composite
Simpson quadrature on a fine grid, and bracketed bisection on the CDF.
Expected values frozen below were computed with those oracles first.
"""

import math

import numpy as np
import pytest

from truncgibbs.errors import DegenerateInterval, OutOfRange, ProbabilityOutOfRange
from truncgibbs.kernel import SpinInterval
from truncgibbs.streams import derive_key, uniforms
from truncgibbs.truncnorm import (
    TruncatedNormal,
    _sample_many,
    _sample_one,
    cdf,
    density,
    inverse_cdf,
    mean,
    varphi,
    varphi_inverse,
)

SYM = SpinInterval(-1.0, 1.0)
UNIT = SpinInterval(0.0, 1.0)
WIDE = SpinInterval(-3.0, 7.0)


def erf_phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def erf_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def simpson(f, a, b, n=4000):
    xs = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(w @ f(xs)) * (b - a) / (3.0 * n)


def bisect_quantile(tn, p, iters=80):
    lo, hi = tn.interval.a, tn.interval.b
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(tn, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------

def test_density_center_symmetric_interval():
    # oracle: phi(0) / (Phi(1) - Phi(-1)) via the error function
    oracle = erf_phi(0.0) / (erf_cdf(1.0) - erf_cdf(-1.0))
    assert oracle == pytest.approx(0.5843685672568167, abs=1e-14)
    assert density(TruncatedNormal(0.0, SYM), 0.0) == pytest.approx(oracle, abs=1e-13)


def test_density_zero_outside_support():
    tn = TruncatedNormal(0.0, SYM)
    assert density(tn, 2.0) == 0.0
    assert density(tn, -1.0000001) == 0.0


def test_density_even_for_centered_mean():
    tn = TruncatedNormal(0.0, SYM)
    for u in np.linspace(0.0, 1.0, 11):
        assert density(tn, u) == density(tn, -u)


@pytest.mark.parametrize("m,interval", [
    (0.0, SYM), (0.4, UNIT), (-2.0, WIDE), (5.0, UNIT), (-4.0, SYM),
])
def test_density_integrates_to_one(m, interval):
    tn = TruncatedNormal(m, interval)
    integral = simpson(lambda u: np.asarray(density(tn, u)), interval.a, interval.b)
    assert abs(integral - 1.0) <= 1e-10


def test_density_positive_inside():
    tn = TruncatedNormal(0.3, UNIT)
    assert np.all(np.asarray(density(tn, np.linspace(0, 1, 101))) > 0.0)


# ---------------------------------------------------------------------------
# Mean shift and mean
# ---------------------------------------------------------------------------

def test_varphi_zero_at_midpoint():
    assert varphi(0.0, SYM) == 0.0
    assert varphi(0.5, UNIT) == pytest.approx(0.0, abs=1e-16)


def test_varphi_unit_interval_frozen_value():
    # oracle: (phi(1) - phi(0)) / (Phi(1) - Phi(0)) via the error function
    oracle = (erf_phi(1.0) - erf_phi(0.0)) / (erf_cdf(1.0) - erf_cdf(0.0))
    assert oracle == pytest.approx(-0.45986222928642656, abs=1e-14)
    assert varphi(0.0, UNIT) == pytest.approx(oracle, abs=1e-13)
    assert varphi(1.0, UNIT) == pytest.approx(-oracle, abs=1e-13)


def test_varphi_odd_about_midpoint():
    rng = np.random.default_rng(0)
    for interval in (SYM, UNIT, WIDE):
        t = rng.uniform(0.0, interval.width / 2, 100)
        left = varphi(interval.midpoint - t, interval)
        right = varphi(interval.midpoint + t, interval)
        assert np.max(np.abs(left + right)) <= 1e-12


def test_varphi_strictly_increasing_on_grid():
    for interval in (SYM, UNIT, WIDE):
        grid = np.linspace(interval.a, interval.b, 1000)
        vals = varphi(grid, interval)
        assert np.all(np.diff(vals) > 0.0)


def test_varphi_log_fallback_far_mean():
    # linear normal mass underflows around 40 sigma out; the log route holds
    v = varphi(-45.0, UNIT)
    assert np.isfinite(v)
    assert v == pytest.approx(-45.0 - (0.0 + 1.0 / 45.0), abs=0.01)  # Mills ratio scale
    m = mean(TruncatedNormal(-45.0, UNIT))
    assert 0.0 < m < 1.0


def test_mean_symmetric_truncation():
    assert mean(TruncatedNormal(0.0, SYM)) == 0.0


def test_mean_unit_interval_frozen_value():
    assert mean(TruncatedNormal(0.0, UNIT)) == pytest.approx(0.45986222928642656, abs=1e-13)


def test_mean_at_midpoint_is_midpoint():
    for interval in (SYM, UNIT, WIDE):
        assert mean(TruncatedNormal(interval.midpoint, interval)) == pytest.approx(
            interval.midpoint, abs=1e-15)


@pytest.mark.parametrize("m,interval", [
    (0.0, UNIT), (0.9, UNIT), (-1.5, SYM), (3.0, WIDE), (-6.0, UNIT),
])
def test_mean_matches_quadrature(m, interval):
    tn = TruncatedNormal(m, interval)
    quad = simpson(lambda u: u * np.asarray(density(tn, u)), interval.a, interval.b)
    assert abs(mean(tn) - quad) <= 1e-8


def test_mean_strictly_inside():
    for m in np.linspace(-8, 9, 35):
        value = mean(TruncatedNormal(float(m), UNIT))
        assert 0.0 < value < 1.0


# ---------------------------------------------------------------------------
# Inverse CDF and sampling
# ---------------------------------------------------------------------------

def test_quantile_boundaries_exact():
    for tn in (TruncatedNormal(0.3, UNIT), TruncatedNormal(-2.0, SYM)):
        assert inverse_cdf(tn, 0.0) == tn.interval.a
        assert inverse_cdf(tn, 1.0) == tn.interval.b


def test_median_of_symmetric_law():
    assert inverse_cdf(TruncatedNormal(0.0, SYM), 0.5) == pytest.approx(0.0, abs=1e-15)


def test_median_unit_interval_bisection_oracle():
    tn = TruncatedNormal(0.0, UNIT)
    oracle = bisect_quantile(tn, 0.5)
    assert oracle == pytest.approx(0.4417705466865812, abs=1e-12)
    assert inverse_cdf(tn, 0.5) == pytest.approx(oracle, abs=1e-10)


def test_quantile_residual_under_1e12():
    worst = 0.0
    for interval in (SYM, UNIT, WIDE):
        for m in np.linspace(interval.a - 10, interval.b + 10, 41):
            tn = TruncatedNormal(float(m), interval)
            p = np.linspace(0.0, 1.0, 201)
            q = inverse_cdf(tn, p)
            worst = max(worst, float(np.max(np.abs(cdf(tn, q) - p))))
    assert worst <= 1e-12


def test_quantile_monotone_in_p_and_m():
    key = derive_key(123, "quantile")
    u = uniforms(key, np.arange(30_000))
    p1, p2 = np.minimum(u[:10_000], u[10_000:20_000]), np.maximum(u[:10_000], u[10_000:20_000])
    m = 3.0 * (u[20_000:] - 0.5)
    tn = TruncatedNormal(0.0, SYM)
    assert np.all(np.asarray(inverse_cdf(tn, p1)) <= np.asarray(inverse_cdf(tn, p2)))
    # monotone in the mean at fixed p
    m1, m2 = np.minimum(m[:5000], m[5000:]), np.maximum(m[:5000], m[5000:])
    p = np.asarray(u[:5000])
    q1 = _sample_many(m1, -1.0, 1.0, p)
    q2 = _sample_many(m2, -1.0, 1.0, p)
    assert np.all(q1 <= q2)


def test_probability_out_of_range():
    with pytest.raises(ProbabilityOutOfRange):
        inverse_cdf(TruncatedNormal(0.0, SYM), 1.5)
    with pytest.raises(ProbabilityOutOfRange):
        inverse_cdf(TruncatedNormal(0.0, SYM), -0.1)


def test_degenerate_interval_signaled():
    with pytest.raises(DegenerateInterval):
        inverse_cdf(TruncatedNormal(1e9, UNIT), 0.5)
    with pytest.raises(DegenerateInterval):
        inverse_cdf(TruncatedNormal(-45.0, UNIT), 0.5)


def test_sample_monotone_coupling_example():
    iv = SYM
    lo = inverse_cdf(TruncatedNormal(-0.3, iv), 0.37)
    hi = inverse_cdf(TruncatedNormal(0.7, iv), 0.37)
    assert lo <= hi


def test_sample_median_symmetric():
    assert inverse_cdf(TruncatedNormal(0.0, SYM), 0.5) == pytest.approx(0.0, abs=1e-15)


def test_sample_bounds_always():
    key = derive_key(7, "bounds")
    u = uniforms(key, np.arange(10_000))
    m = 20.0 * (uniforms(key, np.arange(10_000, 20_000)) - 0.5)
    q = _sample_many(m, 0.0, 1.0, u)
    assert np.all(q >= 0.0) and np.all(q <= 1.0)


def test_sample_monte_carlo_mean_matches_closed_form():
    tn = TruncatedNormal(0.0, UNIT)
    u = uniforms(derive_key(2024, "mc"), np.arange(100_000))
    draws = np.asarray(inverse_cdf(tn, u))
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - mean(tn)) <= 3.0 * se


# the extreme uniforms the stream emits, a tail value and the median
EDGE_UNIFORMS = (2.0 ** -54, 1e-12, 0.5, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("width", [1e-6, 1e-3, 0.1, 1.0, 3.0, 10.0, 20.0])
def test_scalar_twin_matches_quantile_core_bitwise(width, offset):
    """_sample_one, _sample_many and inverse_cdf agree to the last bit."""
    a, b = offset - 0.5 * width, offset + 0.5 * width
    key = derive_key(11, "twin", int(width * 1e6), int(offset))
    random_u = uniforms(key, np.arange(200))
    random_m = a + width * uniforms(key, np.arange(200, 400))
    grid_m = np.linspace(a, b, 41)
    m = np.concatenate([np.repeat(grid_m, len(EDGE_UNIFORMS)), random_m])
    u = np.concatenate([np.tile(EDGE_UNIFORMS, len(grid_m)), random_u])

    many = _sample_many(m, a, b, u)
    one = np.array([_sample_one(float(mi), a, b, float(ui)) for mi, ui in zip(m, u)])
    via_inverse = np.asarray(inverse_cdf(TruncatedNormal(m, SpinInterval(a, b)), u))
    assert np.array_equal(one.view(np.int64), many.view(np.int64))
    assert np.array_equal(via_inverse.view(np.int64), many.view(np.int64))


# ---------------------------------------------------------------------------
# Inverse of the mean shift
# ---------------------------------------------------------------------------

def test_varphi_inverse_oddness_anchor():
    assert varphi_inverse(0.0, SYM) == pytest.approx(0.0, abs=1e-12)
    assert varphi_inverse(0.0, UNIT) == pytest.approx(0.5, abs=1e-12)


def test_varphi_inverse_bracket_endpoints():
    assert varphi_inverse(varphi(-1.0, SYM), SYM) == -1.0
    assert varphi_inverse(varphi(1.0, SYM), SYM) == 1.0


def test_varphi_inverse_round_trip():
    rng = np.random.default_rng(5)
    for interval in (SYM, UNIT):
        for m in rng.uniform(interval.a, interval.b, 100):
            back = varphi_inverse(varphi(float(m), interval), interval)
            assert abs(back - m) <= 1e-10


def test_varphi_inverse_residual():
    rng = np.random.default_rng(6)
    lo, hi = varphi(-1.0, SYM), varphi(1.0, SYM)
    for y in rng.uniform(lo, hi, 50):
        m = varphi_inverse(float(y), SYM)
        assert abs(varphi(m, SYM) - y) <= 1e-12


def test_varphi_inverse_out_of_range():
    with pytest.raises(OutOfRange):
        varphi_inverse(varphi(1.0, SYM) + 0.1, SYM)
