"""The scalar truncated-normal layer against independent oracles.

Oracles used here: direct error-function evaluation (math.erf), composite
Simpson quadrature on a fine grid, and bracketed bisection on the CDF.
Expected values frozen below were computed with those oracles first.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import log1p, log_ndtr, ndtr, ndtri

from helpers import scalar_quantile
from truncgibbs import truncnorm
from truncgibbs.errors import DegenerateInterval, OutOfRange, ProbabilityOutOfRange
from truncgibbs.kernel import SpinInterval
from truncgibbs.sampler import _array_ends, _order_tolerance
from truncgibbs.streams import derive_key, uniforms
from truncgibbs.truncnorm import (
    TruncatedNormal,
    _mass,
    _sample_many,
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

def test_phi_is_libm_exp_bit_for_bit():
    # numpy's float64 np.exp gives other last bits on its AVX-512 kernel than
    # on its AVX2 kernel; the density takes libm's, so it has one set of bits
    xs = np.linspace(-40.0, 40.0, 100_001)
    got = truncnorm._phi(xs)
    want = np.array([math.exp(-0.5 * x * x) / truncnorm._SQRT_2PI for x in xs.tolist()])
    assert got.tobytes() == want.tobytes()


def test_log_space_division_is_libm_bit_for_bit():
    # below _TINY_MASS the density and the mean shift divide in log space;
    # numpy's exp and log1p give other last bits on its AVX-512 kernels than
    # on its AVX2 ones, and the division takes libm's exp and scipy's log1p
    far = np.linspace(8.5, 60.0, 2_001)
    means = np.concatenate([-far, far])
    means = means[_mass(UNIT.a - means, UNIT.b - means) < truncnorm._TINY_MASS]
    assert means.size > 3_900

    def log_sub(hi, lo):
        return hi + log1p(-math.exp(lo - hi))

    def log_phi(x):
        return -0.5 * x * x - truncnorm._LOG_SQRT_2PI

    shifts, densities = [], []
    for m in means.tolist():
        alpha, beta = 0.0 - m, 1.0 - m
        lo, hi = (-beta, -alpha) if alpha > 0.0 else (alpha, beta)
        log_z = log_sub(log_ndtr(hi), log_ndtr(lo))
        la, lb = log_phi(alpha), log_phi(beta)
        sign = 1.0 if lb >= la else -1.0
        shifts.append(sign * math.exp(log_sub(max(la, lb), min(la, lb)) - log_z))
        densities.append(math.exp(log_phi(0.5 - m) - log_z))
    assert varphi(means, UNIT).tobytes() == np.array(shifts).tobytes()
    assert density(TruncatedNormal(means, UNIT), 0.5).tobytes() == np.array(densities).tobytes()


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


@pytest.mark.parametrize("m", [-40.0, 41.0, -200.0])
def test_density_log_space_branch(m):
    # [0, 1] holds less than 1e-15 of the normal mass at these centres, so the
    # density divides in log space; it still integrates to one
    tn = TruncatedNormal(m, UNIT)
    integral = simpson(lambda u: np.asarray(density(tn, u)), 0.0, 1.0, n=200_000)
    assert abs(integral - 1.0) <= 1e-13
    # Z = Phi(s) - Phi(t) with t < s <= -40: the interval, reflected about m
    # when it lies above m, sits in the lower tail
    s, t = (m - 0.0, m - 1.0) if m < 0.0 else (1.0 - m, 0.0 - m)
    log_z = log_ndtr(s) + np.log1p(-np.exp(log_ndtr(t) - log_ndtr(s)))
    u = np.linspace(0.0, 1.0, 101)
    reference = np.exp(-0.5 * (u - m) ** 2 - 0.5 * np.log(2.0 * np.pi) - log_z)
    np.testing.assert_allclose(density(tn, u), reference, rtol=1e-13, atol=0.0)


def test_density_is_elementwise():
    # [0, 1] holds less than _TINY_MASS of the normal mass at m = 60, -45 and
    # 41 but not at the others; in one batch each element keeps the bits it
    # has alone, as varphi's elements do
    means = np.array([0.5, 60.0, -0.3, -45.0, 2.0, 41.0, 0.7, 3.5])
    points = np.array([0.3, 0.3, 0.0, 0.5, 1.0, 0.7, 0.25, 0.9])
    batch = density(TruncatedNormal(means, UNIT), points)
    alone = [density(TruncatedNormal(m, UNIT), u) for m, u in zip(means.tolist(), points.tolist())]
    assert batch.tobytes() == np.array(alone).tobytes()


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


def test_nan_probability_rejected():
    with pytest.raises(ProbabilityOutOfRange):
        inverse_cdf(TruncatedNormal(0.0, SYM), np.nan)
    with pytest.raises(ProbabilityOutOfRange):
        inverse_cdf(TruncatedNormal(0.0, SYM), np.array([0.5, np.nan]))


def test_degenerate_interval_signaled():
    with pytest.raises(DegenerateInterval):
        inverse_cdf(TruncatedNormal(1e9, UNIT), 0.5)
    with pytest.raises(DegenerateInterval):
        inverse_cdf(TruncatedNormal(-45.0, UNIT), 0.5)
    # a NaN mean has no mass either; unchecked, both returned NaN
    with pytest.raises(DegenerateInterval):
        inverse_cdf(TruncatedNormal(np.array([0.5, np.nan]), UNIT), 0.5)
    with pytest.raises(DegenerateInterval):
        cdf(TruncatedNormal(np.nan, UNIT), 0.5)


@pytest.mark.parametrize("call", [
    lambda tn, u: cdf(tn, u),
    lambda tn, u: density(tn, u),
], ids=["cdf", "density"])
def test_nan_point_rejected(call):
    # unchecked, cdf returned NaN and density 0.0 for a NaN point
    tn = TruncatedNormal(0.3, UNIT)
    with pytest.raises(OutOfRange, match="must not be NaN"):
        call(tn, np.nan)
    with pytest.raises(OutOfRange, match="must not be NaN"):
        call(tn, np.array([0.5, np.nan]))


@pytest.mark.parametrize("m", [np.nan, np.array([0.5, np.nan]), np.array([60.0, np.nan])],
                         ids=["scalar", "plain-path", "log-space-path"])
def test_nan_mean_rejected_everywhere(m):
    # unchecked, density, varphi and mean returned NaN for a NaN mean; the
    # finite mean 60 beside it takes the log-space path of a tiny mass
    tn = TruncatedNormal(m, UNIT)
    for call in (lambda: density(tn, 0.5), lambda: cdf(tn, 0.5), lambda: mean(tn),
                 lambda: varphi(m, UNIT), lambda: inverse_cdf(tn, 0.5)):
        with pytest.raises(DegenerateInterval, match="no normal mass"):
            call()


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
    """The scalar reference of the sequential scans, the quantile core
    _sample_many and inverse_cdf agree to the last bit."""
    a, b = offset - 0.5 * width, offset + 0.5 * width
    key = derive_key(11, "twin", int(width * 1e6), int(offset))
    random_u = uniforms(key, np.arange(200))
    random_m = a + width * uniforms(key, np.arange(200, 400))
    grid_m = np.linspace(a, b, 41)
    m = np.concatenate([np.repeat(grid_m, len(EDGE_UNIFORMS)), random_m])
    u = np.concatenate([np.tile(EDGE_UNIFORMS, len(grid_m)), random_u])

    many = _sample_many(m, a, b, u)
    one = np.array([scalar_quantile(float(mi), a, b, float(ui)) for mi, ui in zip(m, u)])
    via_inverse = np.asarray(inverse_cdf(TruncatedNormal(m, SpinInterval(a, b)), u))
    assert np.array_equal(one.view(np.int64), many.view(np.int64))
    assert np.array_equal(via_inverse.view(np.int64), many.view(np.int64))


def two_tail_quantile(m, a, b, u):
    """The quantile core with both tails evaluated for every element and one
    kept by the sign of alpha + beta: the bitwise reference for
    :func:`_sample_many`."""
    alpha = a - m
    beta = b - m
    sa, sb = ndtr(-alpha), ndtr(-beta)
    fa, fb = ndtr(alpha), ndtr(beta)
    with np.errstate(all="ignore"):
        q = np.where(
            (alpha + beta) > 0.0,
            m - ndtri((1.0 - u) * sa + u * sb),
            m + ndtri((1.0 - u) * fa + u * fb),
        )
    return np.clip(q, a, b)


def stream_uniform(k):
    """The uniform ``streams.uniforms`` makes of the top 53 bits ``k``."""
    return min((float(k) + 0.5) * 2.0 ** -53, 1.0 - 2.0 ** -53)


@st.composite
def quantile_inputs(draw):
    """An interval, and means with uniforms for one vector call on it."""
    kind = draw(st.sampled_from(["offset", "dyadic", "signed zero"]))
    if kind == "offset":
        width = 10.0 ** draw(st.floats(-6.0, 2.0))
        centre = draw(st.floats(-1e3, 1e3))
        a, b = centre - 0.5 * width, centre + 0.5 * width
    elif kind == "dyadic":
        # the midpoint and both endpoint offsets from it are exact: alpha + beta == 0
        scale = 2.0 ** draw(st.integers(-20, 6))
        lo = draw(st.integers(-2 ** 10, 2 ** 10))
        a, b = lo * scale, (lo + 2 * draw(st.integers(1, 2 ** 10))) * scale
    else:
        width = 10.0 ** draw(st.floats(-6.0, 2.0))
        zero = draw(st.sampled_from([0.0, -0.0]))
        a, b = draw(st.sampled_from([(zero, width), (-width, zero)]))
    width = b - a
    means = st.one_of(
        st.floats(a, b),
        st.floats(0.0, width + 40.0).map(lambda d: a - d),
        st.floats(0.0, width + 40.0).map(lambda d: b + d),
        st.sampled_from([0.5 * (a + b), a, b, 0.0, -0.0]),
    )
    words = st.one_of(st.integers(0, 2 ** 53 - 1),
                      st.sampled_from([0, 9007, 2 ** 52, 2 ** 53 - 2, 2 ** 53 - 1]))
    pairs = draw(st.lists(st.tuples(means, words.map(stream_uniform)), min_size=1, max_size=24))
    m, u = map(np.array, zip(*pairs))
    return a, b, m, u


@settings(max_examples=400, deadline=None)
@given(inputs=quantile_inputs())
@example(inputs=(0.0, 1.0, np.array([-0.0]), np.array([2.0 ** -54])))   # q = -0.0 on a = 0.0
@example(inputs=(-0.0, 1.0, np.array([0.0]), np.array([2.0 ** -54])))
@example(inputs=(-0.75, 1.25, np.array([0.25, 0.25]), np.array([2.0 ** -54, 1.0 - 2.0 ** -53])))
def test_one_tail_core_matches_two_tail_formula_bitwise(inputs):
    a, b, m, u = inputs
    got = _sample_many(m, a, b, u)
    assert got.view(np.int64).tolist() == two_tail_quantile(m, a, b, u).view(np.int64).tolist()


def test_quantile_core_evaluates_one_tail(monkeypatch):
    """2 ndtr and 1 ndtri evaluated per element, whichever tail it takes."""
    counts = {"ndtr": 0, "ndtri": 0}

    def counting(name, f):
        def wrapped(x, *args, **kwargs):      # the core evaluates with out=
            counts[name] += np.size(x)
            return f(x, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(truncnorm, "ndtr", counting("ndtr", ndtr))
    monkeypatch.setattr(truncnorm, "ndtri", counting("ndtri", ndtri))
    m = np.array([0.1, 0.5, 0.9, -3.0, 4.0, 0.5])   # both tails and the midpoint
    u = np.array([2.0 ** -54, 0.3, 0.5, 1e-12, 0.7, 1.0 - 2.0 ** -53])
    _sample_many(m, 0.0, 1.0, u)
    assert counts == {"ndtr": 2 * m.size, "ndtri": m.size}


@st.composite
def uniform_ladders(draw):
    """An interval of width 1e-6 to 100 around an offset centre; means at its
    ends, its midpoint and inside it, as the runs clip them; and an
    increasing ladder of stream uniforms: both extreme lattice points and
    random ones, each next to its lattice neighbour."""
    width = 10.0 ** draw(st.floats(-6.0, 2.0))
    centre = draw(st.floats(-1e3, 1e3))
    a, b = centre - 0.5 * width, centre + 0.5 * width
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    means = np.concatenate([[a, b, 0.5 * (a + b)], rng.uniform(a, b, 13)])
    words = rng.integers(0, 2 ** 53 - 1, 60)
    words = np.unique(np.concatenate([[0, 1, 2 ** 53 - 2, 2 ** 53 - 1], words, words + 1]))
    u = np.array([stream_uniform(k) for k in words.tolist()])
    return a, b, means, u


@settings(max_examples=200, deadline=None)
@given(inputs=uniform_ladders())
def test_quantile_core_non_decreasing_in_u(inputs):
    # the coupled chains share u, not the mean; an inversion in u within the
    # order tolerance is rounding, which the runs repair.  The tolerance
    # scales with the interval, so means far beyond it, which the runs never
    # pass, are left out: m + ndtri(...) then rounds at the scale of m
    a, b, means, u = inputs
    m = np.repeat(means, u.size)
    q = _sample_many(m, a, b, np.tile(u, means.size)).reshape(means.size, u.size)
    assert np.diff(q, axis=1).min() >= -_order_tolerance(SpinInterval(a, b))


def where_sign_quantile(m, a, b, u):
    """The quantile core with the sign from ``np.where`` and each step a new
    array: the bitwise reference for the in-place :func:`_sample_many`."""
    alpha = a - m
    beta = b - m
    s = np.where(alpha + beta > 0.0, -1.0, 1.0)
    q = m + s * ndtri((1.0 - u) * ndtr(s * alpha) + u * ndtr(s * beta))
    return q.clip(a, b)


@st.composite
def core_inputs(draw):
    """An interval of width 1e-6 to 100 around an offset centre, with 1 to
    300 means inside it and up to 40 units beyond either end, and stream
    uniforms that include both extreme lattice points."""
    width = 10.0 ** draw(st.floats(-6.0, 2.0))
    centre = draw(st.floats(-1e3, 1e3))
    a, b = centre - 0.5 * width, centre + 0.5 * width
    size = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    reach = draw(st.sampled_from([0.0, 1.0, 5.0, 40.0]))
    m = rng.uniform(a - reach, b + reach, size)
    m[rng.integers(0, size, 3)] = [a, b, 0.5 * (a + b)]
    words = rng.integers(0, 2 ** 53, size)
    words[rng.integers(0, size, 2)] = [0, 2 ** 53 - 1]
    u = np.array([stream_uniform(k) for k in words.tolist()])
    return a, b, m, u


@settings(max_examples=200, deadline=None)
@given(inputs=core_inputs())
def test_quantile_core_leaves_inputs_unchanged(inputs):
    a, b, m, u = inputs
    m0, u0 = m.copy(), u.copy()
    _sample_many(m, a, b, u)
    assert m.tobytes() == m0.tobytes() and u.tobytes() == u0.tobytes()


@settings(max_examples=200, deadline=None)
@given(inputs=core_inputs())
def test_quantile_core_stays_in_the_interval(inputs):
    a, b, m, u = inputs
    q = _sample_many(m, a, b, u)
    assert np.all((q >= a) & (q <= b))


@settings(max_examples=200, deadline=None)
@given(inputs=core_inputs())
def test_in_place_core_matches_where_formula_bitwise(inputs):
    a, b, m, u = inputs
    assert _sample_many(m, a, b, u).tobytes() == where_sign_quantile(m, a, b, u).tobytes()


@settings(max_examples=200, deadline=None)
@given(inputs=core_inputs())
def test_quantile_core_takes_0d_ends_bitwise(inputs):
    # the vector runs pass the ends as 0-d arrays, the bitwise references as floats
    a, b, m, u = inputs
    a0, b0 = _array_ends(SpinInterval(a, b))
    got = _sample_many(m, a0, b0, u)
    assert got.shape == m.shape and got.tobytes() == _sample_many(m, a, b, u).tobytes()
    assert (a0.tobytes(), b0.tobytes()) == (np.float64(a).tobytes(), np.float64(b).tobytes())


def where_sign_inverse_cdf(m, a, b, p):
    """:func:`inverse_cdf` past its checks, on the ``np.where`` core, which
    also takes a 0-d mean."""
    m, p = np.asarray(m, dtype=float), np.asarray(p, dtype=float)
    q = np.where(p == 0.0, a, np.where(p == 1.0, b, where_sign_quantile(m, a, b, p)))
    return q if q.ndim else float(q)


@settings(max_examples=100, deadline=None)
@given(inputs=core_inputs())
def test_inverse_cdf_keeps_bits_and_shapes(inputs):
    a, b, m, u = inputs
    m = m.clip(a - 5.0, b + 5.0)           # further out the normal mass can underflow
    u[:2] = [0.0, 1.0][:u.size]
    grid = u.reshape(2, -1) if u.size % 2 == 0 else u
    cases = [
        (np.asarray(m[0]), float(u[0])),   # 0-d mean, scalar p
        (np.asarray(m[0]), u),             # 0-d mean, array p
        (float(m[0]), grid),               # scalar mean, array p
        (m, float(u[-1])),                 # array mean, scalar p
        (m, u),
    ]
    for mean_, p in cases:
        got = inverse_cdf(TruncatedNormal(mean_, SpinInterval(a, b)), p)
        want = where_sign_inverse_cdf(mean_, a, b, p)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# The normal mass of an interval
# ---------------------------------------------------------------------------

def two_tail_mass(alpha, beta):
    """Both normal tails evaluated and one kept by ``np.where``: the bitwise
    reference for the one-tail :func:`truncnorm._mass`."""
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    upper = ndtr(-alpha) - ndtr(-beta)
    lower = ndtr(beta) - ndtr(alpha)
    return np.where(alpha > 0.0, upper, lower)


# both tails, the midpoint, signed zeros, ends past +-38.5 where ndtr reaches
# 0 (so equal ndtr values and zero masses in either tail) and NaN
MASS_ENDS = st.one_of(st.floats(-50.0, 50.0),
                      st.sampled_from([0.0, -0.0, 9.0, -9.0, 40.0, -40.0, 45.0, -45.0, np.nan]))


@st.composite
def mass_pairs(draw):
    """1 to 32 pairs alpha <= beta (or with a NaN), some of them equal or
    one ulp apart."""
    def ordered(pair):
        x, y = pair
        return (y, x) if y < x else (x, y)
    pairs = st.one_of(st.tuples(MASS_ENDS, MASS_ENDS).map(ordered),
                      MASS_ENDS.map(lambda x: (x, x)),
                      MASS_ENDS.map(lambda x: (x, float(np.nextafter(x, np.inf)))))
    alpha, beta = map(np.array, zip(*draw(st.lists(pairs, min_size=1, max_size=32))))
    return alpha, beta


@settings(max_examples=300, deadline=None)
@given(pairs=mass_pairs())
@example(pairs=(np.array([40.0, -45.0, 1.0, 0.0]), np.array([45.0, -40.0, 1.0, -0.0])))
@example(pairs=(np.array([np.nan, 1.0, np.nan]), np.array([1.0, np.nan, np.nan])))
@example(pairs=(np.array([-0.1]), np.array([0.3])))   # the tails differ in the last bit
def test_one_tail_mass_matches_two_tail_formula_bitwise(pairs):
    # a zero mass (equal ndtr values) stays +0.0 in both tails, NaN stays NaN
    alpha, beta = pairs
    assert _mass(alpha, beta).tobytes() == two_tail_mass(alpha, beta).tobytes()
    for x, y in zip(alpha[:4].tolist(), beta[:4].tolist()):   # scalar operands
        assert np.asarray(_mass(x, y)).tobytes() == two_tail_mass(x, y).tobytes()


def test_mass_evaluates_one_tail(monkeypatch):
    """2 ndtr per element in ``_mass``, and so in ``varphi`` away from its
    log-space fallback, whichever tail an element takes."""
    count = [0]

    def counting(x, *args, **kwargs):
        count[0] += np.size(x)
        return ndtr(x, *args, **kwargs)

    monkeypatch.setattr(truncnorm, "ndtr", counting)
    alpha = np.array([-3.0, -0.5, 0.0, 0.25, 2.0, 9.0])   # both tails and zero
    _mass(alpha, alpha + 1.0)
    assert count[0] == 2 * alpha.size
    count[0] = 0
    m = np.linspace(-2.0, 3.0, 11)
    varphi(m, UNIT)
    assert count[0] == 2 * m.size


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
    with pytest.raises(OutOfRange):         # unchecked, NaN bisected to about a
        varphi_inverse(np.nan, UNIT)
