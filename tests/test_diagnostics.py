import tracemalloc

import numpy as np
import pytest

from truncgibbs import diagnostics
from truncgibbs.diagnostics import (
    MIN_N_Q,
    _simpson_weights,
    batch_means_se,
    ks_distance,
    quadrature_marginals,
    stationarity_check,
)
from truncgibbs.errors import NotTorus, TooFewSamples, VolumeTooLarge
from truncgibbs.finite_spec import build_matrices
from truncgibbs.kernel import (
    LatticeGeometry,
    SpinInterval,
    exp_decay,
    nearest_neighbor,
    wrapped_offsets,
)
from truncgibbs.sampler import RunTrace, stationary_run
from truncgibbs.transforms import af_specification_probe, beta_scaling_check
from truncgibbs.truncnorm import TruncatedNormal, cdf, inverse_cdf, mean, varphi
from truncgibbs.streams import derive_key, uniforms

NN1 = nearest_neighbor(1)
UNIT = SpinInterval(0.0, 1.0)
PAIR = build_matrices([(0,), (1,)], NN1)          # shell (-1,) and (2,)
SYM = SpinInterval(-1.0, 1.0)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

def test_single_site_oracle_matches_closed_form():
    # two independent routes to the same number: tensor quadrature of
    # exp(-H) versus the closed-form truncated-normal mean
    boundary = np.array([0.1, 0.7])
    oracle = quadrature_marginals(build_matrices([(0,)], NN1), boundary, UNIT, n_q=256)
    closed = mean(TruncatedNormal(0.4, UNIT))
    assert abs(oracle.means[0] - closed) <= 1e-8


def test_constant_boundary_symmetry():
    oracle = quadrature_marginals(PAIR, np.array([0.3, 0.3]), UNIT, n_q=128)
    assert oracle.means[0] == pytest.approx(oracle.means[1], abs=1e-12)
    assert np.all(oracle.means >= 0.0) and np.all(oracle.means <= 1.0)


def test_asymmetric_boundary_orders_means():
    oracle = quadrature_marginals(PAIR, np.array([0.0, 1.0]), UNIT, n_q=128)
    assert oracle.means[0] < oracle.means[1]


def test_grid_refinement_stability():
    boundary = np.array([0.0, 1.0])
    coarse = quadrature_marginals(PAIR, boundary, UNIT, n_q=128)
    fine = quadrature_marginals(PAIR, boundary, UNIT, n_q=256)
    assert np.max(np.abs(coarse.means - fine.means)) < 1e-6
    assert abs(coarse.normalizer - fine.normalizer) / fine.normalizer < 1e-8


def test_oracle_cdf_table_is_a_cdf():
    oracle = quadrature_marginals(PAIR, np.array([0.2, 0.9]), UNIT, n_q=64)
    for j in range(2):
        table = oracle.marginal_cdfs[j]
        assert table[0] == 0.0 and table[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(table) >= 0.0)


def test_volume_too_large_and_grid_validation():
    with pytest.raises(VolumeTooLarge):
        quadrature_marginals(build_matrices([(0,), (1,), (2,), (3,)], NN1),
                             np.array([0.0, 1.0]), UNIT, n_q=64)
    with pytest.raises(ValueError):
        quadrature_marginals(build_matrices([(0,)], NN1), np.array([0.0, 1.0]), UNIT, n_q=63)


def test_three_site_oracle_runs():
    oracle = quadrature_marginals(build_matrices([(0,), (1,), (2,)], NN1),
                                  np.array([0.0, 1.0]), UNIT, n_q=64)
    assert oracle.means.shape == (3,)
    assert np.all(np.diff(oracle.means) > 0.0)   # means increase toward the high edge


def _dense_oracle(sites, gamma, kernel, interval, n_q):
    """Z, means, variances and CDF tables from the full (n_q + 1)^k energy tensor."""
    vh = build_matrices(sites, kernel)
    k = vh.n_sites
    grid = np.linspace(interval.a, interval.b, n_q + 1)
    wq = _simpson_weights(n_q, grid[1] - grid[0])
    axes = [grid.reshape((1,) * i + (-1,) + (1,) * (k - 1 - i)) for i in range(k)]
    energy = np.zeros((1,) * k)
    values = axes + list(gamma)                 # volume sites, then shell
    for x, y, w in zip(*vh.pairs):
        energy = energy + 0.5 * w * (values[x] - values[y]) ** 2
    weight = np.exp(-energy)

    def contract(keep):
        arr = weight
        for axis in reversed(range(k)):
            if axis != keep:
                arr = np.tensordot(arr, wq, axes=([axis], [0]))
        return arr

    z = float(contract(None))
    marginals = [contract(i) / z for i in range(k)]
    means = np.array([wq @ (grid * m) for m in marginals])
    variances = np.array([wq @ ((grid - mu) ** 2 * m) for mu, m in zip(means, marginals)])
    cdfs = []
    for m in marginals:
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (m[1:] + m[:-1]) * (grid[1] - grid[0]))])
        cdfs.append(cdf / cdf[-1])
    return z, means, variances, np.array(cdfs)


EXP1_RANGE2 = exp_decay(0.5, 2, 1)
ORACLE_VOLUMES = {
    "one-site": ([(0,)], NN1),
    "two-site": ([(0,), (1,)], NN1),
    "three-site-chain": ([(0,), (1,), (2,)], NN1),
    "coupled-triangle": ([(0,), (1,), (2,)], EXP1_RANGE2),
    "gapped-pair": ([(0,), (2,)], EXP1_RANGE2),
    "l-shape-2d": ([(0, 0), (1, 0), (0, 1)], nearest_neighbor(2)),
}


@pytest.mark.parametrize("name", ORACLE_VOLUMES)
def test_factored_oracle_matches_dense_tensor(name):
    sites, kernel = ORACLE_VOLUMES[name]
    vh = build_matrices(sites, kernel)
    gamma = np.linspace(0.9, 0.05, len(vh.shell))
    interval = SpinInterval(-0.5, 1.5)
    z, means, variances, cdfs = _dense_oracle(sites, gamma, kernel, interval, 128)
    oracle = quadrature_marginals(vh, gamma, interval, n_q=128)
    assert abs(oracle.normalizer - z) <= 1e-14 * z
    assert np.max(np.abs(oracle.means - means)) <= 1e-14
    assert np.max(np.abs(oracle.variances - variances)) <= 1e-14
    assert np.max(np.abs(oracle.marginal_cdfs - cdfs)) <= 1e-14


def test_three_site_oracle_memory_stays_small():
    # one dense (257)^3 float64 energy tensor alone is 129.5 MiB
    tracemalloc.start()
    try:
        vh = build_matrices([(0,), (1,), (2,)], EXP1_RANGE2)
        quadrature_marginals(vh, np.array([0.9, 0.1, 0.4, 0.6]), UNIT, n_q=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# Stationarity verdicts
# ---------------------------------------------------------------------------

def test_stationarity_requires_torus():
    box = LatticeGeometry.box([(0,), (1,)], NN1)
    table = wrapped_offsets(NN1, box)
    fake = RunTrace(np.zeros((10, 2)), table, UNIT)
    with pytest.raises(NotTorus):
        stationarity_check(fake)


@pytest.mark.parametrize("interval", [SYM, UNIT])
def test_stationarity_passes_in_equilibrium(interval):
    trace = stationary_run(LatticeGeometry.torus([16]), NN1, interval,
                           seed=2, burn_in=200, n_sweeps=3000)
    assert stationarity_check(trace).passed


def test_stationarity_negative_control_fails():
    # hypothesis violated on purpose: two sweeps from the all-upper state
    trace = stationary_run(LatticeGeometry.torus([16]), NN1, SYM,
                           seed=2, burn_in=0, n_sweeps=2, start="upper")
    shift = stationarity_check(trace)
    assert not shift.passed
    assert shift.z > 3.0


def test_stationarity_passes_across_seeds():
    # the three-sigma rule should hold on at least 95 percent of seeds
    passes = 0
    for seed in range(10):
        trace = stationary_run(LatticeGeometry.torus([16]), NN1, UNIT,
                               seed=seed, burn_in=200, n_sweeps=2000)
        shift = stationarity_check(trace)
        passes += shift.passed
    assert passes >= 9


def verdict_bits(verdict):
    return np.array([verdict.estimate, verdict.se, verdict.z]).tobytes(), verdict.passed


@pytest.mark.parametrize("rows", [1, 7, 1101])
def test_stationarity_verdict_bits_do_not_depend_on_the_row_blocks(rows):
    # 1100 sweeps of 16 sites: two blocks of the default 1024 rows, against
    # blocks of 1 row, 7 rows (the last one short) and one of all the rows
    trace = stationary_run(LatticeGeometry.torus([16]), exp_decay(0.5, 3), SpinInterval(0.9, 2.0),
                           seed=4, burn_in=0, n_sweeps=1100, start="lower")
    blocked = verdict_bits(stationarity_check(trace))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "_CHECK_MEANS", rows * 16)
        assert verdict_bits(stationarity_check(trace)) == blocked


def test_stationarity_reads_the_clipped_local_means():
    # six exp-decay weights sum a field at a = 0.9 to 0.8999999999999999;
    # the check, like the chain, reads the mean clipped to a
    interval = SpinInterval(0.9, 2.0)
    table = wrapped_offsets(exp_decay(0.5, 3), LatticeGeometry.torus([8]))
    shift = stationarity_check(RunTrace(np.full((4, 8), 0.9), table, interval))
    assert shift.estimate == varphi(0.9, interval) != varphi(0.8999999999999999, interval)


def test_stationarity_memory_is_bounded_by_the_row_blocks():
    # 4000 sweeps of 64 sites: reading every local mean at once peaked at
    # 13.9 MiB of traced allocations, the row blocks at 0.9 MiB
    rng = np.random.default_rng(0)
    table = wrapped_offsets(NN1, LatticeGeometry.torus([64]))
    trace = RunTrace(rng.uniform(0.0, 10.0, (4000, 64)), table, SpinInterval(0.0, 10.0))
    tracemalloc.start()
    try:
        stationarity_check(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def test_ks_distance_consistency_with_own_draws():
    tn = TruncatedNormal(0.3, UNIT)
    u = uniforms(derive_key(1, "ks"), np.arange(10_000))
    draws = np.asarray(inverse_cdf(tn, u))
    grid = np.linspace(0.0, 1.0, 513)
    assert ks_distance(draws, grid, cdf(tn, grid)) < 0.02


def test_ks_distance_degenerate_samples():
    grid = np.linspace(0.0, 1.0, 513)
    tn = TruncatedNormal(0.5, UNIT)
    d = ks_distance(np.full(500, 0.5), grid, cdf(tn, grid))
    assert d >= 0.49


def test_ks_distance_needs_samples():
    with pytest.raises(TooFewSamples):
        ks_distance(np.zeros(50), np.linspace(0, 1, 11), np.linspace(0, 1, 11))


def test_batch_means_se_iid_scale():
    rng = np.random.default_rng(8)
    series = rng.normal(size=32_000)
    se = batch_means_se(series, batches=32)
    iid = series.std(ddof=1) / np.sqrt(series.size)
    assert 0.5 * iid < se < 2.0 * iid


@pytest.mark.parametrize("size", [0, 1])
def test_batch_means_se_needs_two_samples(size):
    with pytest.raises(TooFewSamples):
        batch_means_se(np.ones(size))
    assert batch_means_se(np.array([0.0, 1.0])) == 0.5


# each library count with its reader: the probes' trials, the batch count
# (clamped to the samples once checked) and the Simpson subintervals
TRACE8 = RunTrace(np.full((4, 8), 0.5), wrapped_offsets(NN1, LatticeGeometry.torus([8])), UNIT)
COUNT_READERS = {
    "af_specification_probe": ("trials", 1, lambda c: af_specification_probe(PAIR, 0.5, UNIT, c)),
    "beta_scaling_check": ("trials", 1, lambda c: beta_scaling_check(PAIR, UNIT, [1.0], c)),
    "stationarity_check": ("batches", 1, lambda c: stationarity_check(TRACE8, batches=c)),
    "batch_means_se": ("batches", 1, lambda c: batch_means_se(np.arange(8.0), c)),
    "quadrature_marginals": ("n_q", MIN_N_Q, lambda c: quadrature_marginals(PAIR, 0.5, UNIT, c)),
}


@pytest.mark.parametrize("bad", [0, -1, True, 2.5])
@pytest.mark.parametrize("reader", COUNT_READERS)
def test_a_library_count_is_a_checked_integer(reader, bad):
    # unchecked, a zero trial count gave a NaN mean with two RuntimeWarnings,
    # True batches ran 2 of them and a float n_q failed inside np.linspace
    name, least, call = COUNT_READERS[reader]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {least}, got {bad!r}$"):
        call(bad)
    call(np.int64(max(least, 2)))                     # numpy integers count too


def test_n_q_is_an_even_integer():
    with pytest.raises(ValueError, match=r"^n_q must be an integer >= 64, got 64.0$"):
        quadrature_marginals(PAIR, 0.5, UNIT, n_q=64.0)
    with pytest.raises(ValueError, match=r"^n_q must be an even subinterval count, got 65$"):
        quadrature_marginals(PAIR, 0.5, UNIT, n_q=65)
