import numpy as np
import pytest

from truncgibbs import sampler
from truncgibbs.errors import (
    BoundarySite,
    GeometryMismatch,
    NoCoalescence,
    OrderViolation,
)
from truncgibbs.kernel import LatticeGeometry, SpinInterval, nearest_neighbor, wrapped_offsets
from truncgibbs.sampler import (
    FieldConfiguration,
    cftp,
    cftp_samples,
    local_mean,
    run_sandwich,
    site_update,
    stationary_run,
    sweep,
)
from truncgibbs.streams import UpdateStream, derive_key, uniforms
from truncgibbs.truncnorm import TruncatedNormal, cdf, mean

NN1 = nearest_neighbor(1)
UNIT = SpinInterval(0.0, 1.0)
SYM = SpinInterval(-1.0, 1.0)


def torus_table(extent=8):
    return wrapped_offsets(NN1, LatticeGeometry.torus([extent]))


# ---------------------------------------------------------------------------
# Fields and local means
# ---------------------------------------------------------------------------

def test_constant_field_local_mean():
    table = torus_table()
    field = FieldConfiguration.constant(table, UNIT, 0.37)
    for x in table.sites:
        assert local_mean(field, x) == pytest.approx(0.37, abs=1e-15)


def test_alternating_field_local_mean():
    table = torus_table(8)
    values = np.array([0.0, 1.0] * 4)
    field = FieldConfiguration(table, UNIT, values)
    for i, x in enumerate(table.sites):
        assert local_mean(field, x) == pytest.approx(1.0 - values[i], abs=1e-15)


def test_local_mean_stays_in_interval():
    rng = np.random.default_rng(0)
    table = torus_table(16)
    field = FieldConfiguration(table, SYM, rng.uniform(-1, 1, 16))
    for x in table.sites:
        assert -1.0 <= local_mean(field, x) <= 1.0


def test_boundary_site_rejected():
    box = LatticeGeometry.box([(0,), (1,)], NN1)
    table = wrapped_offsets(NN1, box)
    field = FieldConfiguration.constant(table, UNIT, 0.5, boundary=0.2)
    with pytest.raises(BoundarySite):
        local_mean(field, (-1,))
    with pytest.raises(BoundarySite):
        site_update(field, (2,), 0.5)


def test_field_validation():
    table = torus_table()
    with pytest.raises(ValueError):
        FieldConfiguration(table, UNIT, np.full(8, 1.5))        # out of interval
    box = wrapped_offsets(NN1, LatticeGeometry.box([(0,)], NN1))
    with pytest.raises(ValueError):
        FieldConfiguration.constant(box, UNIT, 0.5)             # boundary missing


def test_unnormalized_kernel_rejected_by_dynamics():
    from truncgibbs.kernel import build_kernel
    k = build_kernel(1, {(1,): 2.0, (-1,): 2.0}, normalize=False)
    table = wrapped_offsets(k, LatticeGeometry.torus([8]))
    with pytest.raises(ValueError):
        FieldConfiguration.constant(table, UNIT, 0.5)


# ---------------------------------------------------------------------------
# Single-site updates
# ---------------------------------------------------------------------------

def test_update_median_at_symmetric_center():
    table = torus_table()
    field = FieldConfiguration.constant(table, SYM, 0.0)
    site_update(field, (3,), 0.5)
    assert field.values[3] == pytest.approx(0.0, abs=1e-15)


def test_paired_updates_preserve_order():
    rng = np.random.default_rng(1)
    table = torus_table(8)
    for _ in range(500):
        v, w = rng.uniform(0, 1, 8), rng.uniform(0, 1, 8)
        lower = FieldConfiguration(table, UNIT, np.minimum(v, w))
        upper = FieldConfiguration(table, UNIT, np.maximum(v, w))
        x = int(rng.integers(0, 8))
        u = float(rng.uniform())
        site_update(lower, x, u)
        site_update(upper, x, u)
        assert np.all(lower.interior <= upper.interior)


def test_update_distribution_frozen_neighborhood():
    # a single-site box has an all-frozen neighborhood, so every update is an
    # independent draw from the unit-variance truncated normal at the local mean
    box = LatticeGeometry.box([(0,)], NN1)
    table = wrapped_offsets(NN1, box)
    field = FieldConfiguration.constant(table, UNIT, 0.5, boundary={(-1,): 0.1, (1,): 0.5})
    center = local_mean(field, (0,))
    us = uniforms(derive_key(99, "dist"), np.arange(20_000))
    draws = np.empty(us.size)
    for i, u in enumerate(us):
        site_update(field, 0, float(u))
        draws[i] = field.values[0]
    target = mean(TruncatedNormal(center, UNIT))
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - target) <= 3.0 * se


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_zero_updates_leave_field_unchanged():
    table = torus_table()
    field = FieldConfiguration.constant(table, UNIT, 0.25)
    before = field.values.copy()
    sweep(field, UpdateStream(derive_key(5), 8), 0)
    assert np.array_equal(field.values, before)


def test_sweep_determinism():
    table = torus_table(12)

    def run():
        field = FieldConfiguration.constant(table, SYM, 0.0)
        sweep(field, UpdateStream(derive_key(123), 12), 360)
        return field.values.copy()

    assert np.array_equal(run(), run())


def test_sweep_preserves_bounds():
    table = torus_table(12)
    field = FieldConfiguration.constant(table, UNIT, 1.0)
    sweep(field, UpdateStream(derive_key(77), 12), 1200)
    assert np.all(field.interior >= 0.0) and np.all(field.interior <= 1.0)


def test_sweep_stream_mismatch():
    table = torus_table(12)
    field = FieldConfiguration.constant(table, UNIT, 0.5)
    with pytest.raises(GeometryMismatch):
        sweep(field, UpdateStream(derive_key(1), 5), 10)


# ---------------------------------------------------------------------------
# Sandwich runs
# ---------------------------------------------------------------------------

def test_sandwich_initial_gap_is_width():
    trace = run_sandwich(LatticeGeometry.torus([16]), NN1, UNIT, 5, seed=7)
    assert trace.sup_gap[0] == 1.0
    assert trace.mean_gap[0] == 1.0


def test_sandwich_gaps_nonnegative_and_bounded():
    trace = run_sandwich(LatticeGeometry.torus([16]), NN1, SYM, 60, seed=21)
    assert np.all(trace.sup_gap >= 0.0)
    assert np.all(trace.mean_gap >= 0.0)
    assert np.all(trace.final_lower >= -1.0) and np.all(trace.final_upper <= 1.0)
    assert np.all(trace.final_lower <= trace.final_upper)


def test_sandwich_collapses_on_desk_torus():
    trace = run_sandwich(LatticeGeometry.torus([32]), NN1, UNIT, 500, seed=7)
    assert trace.sup_gap[-1] < 1e-2


def test_sandwich_snapshots_recorded():
    trace = run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, 20, seed=3,
                         snapshot_every=10)
    assert set(trace.snapshots) == {0, 10, 20}
    assert trace.snapshots[0].shape == (8,)


def test_sandwich_on_box_with_boundary():
    box = LatticeGeometry.box([(0,), (1,), (2,)], NN1)
    trace = run_sandwich(box, NN1, UNIT, 80, seed=5, boundary=0.5)
    assert trace.sup_gap[-1] < 1e-6


def test_sandwich_fault_injection_raises(monkeypatch):
    # a quantile that decreases in the mean puts the lower chain above the upper
    monkeypatch.setattr(sampler, "_sample_one", lambda m, a, b, u: a + b - m)
    with pytest.raises(OrderViolation):
        run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, 10, seed=1)


def test_sandwich_determinism():
    t1 = run_sandwich(LatticeGeometry.torus([16]), NN1, UNIT, 40, seed=9)
    t2 = run_sandwich(LatticeGeometry.torus([16]), NN1, UNIT, 40, seed=9)
    assert np.array_equal(t1.sup_gap, t2.sup_gap)
    assert np.array_equal(t1.final_upper, t2.final_upper)


# ---------------------------------------------------------------------------
# Stationary runs
# ---------------------------------------------------------------------------

def test_stationary_run_shape_and_bounds():
    trace = stationary_run(LatticeGeometry.torus([8]), NN1, UNIT, seed=3,
                           burn_in=10, n_sweeps=50)
    assert trace.fields.shape == (50, 8)
    assert np.all(trace.fields >= 0.0) and np.all(trace.fields <= 1.0)


def test_stationary_run_start_validation():
    with pytest.raises(ValueError):
        stationary_run(LatticeGeometry.torus([8]), NN1, UNIT, 0, 0, 1, start="nowhere")


# ---------------------------------------------------------------------------
# Coupling from the past
# ---------------------------------------------------------------------------

def box_pair():
    return LatticeGeometry.box([(0,), (1,)], NN1)


def test_cftp_single_site_matches_closed_form():
    box = LatticeGeometry.box([(0,)], NN1)
    boundary = {(-1,): 0.2, (1,): 0.8}
    samples = cftp_samples(box, NN1, UNIT, boundary, 2000, seed=11)
    tn = TruncatedNormal(0.5, UNIT)   # local mean of the frozen neighborhood
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - mean(tn)) <= 3.0 * se
    grid = np.linspace(0.0, 1.0, 513)
    from truncgibbs.diagnostics import ks_distance
    d = ks_distance(samples[:, 0], grid, cdf(tn, grid))
    assert d < 1.949 / np.sqrt(2000)    # 99.9% one-sample KS band


def test_cftp_deterministic_in_seed():
    s1 = cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 50, seed=4)
    s2 = cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 50, seed=4)
    assert np.array_equal(s1, s2)
    s3 = cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 50, seed=5)
    assert not np.array_equal(s1, s3)


def test_cftp_single_call_matches_batch_row():
    boundary = {(-1,): 0.0, (2,): 1.0}
    one = cftp(box_pair(), NN1, UNIT, boundary, seed=8)
    batch = cftp_samples(box_pair(), NN1, UNIT, boundary, 1, seed=8)
    assert np.array_equal(one, batch[0])


def test_cftp_values_in_interval():
    samples = cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 200, seed=2)
    assert np.all(samples >= 0.0) and np.all(samples <= 1.0)


def test_cftp_requires_box():
    with pytest.raises(GeometryMismatch):
        cftp(LatticeGeometry.torus([8]), NN1, UNIT, None, seed=0)


def test_cftp_horizon_cap_signalled():
    with pytest.raises(NoCoalescence):
        cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 10, seed=0,
                     eps_coal=0.0, t_cap=8)


class _ScalarReplicaStreams:
    """Replica keys read off one scalar UpdateStream per replica."""

    def __init__(self, keys, n_sites):
        per_replica = [UpdateStream(k, n_sites) for k in keys]
        self.site_key = np.array([s.site_key for s in per_replica], dtype=np.uint64)
        self.uniform_key = np.array([s.uniform_key for s in per_replica], dtype=np.uint64)


def test_cftp_batched_keys_match_per_replica_streams(monkeypatch):
    box = LatticeGeometry.box([(0,), (1,), (2,)], NN1)
    boundary = {(-1,): 0.0, (3,): 1.0}
    batched = cftp_samples(box, NN1, UNIT, boundary, 200, seed=42)
    monkeypatch.setattr(sampler, "derive_key",
                        lambda seed, tag, replicas: [derive_key(seed, tag, int(r))
                                                     for r in replicas])
    monkeypatch.setattr(sampler, "UpdateStream", _ScalarReplicaStreams)
    reference = cftp_samples(box, NN1, UNIT, boundary, 200, seed=42)
    assert batched.shape == (200, 3)
    assert batched.tobytes() == reference.tobytes()


def test_cftp_boundary_monotone_pathwise():
    # same seed, ordered boundaries: the coupled streams give ordered samples
    low = cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 0.2}, 300, seed=6)
    high = cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.5, (2,): 1.0}, 300, seed=6)
    assert np.all(low <= high)
