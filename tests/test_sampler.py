import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncgibbs import sampler
from truncgibbs.errors import (
    BoundarySite,
    GeometryMismatch,
    MissingSite,
    NoCoalescence,
    OrderViolation,
    OutOfRange,
)
from truncgibbs.kernel import (
    LatticeGeometry,
    NeighborTable,
    SpinInterval,
    exp_decay,
    nearest_neighbor,
    wrapped_offsets,
)
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
from truncgibbs.truncnorm import TruncatedNormal, _sample_many, _sample_one, cdf, mean

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


BOX3 = LatticeGeometry.box([(0,), (1,), (2,)], NN1)       # shell (-1,) and (3,)


@pytest.mark.parametrize("boundary, error", [
    (None, MissingSite),
    ({(-1,): 0.2}, MissingSite),                              # (3,) not covered
    (np.array([0.2, 0.4, 0.6]), MissingSite),                 # three values, two shell sites
    (np.array([[0.2, 0.4]]), MissingSite),
    (1.5, OutOfRange),
    ({(-1,): 0.2, (3,): -0.1}, OutOfRange),
    (np.array([0.2, 2.0]), OutOfRange),
])
def test_boundary_errors_are_typed(boundary, error):
    table = wrapped_offsets(NN1, BOX3)
    with pytest.raises(error):
        FieldConfiguration.constant(table, UNIT, 0.5, boundary=boundary)
    with pytest.raises(error):
        cftp_samples(BOX3, NN1, UNIT, boundary, 4, seed=0)


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
    with pytest.raises(ValueError):
        sweep(field, UpdateStream(derive_key(1), 12), -1)


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


@pytest.mark.parametrize("n_sweeps", [-1, -3])
def test_sandwich_rejects_negative_sweeps(n_sweeps):
    with pytest.raises(ValueError, match="n_sweeps"):
        run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, n_sweeps, seed=1)


def test_sandwich_zero_sweeps_records_initial_gap():
    trace = run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, 0, seed=1)
    assert trace.n_sweeps == 0 and trace.sup_gap.tolist() == [1.0]


def decreasing_quantile(m, a, b, u):
    # a quantile that decreases in the mean puts the lower chain above the upper
    return a + b - m


def patch_quantile(monkeypatch, quantile):
    # the scalar scan calls _sample_one, the level-batched step _sample_many
    monkeypatch.setattr(sampler, "_sample_one", quantile)
    monkeypatch.setattr(sampler, "_sample_many", quantile)


def test_sandwich_fault_injection_raises(monkeypatch):
    patch_quantile(monkeypatch, decreasing_quantile)
    with pytest.raises(OrderViolation):
        run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, 10, seed=1)


def test_sandwich_determinism():
    t1 = run_sandwich(LatticeGeometry.torus([16]), NN1, UNIT, 40, seed=9)
    t2 = run_sandwich(LatticeGeometry.torus([16]), NN1, UNIT, 40, seed=9)
    assert np.array_equal(t1.sup_gap, t2.sup_gap)
    assert np.array_equal(t1.final_upper, t2.final_upper)


# ---------------------------------------------------------------------------
# The level-batched sandwich against the sequential scan
# ---------------------------------------------------------------------------

# values of _LEVELED_MIN_SITES that force every volume onto one path
PATHS = {"scalar": 10 ** 9, "leveled": 0}


@pytest.fixture(params=sorted(PATHS))
def sweep_path(request, monkeypatch):
    monkeypatch.setattr(sampler, "_LEVELED_MIN_SITES", PATHS[request.param])
    return request.param


def reference_sandwich(table, interval, n_sweeps, seed, snapshot_every=0, boundary=None,
                       quantile=_sample_one):
    """The sandwich one update at a time in stream order: the scalar loop the
    level-batched run must reproduce bit for bit, with its repairs counted."""
    n = table.n_sites
    lo_vals = FieldConfiguration.all_lower(table, interval, boundary).values
    up_vals = FieldConfiguration.all_upper(table, interval, boundary).values
    stream = UpdateStream(derive_key(seed, "sandwich"), n)
    sup, mean_, snapshots = np.empty(n_sweeps + 1), np.empty(n_sweeps + 1), {}

    def record(s):
        gap = up_vals[:n] - lo_vals[:n]
        sup[s] = float(gap.max())
        mean_[s] = float(gap.mean())
        if snapshot_every and s % snapshot_every == 0:
            snapshots[s] = gap.copy()

    record(0)
    idx, w = table.idx, table.weights
    a, b = interval.a, interval.b
    tol = sampler._order_tolerance(interval)
    repairs, worst = 0, 0.0
    for s in range(1, n_sweeps + 1):
        sites, us = stream.take(n)
        for i, u in zip(sites, us):
            row = idx[i]
            m_lo = min(max(lo_vals[row] @ w, a), b)
            m_up = min(max(up_vals[row] @ w, a), b)
            new_lo = quantile(m_lo, a, b, u)
            new_up = new_lo if m_up == m_lo else quantile(m_up, a, b, u)
            if new_lo > new_up:
                if new_lo - new_up > tol:
                    raise OrderViolation(f"sweep {s}, site {i}: {new_lo} > {new_up}")
                repairs, worst = repairs + 1, max(worst, new_lo - new_up)
                new_lo, new_up = new_up, new_lo
            lo_vals[i] = new_lo
            up_vals[i] = new_up
        record(s)
    return sup, mean_, snapshots, lo_vals[:n].copy(), up_vals[:n].copy(), repairs, worst / tol


def ring_table(kernel, n):
    """A 1D ring of n sites with offsets wrapped modulo n and no size check,
    so for n <= 2 * range a neighbour row names one site more than once."""
    geometry = LatticeGeometry.torus([n])
    offsets = np.array([z[0] for z in kernel.offsets])
    idx = (np.arange(n)[:, None] + offsets) % n
    return NeighborTable(kernel, geometry, idx, {s: i for i, s in enumerate(geometry.sites)})


@st.composite
def sandwich_setups(draw):
    """A neighbour table with its kernel, geometry and boundary, and an interval."""
    kind = draw(st.sampled_from(["torus", "ring", "box"]))
    dimension = 1 if kind == "ring" else draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        kernel = nearest_neighbor(dimension)
    else:
        kernel = exp_decay(draw(st.floats(0.2, 0.9)), draw(st.integers(1, 3)), dimension)
    low = draw(st.floats(-5.0, 5.0))
    interval = SpinInterval(low, low + 10.0 ** draw(st.floats(-3.0, np.log10(20.0))))
    boundary = None
    if kind == "ring":
        table = ring_table(kernel, draw(st.sampled_from([2, 3])))
        geometry = table.geometry
    elif kind == "torus":
        geometry = LatticeGeometry.torus(
            [2 * r + 1 + draw(st.integers(0, 3)) for r in kernel.range_per_axis])
        table = wrapped_offsets(kernel, geometry)
    else:
        coords = st.tuples(*[st.integers(0, 4)] * dimension)
        geometry = LatticeGeometry.box(
            draw(st.lists(coords, min_size=1, max_size=6, unique=True)), kernel)
        table = wrapped_offsets(kernel, geometry)
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=len(geometry.shell),
                                  max_size=len(geometry.shell)))
        boundary = np.clip(interval.a + interval.width * np.array(fractions),
                           interval.a, interval.b)
    return table, kernel, geometry, interval, boundary


@pytest.mark.parametrize("path", sorted(PATHS))
@settings(max_examples=100, deadline=None)
@given(setup=sandwich_setups(), n_sweeps=st.integers(1, 6),
       seed=st.integers(0, 2 ** 64 - 1), snapshot_every=st.integers(0, 3),
       block=st.integers(1, 40))
def test_sandwich_matches_sequential_scan_bitwise(path, setup, n_sweeps, seed, snapshot_every,
                                                  block):
    # blocks of max(1, block // n) sweeps: their edges fall inside the run
    # and between snapshots
    table, kernel, geometry, interval, boundary = setup
    with pytest.MonkeyPatch.context() as mp:      # hand-made ring tables pass as-is
        mp.setattr(sampler, "wrapped_offsets", lambda k, g: table)
        mp.setattr(sampler, "_LEVELED_MIN_SITES", PATHS[path])
        mp.setattr(sampler, "_BLOCK_UPDATES", block)
        trace = run_sandwich(geometry, kernel, interval, n_sweeps, seed,
                             snapshot_every=snapshot_every, boundary=boundary)
    sup, mean_, snapshots, lower, upper, repairs, frac = reference_sandwich(
        table, interval, n_sweeps, seed, snapshot_every, boundary)
    assert trace.sup_gap.tobytes() == sup.tobytes()
    assert trace.mean_gap.tobytes() == mean_.tobytes()
    assert sorted(trace.snapshots) == sorted(snapshots)
    for s, gap in snapshots.items():
        assert trace.snapshots[s].tobytes() == gap.tobytes()
    assert trace.final_lower.tobytes() == lower.tobytes()
    assert trace.final_upper.tobytes() == upper.tobytes()
    assert (trace.order_repairs, trace.max_inversion_frac) == (repairs, frac)


def reference_levels(sites, closed):
    level = []
    for j, s in enumerate(sites):
        deps = [level[i] for i in range(j) if sites[i] in closed[:, s]]
        level.append(1 + max(deps, default=-1))
    return level


@settings(max_examples=150, deadline=None)
@given(setup=sandwich_setups(), seed=st.integers(0, 2 ** 64 - 1),
       n_updates=st.integers(0, 90), block=st.integers(1, 40))
def test_level_batches_are_the_as_soon_as_possible_schedule(setup, seed, n_updates, block):
    # every block of max(1, block // n) sweeps is levelled on its own; the 2-
    # and 3-site rings name a site in its own neighbour row
    table = setup[0]
    n = table.n_sites
    closed = np.vstack([np.arange(n), table.idx.T])
    stream = UpdateStream(derive_key(seed, "levels"), n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_LEVELED_MIN_SITES", 0)
        mp.setattr(sampler, "_BLOCK_UPDATES", block)
        blocks = list(sampler._blocks(stream, n_updates, table.idx, n + len(table.shell)))
    assert sum(sites.size for _, sites, _, _ in blocks) == n_updates
    for _, sites, us, batches in blocks:
        level = np.full(sites.size, -1)
        for depth, (pos, cells, nbrs, level_us) in enumerate(batches):
            assert np.all(level[pos] == -1) and np.unique(pos).size == pos.size
            level[pos] = depth
            assert np.array_equal(cells, sites[pos])
            assert np.array_equal(nbrs, table.idx[cells])
            assert np.array_equal(level_us, us[pos])
        assert np.all(level >= 0)                     # every position exactly once
        assert level.tolist() == reference_levels(sites, closed)
        for i in range(sites.size):
            for j in range(i + 1, sites.size):
                if level[i] == level[j]:              # one level: disjoint neighbourhoods
                    assert sites[i] not in closed[:, sites[j]]
                    assert sites[j] not in closed[:, sites[i]]
                if sites[i] == sites[j]:              # one site: stream order kept
                    assert level[i] < level[j]


@pytest.mark.parametrize("k", range(2, 25))
def test_local_means_match_scalar_dot_bitwise(k):
    rng = np.random.default_rng(k)
    w = rng.uniform(0.1, 2.0, k)
    w /= w.sum()                                       # non-dyadic weights
    values = rng.uniform(-3.0, 5.0, 500)
    nbrs = rng.integers(0, values.size, (4000, k))
    scalar = np.array([values[row] @ w for row in nbrs])
    assert sampler._local_means(values, nbrs, w).tobytes() == scalar.tobytes()
    # a stack of fields, as the stationarity check passes: each row as its own
    fields = rng.uniform(-3.0, 5.0, (50, 40))
    rows = rng.integers(0, 40, (40, k))
    scalar = np.array([[field[row] @ w for row in rows] for field in fields])
    assert sampler._local_means(fields, rows, w).tobytes() == scalar.tobytes()


def sub_tolerance_inversion(m, a, b, u):
    # decreasing in the mean by at most 1e-15 on [0, 1]: below _order_tolerance
    return 0.25 + 0.5 * u - 1e-15 * m


def test_inversion_just_above_tolerance_raises(sweep_path, monkeypatch):
    # A quantile decreasing in the mean with slope c inverts a pair by c times
    # the gap of the means.  The sandwich's gaps are at most b - a = 1, and 1
    # at its first update; CFTP's are at most 0.5, and 0.5 at its first slot.
    # So the largest inversion of either run is exactly 1.5 tolerances.
    tol = sampler._order_tolerance(UNIT)
    for c, run in ((1.5 * tol, lambda: run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT,
                                                    1, seed=1)),
                   (3.0 * tol, lambda: cftp_samples(box_pair(), NN1, UNIT,
                                                    {(-1,): 0.0, (2,): 1.0}, 10, seed=1))):
        patch_quantile(monkeypatch, lambda m, a, b, u: 0.25 + 0.5 * u - c * m)
        with pytest.raises(OrderViolation):
            run()


def test_sandwich_counts_sub_ulp_repairs(sweep_path, monkeypatch):
    geometry = LatticeGeometry.torus([16])
    table = wrapped_offsets(NN1, geometry)
    patch_quantile(monkeypatch, sub_tolerance_inversion)
    trace = run_sandwich(geometry, NN1, UNIT, 20, seed=3)
    *_, repairs, frac = reference_sandwich(table, UNIT, 20, 3,
                                           quantile=sub_tolerance_inversion)
    assert trace.order_repairs == repairs > 0
    assert trace.max_inversion_frac == frac
    assert 0.0 < frac < 1.0
    assert np.all(trace.final_lower <= trace.final_upper)


def test_sandwich_order_violation_names_sweep_and_site(sweep_path, monkeypatch):
    patch_quantile(monkeypatch, decreasing_quantile)
    with pytest.raises(OrderViolation, match=r"at sweep 1, site index [0-7]: "):
        run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, 10, seed=1)


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
    with pytest.raises(ValueError):
        stationary_run(LatticeGeometry.torus([8]), NN1, UNIT, 0, -1, 3)   # negative burn-in
    with pytest.raises(ValueError, match="n_sweeps"):
        stationary_run(LatticeGeometry.torus([8]), NN1, UNIT, 0, 3, -1)


def reference_chain(values, stream, n_updates, table, interval):
    """``n_updates`` single-chain updates one at a time in stream order."""
    idx, w = table.idx, table.weights
    a, b = interval.a, interval.b
    sites, us = stream.take(n_updates)
    for i, u in zip(sites, us):
        values[i] = _sample_one(min(max(values[idx[i]] @ w, a), b), a, b, u)


def reference_run(table, interval, seed, burn_in, n_sweeps, start, boundary):
    """stationary_run as the sequential scan: burn in, then one row per sweep."""
    n = table.n_sites
    level = {"midpoint": interval.midpoint, "lower": interval.a, "upper": interval.b}[start]
    values = FieldConfiguration.constant(table, interval, level, boundary).values
    stream = UpdateStream(derive_key(seed, "stationary"), n)
    reference_chain(values, stream, burn_in * n, table, interval)
    fields = np.empty((n_sweeps, n))
    for s in range(n_sweeps):
        reference_chain(values, stream, n, table, interval)
        fields[s] = values[:n]
    return fields


@pytest.mark.parametrize("path", sorted(PATHS))
@settings(max_examples=100, deadline=None)
@given(setup=sandwich_setups(), seed=st.integers(0, 2 ** 64 - 1),
       burn_in=st.integers(0, 4), n_sweeps=st.integers(1, 6),
       start=st.sampled_from(["midpoint", "lower", "upper"]),
       block=st.integers(1, 40))
def test_stationary_run_matches_sequential_scan_bitwise(path, setup, seed, burn_in,
                                                         n_sweeps, start, block):
    # blocks of max(1, block // n) sweeps: their edges fall inside the burn-in
    # and inside the measurement sweeps
    table, kernel, geometry, interval, boundary = setup
    with pytest.MonkeyPatch.context() as mp:      # hand-made ring tables pass as-is
        mp.setattr(sampler, "wrapped_offsets", lambda k, g: table)
        mp.setattr(sampler, "_LEVELED_MIN_SITES", PATHS[path])
        mp.setattr(sampler, "_BLOCK_UPDATES", block)
        trace = stationary_run(geometry, kernel, interval, seed, burn_in, n_sweeps,
                               start=start, boundary=boundary)
    fields = reference_run(table, interval, seed, burn_in, n_sweeps, start, boundary)
    assert trace.fields.tobytes() == fields.tobytes()


@pytest.mark.parametrize("path", sorted(PATHS))
@settings(max_examples=50, deadline=None)
@given(setup=sandwich_setups(), seed=st.integers(0, 2 ** 64 - 1),
       calls=st.lists(st.integers(0, 50), min_size=1, max_size=3), block=st.integers(1, 40))
def test_sweep_matches_sequential_scan_bitwise(path, setup, seed, calls, block):
    # update counts that are not whole sweeps leave a partial last block
    table, _, _, interval, boundary = setup
    field = FieldConfiguration.constant(table, interval, interval.midpoint, boundary)
    values = field.values.copy()
    stream = UpdateStream(derive_key(seed, "sweep"), table.n_sites)
    twin = UpdateStream(derive_key(seed, "sweep"), table.n_sites)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_LEVELED_MIN_SITES", PATHS[path])
        mp.setattr(sampler, "_BLOCK_UPDATES", block)
        for n_updates in calls:
            sweep(field, stream, n_updates)
            reference_chain(values, twin, n_updates, table, interval)
            assert field.values.tobytes() == values.tobytes()


def test_order_violation_names_a_later_sweep_of_the_block(sweep_path, monkeypatch):
    # one 10-sweep run is one block; only the update at stream position 21,
    # in sweep 3, inverts, so the message must name sweep 3 on both paths
    sites, us = UpdateStream(derive_key(1, "sandwich"), 8).take(10 * 8)
    target = us[21]
    monkeypatch.setattr(sampler, "_sample_one", lambda m, a, b, u: (
        a + b - m if u == target else _sample_one(m, a, b, u)))
    monkeypatch.setattr(sampler, "_sample_many", lambda m, a, b, u: np.where(
        u == target, a + b - m, _sample_many(m, a, b, u)))
    with pytest.raises(OrderViolation, match=rf"at sweep 3, site index {sites[21]}: "):
        run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, 10, seed=1)


def counted_calls(mp, names):
    # count the calls each named sampler function receives inside mp
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(sampler, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        mp.setattr(sampler, name, counted(name))
    return calls


def test_default_chain_path_follows_volume():
    # 16/3 sites per closed neighbourhood run scalar, 64/3 leveled
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_calls(mp, ["_chain_scan", "_level_batches"])
        stationary_run(LatticeGeometry.torus([16]), NN1, UNIT, 0, 1, 2)
        assert calls == {"_chain_scan": 1, "_level_batches": 0}
        stationary_run(LatticeGeometry.torus([64]), NN1, UNIT, 0, 1, 2)
        assert calls == {"_chain_scan": 1, "_level_batches": 1}


def test_default_sweep_path_follows_volume():
    # the sandwich switches at the chain's crossover: 16/3 and 12.8 (8 x 8)
    # sites per closed neighbourhood run scalar, 64/3 and 20 (10 x 10) leveled
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_calls(mp, ["_coupled_scan", "_level_batches"])
        run_sandwich(LatticeGeometry.torus([16]), NN1, UNIT, 2, seed=0)
        run_sandwich(LatticeGeometry.torus([8, 8]), nearest_neighbor(2), UNIT, 2, seed=0)
        assert calls == {"_coupled_scan": 2, "_level_batches": 0}
        run_sandwich(LatticeGeometry.torus([64]), NN1, UNIT, 2, seed=0)
        run_sandwich(LatticeGeometry.torus([10, 10]), nearest_neighbor(2), UNIT, 2, seed=0)
        assert calls == {"_coupled_scan": 2, "_level_batches": 2}


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


def test_cftp_sample_count_validation():
    boundary = {(-1,): 0.0, (2,): 1.0}
    with pytest.raises(ValueError, match="n_samples"):
        cftp_samples(box_pair(), NN1, UNIT, boundary, -1, seed=0)
    assert cftp_samples(box_pair(), NN1, UNIT, boundary, 0, seed=0).shape == (0, 2)


@pytest.mark.parametrize("eps", [-1e-9, -np.inf, np.nan])
def test_cftp_rejects_negative_or_nan_tolerance(eps):
    # neither ever coalesces, so the run would go on to t_cap
    with pytest.raises(ValueError, match="eps_coal"):
        cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 4, seed=0,
                     eps_coal=eps, t_cap=8)


def test_cftp_zero_tolerance_accepted():
    out = cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 4, seed=0,
                       eps_coal=0.0)
    assert out.shape == (4, 2) and np.all((out >= 0.0) & (out <= 1.0))


def test_cftp_fault_injection_raises(monkeypatch):
    monkeypatch.setattr(sampler, "_sample_many", decreasing_quantile)
    with pytest.raises(OrderViolation) as err:
        cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 10, seed=1)
    # the flat index into the replica block is split into replica and site
    where = re.search(r"coupling from the past at time -(\d+), replica (\d+), "
                      r"site index (\d+): ", str(err.value))
    assert where is not None
    time_back, replica, site = map(int, where.groups())
    assert time_back >= 1 and replica < 10 and site < 2


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
