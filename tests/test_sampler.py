import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import kernels_and_geometries, scalar_quantile
from truncgibbs import sampler
from truncgibbs.errors import (
    BoundarySite,
    GeometryMismatch,
    MissingSite,
    NoCoalescence,
    NotTorus,
    OrderViolation,
    OutOfRange,
    ProbabilityOutOfRange,
    UnknownSite,
)
from truncgibbs.finite_spec import build_matrices, specification
from truncgibbs.kernel import (
    LatticeGeometry,
    SpinInterval,
    exp_decay,
    nearest_neighbor,
    wrapped_offsets,
)
from truncgibbs.sampler import (
    FieldConfiguration,
    cftp_samples,
    local_mean,
    run_sandwich,
    site_update,
    stationary_run,
    sweep,
)
from truncgibbs.streams import UpdateStream, derive_key, uniforms
from truncgibbs.truncnorm import TruncatedNormal, _sample_many, cdf, mean

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
    for x in range(table.n_sites):
        assert local_mean(field, x) == pytest.approx(0.37, abs=1e-15)


def test_alternating_field_local_mean():
    table = torus_table(8)
    values = np.array([0.0, 1.0] * 4)
    field = FieldConfiguration(table, UNIT, values)
    for i in range(table.n_sites):
        assert local_mean(field, i) == pytest.approx(1.0 - values[i], abs=1e-15)


def test_local_mean_stays_in_interval():
    rng = np.random.default_rng(0)
    table = torus_table(16)
    field = FieldConfiguration(table, SYM, rng.uniform(-1, 1, 16))
    for x in range(table.n_sites):
        assert -1.0 <= local_mean(field, x) <= 1.0


def test_boundary_site_rejected():
    box = LatticeGeometry.box([(0,), (1,)], NN1)
    table = wrapped_offsets(NN1, box)
    field = FieldConfiguration.constant(table, UNIT, 0.5, boundary=0.2)
    with pytest.raises(BoundarySite):
        local_mean(field, 2)            # the shell site (-1,)
    with pytest.raises(BoundarySite):
        site_update(field, 3, 0.5)      # the shell site (2,)


@pytest.mark.parametrize("kind", ["ring", "box"])
def test_site_index_outside_the_interior(kind):
    # an 8-site ring has no shell; the 2-site box has the shell slots 2 and 3.
    # Only a shell slot is a boundary site; any other index names none
    if kind == "ring":
        field = FieldConfiguration.constant(torus_table(8), UNIT, 0.5)
        boundary_slots, unknown = [], [8, 9, -1, -8]
    else:
        table = wrapped_offsets(NN1, LatticeGeometry.box([(0,), (1,)], NN1))
        field = FieldConfiguration.constant(table, UNIT, 0.5, boundary=0.2)
        boundary_slots, unknown = [2, 3], [4, -1, -3]
    n = field.n_interior
    for i in boundary_slots:
        for call in (lambda: local_mean(field, i), lambda: site_update(field, i, 0.5)):
            with pytest.raises(BoundarySite, match=f"^site {i} is a frozen boundary site$"):
                call()
    for i in unknown:
        for call in (lambda: local_mean(field, i), lambda: site_update(field, i, 0.5)):
            with pytest.raises(UnknownSite,
                               match=rf"^site {i} is not an interior index in \[0, {n}\)$"):
                call()


def test_field_validation():
    table = torus_table()
    with pytest.raises(ValueError):
        FieldConfiguration(table, UNIT, np.full(8, 1.5))        # out of interval
    box = wrapped_offsets(NN1, LatticeGeometry.box([(0,)], NN1))
    with pytest.raises(ValueError):
        FieldConfiguration.constant(box, UNIT, 0.5)             # boundary missing
    with pytest.raises(NotTorus, match="takes no boundary"):
        stationary_run(LatticeGeometry.box([(0,)], NN1), NN1, UNIT, 0, 0, 1)


BOX3 = LatticeGeometry.box([(0,), (1,), (2,)], NN1)       # shell (-1,) and (3,)


@pytest.mark.parametrize("boundary, error", [
    (None, MissingSite),
    ({(-1,): 0.2}, MissingSite),                              # (3,) not covered
    (np.array([0.2, 0.4, 0.6]), MissingSite),                 # three values, two shell sites
    (np.array([[0.2, 0.4]]), MissingSite),
    (1.5, OutOfRange),
    ({(-1,): 0.2, (3,): -0.1}, OutOfRange),
    (np.array([0.2, 2.0]), OutOfRange),
    ({(-1,): 0.0, (3,): 1.0, (9,): 0.3, (0,): 0.5}, GeometryMismatch),    # no shell sites
    ({(-1,): 0.0, (3,): 1.0, (1,): 0.7}, GeometryMismatch),               # an interior site
])
def test_boundary_errors_are_typed(boundary, error):
    # the runs and the finite-volume functions read the boundary alike
    table = wrapped_offsets(NN1, BOX3)
    with pytest.raises(error):
        FieldConfiguration.constant(table, UNIT, 0.5, boundary=boundary)
    with pytest.raises(error):
        cftp_samples(BOX3, NN1, UNIT, boundary, 4, seed=0)
    with pytest.raises(error):
        specification(build_matrices(BOX3.sites, NN1), boundary, UNIT)


def test_boundary_names_its_first_key_outside_the_shell():
    boundary = {(-1,): 0.0, (9,): 0.3, (0,): 0.5, (3,): 1.0}
    with pytest.raises(GeometryMismatch, match=r"^boundary key \(9,\) is not a shell site$"):
        cftp_samples(BOX3, NN1, UNIT, boundary, 4, seed=0)


@pytest.mark.parametrize("boundary", [{(3,): 9.0, (99,): 2.0}, "garbage", 0.5])
def test_a_torus_takes_no_boundary(boundary):
    # a torus has no shell; a boundary given for one was dropped unread
    torus = LatticeGeometry.torus([8])
    with pytest.raises(GeometryMismatch, match="takes no boundary"):
        FieldConfiguration.constant(wrapped_offsets(NN1, torus), UNIT, 0.5, boundary=boundary)
    with pytest.raises(GeometryMismatch, match="takes no boundary"):
        run_sandwich(torus, NN1, UNIT, 5, seed=0, boundary=boundary)


def test_field_configuration_rejects_wrong_interior_shape_and_unknown_site():
    table = wrapped_offsets(NN1, LatticeGeometry.torus([8]))
    with pytest.raises(ValueError, match="expected 8 interior values"):
        FieldConfiguration(table, UNIT, np.full(7, 0.5))
    with pytest.raises(ValueError, match="expected 8 interior values"):
        FieldConfiguration(table, UNIT, np.full((8, 1), 0.5))
    field = FieldConfiguration.constant(table, UNIT, 0.5)
    with pytest.raises(UnknownSite):        # a torus has no boundary sites
        local_mean(field, 8)
    # a site is its interior index; a coordinate tuple, even of a site of
    # the table, is no index
    for site in [(3,), (0, 0), np.array([3])]:
        with pytest.raises(TypeError):
            local_mean(field, site)
        with pytest.raises(TypeError):
            site_update(field, site, 0.5)


# ---------------------------------------------------------------------------
# Single-site updates
# ---------------------------------------------------------------------------

def test_update_median_at_symmetric_center():
    table = torus_table()
    field = FieldConfiguration.constant(table, SYM, 0.0)
    site_update(field, 3, 0.5)
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


@pytest.mark.parametrize("u", [np.nan, -0.1, 1.5, -np.inf])
def test_site_update_rejects_uniform_outside_unit_interval(u):
    field = FieldConfiguration.constant(torus_table(8), UNIT, 0.5)
    before = field.values.copy()
    with pytest.raises(ProbabilityOutOfRange):
        site_update(field, 3, u)
    assert field.values.tobytes() == before.tobytes()
    for u in (0.0, 1.0):                  # the closed interval's ends are accepted
        site_update(field, 3, u)
        assert UNIT.contains(field.values)


def test_update_distribution_frozen_neighborhood():
    # a single-site box has an all-frozen neighborhood, so every update is an
    # independent draw from the unit-variance truncated normal at the local mean
    box = LatticeGeometry.box([(0,)], NN1)
    table = wrapped_offsets(NN1, box)
    field = FieldConfiguration.constant(table, UNIT, 0.5, boundary={(-1,): 0.1, (1,): 0.5})
    center = local_mean(field, 0)
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
    for n_updates in (-1, True, 2.5):
        with pytest.raises(ValueError, match="^n_updates must be an integer >= 0"):
            sweep(field, UpdateStream(derive_key(1), 12), n_updates)


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


@pytest.mark.parametrize("n_sweeps", [-1, -3, True, 2.5])
def test_sandwich_rejects_negative_sweeps(n_sweeps):
    with pytest.raises(ValueError, match="n_sweeps"):
        run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, n_sweeps, seed=1)


@pytest.mark.parametrize("every", [-1, -10, 2.5, True, False])
def test_sandwich_rejects_negative_or_fractional_snapshot_every(every):
    # unchecked, -1 would snapshot every sweep and 2.5 sweeps 0 and 5; a bool
    # is an int to isinstance, and True would snapshot every sweep (the CLI's
    # config reader refuses a bool there too)
    with pytest.raises(ValueError, match="snapshot_every"):
        run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, 10, seed=1, snapshot_every=every)


def test_sandwich_zero_sweeps_records_initial_gap():
    trace = run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, 0, seed=1)
    assert trace.sup_gap.tolist() == [1.0]


def decreasing_quantile(m, a, b, u):
    # a quantile that decreases in the mean puts the lower chain above the upper
    return a + b - m


def patch_quantile(monkeypatch, quantile):
    # every run draws its quantiles through _sample_many, one call per level
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

# Two schedules of the one level plan: "one-block" levels each block in a
# pass of its own, a block being one sweep unless the test draws its blocks,
# and "leveled" keeps the default blocks and chunks.
SCHEDULES = {"one-block": {"_BLOCK_UPDATES": 1, "_CHUNK_UPDATES": 1}, "leveled": {}}


def set_schedule(mp, name):
    for constant, value in SCHEDULES[name].items():
        mp.setattr(sampler, constant, value)


@pytest.fixture(params=sorted(SCHEDULES))
def schedule(request, monkeypatch):
    set_schedule(monkeypatch, request.param)
    return request.param


def reference_sandwich(table, interval, n_sweeps, seed, snapshot_every=0, boundary=None,
                       quantile=scalar_quantile, log=None):
    """The sandwich one update at a time in stream order: the scalar loop the
    level-batched run must reproduce bit for bit, with its repairs counted.
    ``log``, a list, receives each update's gap, upper minus lower."""
    n = table.n_sites
    lo_vals = FieldConfiguration.constant(table, interval, interval.a, boundary).values
    up_vals = FieldConfiguration.constant(table, interval, interval.b, boundary).values
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
            if log is not None:
                log.append(new_up - new_lo)
        record(s)
    return sup, mean_, snapshots, lo_vals[:n].copy(), up_vals[:n].copy(), repairs, worst / tol


def ring_table(kernel, n):
    """A 1D ring of n sites with offsets wrapped modulo n and no size check,
    so for range < n <= 2 * range a neighbour row names one site more than
    once, though never its own.  No table the library builds does that (a
    torus extent must exceed twice the range), so this is a stand-in with the
    attributes the runs read, which the tests pass in through a
    ``wrapped_offsets`` monkeypatch or straight to ``FieldConfiguration``."""
    offsets = np.array([z[0] for z in kernel.offsets])
    return SimpleNamespace(kernel=kernel, geometry=LatticeGeometry.torus([n]),
                           idx=(np.arange(n)[:, None] + offsets) % n,
                           weights=kernel.weights, n_sites=n, shell=())


@st.composite
def sandwich_setups(draw, kinds=("torus", "ring", "box")):
    """A neighbour table with its kernel, geometry and boundary, and an interval."""
    kind = draw(st.sampled_from(kinds))
    dimension = 1 if kind == "ring" else draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        kernel = nearest_neighbor(dimension)
    else:
        kernel = exp_decay(draw(st.floats(0.2, 0.9)), draw(st.integers(1, 3)), dimension)
    low = draw(st.floats(-5.0, 5.0))
    interval = SpinInterval(low, low + 10.0 ** draw(st.floats(-3.0, np.log10(20.0))))
    boundary = None
    if kind == "ring":
        reach = kernel.range_per_axis[0]
        table = ring_table(kernel, draw(st.integers(reach + 1, 2 * reach)))
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


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@settings(max_examples=100, deadline=None)
@given(setup=sandwich_setups(), n_sweeps=st.integers(1, 6),
       seed=st.integers(0, 2 ** 64 - 1), snapshot_every=st.integers(0, 3),
       block=st.integers(1, 40), chunk=st.integers(1, 64))
def test_sandwich_matches_sequential_scan_bitwise(schedule, setup, n_sweeps, seed,
                                                  snapshot_every, block, chunk):
    # blocks of max(1, block // n) sweeps: their edges fall inside the run
    # and between snapshots; max(1, chunk // n) blocks share a level pass
    table, kernel, geometry, interval, boundary = setup
    with pytest.MonkeyPatch.context() as mp:      # hand-made ring tables pass as-is
        mp.setattr(sampler, "wrapped_offsets", lambda k, g: table)
        set_schedule(mp, schedule)
        mp.setattr(sampler, "_BLOCK_UPDATES", block)
        mp.setattr(sampler, "_CHUNK_SITES", chunk)
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


@pytest.mark.parametrize("n_sweeps, every, block_sweeps", [(10, 2, 3), (7, 3, 2), (4, 5, 4),
                                                         (0, 1, 3)])
def test_sandwich_gap_record_matches_per_sweep_reference(n_sweeps, every, block_sweeps,
                                                         monkeypatch):
    # a levelled 32 x 32 torus: rows of 1024 gaps, long enough for the
    # pairwise sums of mean() to differ from a left-to-right sum; the fields
    # after s sweeps are those a run of s sweeps ends with
    geometry, kernel = LatticeGeometry.torus([32, 32]), nearest_neighbor(2)
    monkeypatch.setattr(sampler, "_BLOCK_UPDATES", block_sweeps * 1024)
    trace = run_sandwich(geometry, kernel, UNIT, n_sweeps, seed=4, snapshot_every=every)
    sup, mean_, snapshots = [], [], {}
    for s in range(n_sweeps + 1):
        at_s = run_sandwich(geometry, kernel, UNIT, s, seed=4)
        gap = at_s.final_upper - at_s.final_lower
        sup.append(float(gap.max()))
        mean_.append(float(gap.mean()))
        if s % every == 0:
            snapshots[s] = gap
    assert trace.sup_gap.tobytes() == np.array(sup).tobytes()
    assert trace.mean_gap.tobytes() == np.array(mean_).tobytes()
    assert sorted(trace.snapshots) == sorted(snapshots)
    for s, gap in snapshots.items():
        assert trace.snapshots[s].tobytes() == gap.tobytes()


def reference_levels(sites, idx, merge):
    """An update reads its neighbour row and writes its site: it lands one
    level deeper than the deepest earlier update at a site it reads, and
    with ``merge`` no shallower than its site's previous update, else one
    deeper than that too."""
    level = []
    for j, s in enumerate(sites):
        read = max((level[i] for i in range(j) if sites[i] in idx[s]), default=-1)
        written = max((level[i] for i in range(j) if sites[i] == s), default=-1)
        level.append(max(1 + read, written if merge else 1 + written))
    return level


class PositionStream:
    """An update stream whose uniforms are the updates' stream positions, so
    a step run by :func:`sampler._blocks` sees which updates a level holds."""

    def __init__(self, stream):
        self.stream, self.taken = stream, 0

    def take(self, k):
        sites, _ = self.stream.take(k)
        self.taken += k
        return sites, np.arange(self.taken - k, self.taken, dtype=float)


def recorded_levels(idx, stream, n_updates, ends=np.empty(0, dtype=int)):
    """Run ``n_updates`` updates of ``stream`` through :func:`sampler._blocks`
    with a step that records each level's cells (write-off slot included),
    neighbour rows and stream positions, and returns the positions as the
    values the rows record.  Returns the levels in the order they ran and
    the yielded (j, rows), from an interior of -1 before the run."""
    levels = []

    def step(cells, nbrs, positions):
        levels.append((cells.copy(), nbrs.copy(), positions.astype(int)))
        return positions

    rows = list(sampler._blocks(PositionStream(stream), n_updates, idx, step,
                                np.full(idx.shape[0], -1.0), ends))
    return levels, rows


@settings(max_examples=150, deadline=None)
@given(setup=sandwich_setups(), seed=st.integers(0, 2 ** 64 - 1),
       n_updates=st.integers(0, 90), block=st.integers(1, 40), chunk=st.integers(1, 64))
def test_block_plans_are_the_as_soon_as_possible_schedule(setup, seed, n_updates, block, chunk):
    # blocks of max(1, block // n) sweeps, max(1, chunk // n) of them levelled
    # per pass, and update counts that leave a partial last block; volumes
    # under chunk sites merge a site's back-to-back updates; the rings name a
    # site more than once in a neighbour row, boxes have a shell
    table = setup[0]
    n = table.n_sites
    size = max(1, block // n) * n                   # updates per block
    sites, _ = UpdateStream(derive_key(seed, "levels"), n).take(n_updates)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_BLOCK_UPDATES", block)
        mp.setattr(sampler, "_CHUNK_SITES", chunk)
        levels, rows = recorded_levels(table.idx, UpdateStream(derive_key(seed, "levels"), n),
                                       n_updates, np.arange(1, n_updates + 1))
    ran = np.concatenate([positions for *_, positions in levels] + [np.empty(0, int)])
    assert np.array_equal(np.sort(ran), np.arange(n_updates))       # each update once
    level, overwritten = np.empty(n_updates, dtype=int), np.zeros(n_updates, bool)
    current = depth = -1
    for cells, nbrs, positions in levels:
        here = positions[0] // size
        assert np.all(positions // size == here) and here >= current   # blocks in order
        depth, current = (depth + 1 if here == current else 0), here
        level[positions] = depth
        assert np.all(np.diff(positions) > 0)         # stream order within a level
        overwritten[positions] = cells == -1
        real = cells[cells != -1]
        assert np.array_equal(real, sites[positions][cells != -1])
        assert np.unique(real).size == real.size      # no level writes a cell twice
        assert np.array_equal(nbrs, table.idx[sites[positions]])
    assert n < chunk or not overwritten.any()
    for lo in range(0, n_updates, size):
        block_sites, block_level = sites[lo:lo + size], level[lo:lo + size]
        assert block_level.tolist() == reference_levels(block_sites, table.idx, n < chunk)
        for i in range(block_sites.size):
            for j in range(i + 1, block_sites.size):
                if block_level[i] == block_level[j]:  # one level: neither reads the other
                    assert block_sites[i] not in table.idx[block_sites[j]]
                    assert block_sites[j] not in table.idx[block_sites[i]]
                if block_sites[i] == block_sites[j]:  # one site: stream order kept, and the
                    assert block_level[i] <= block_level[j]   # later write is the one kept
                    assert block_level[i] < block_level[j] or overwritten[lo + i]
    # the rows after every update: each site holds the position of its last update
    assert [j for j, _ in rows] == np.cumsum([0] + [len(r) for _, r in rows])[:-1].tolist()
    latest, want = np.full(n, -1.0), []
    for k, site in enumerate(sites):
        latest[site] = k
        want.append(latest.copy())
    assert np.concatenate([r for _, r in rows] + [np.empty((0, n))]).tobytes() == \
        np.array(want).reshape(-1, n).tobytes()


def sequential_levels(sites, idx, block, merge):
    """:func:`reference_levels` one update at a time: one deeper than the
    latest earlier update of its block at a site it reads, and no shallower
    than its site's previous update (one deeper without ``merge``), each
    block of ``block`` updates on its own."""
    level = np.empty(sites.size, dtype=int)
    for start in range(0, sites.size, block):
        latest = np.full(idx.shape[0], -1)
        for k in range(start, min(start + block, sites.size)):
            s = sites[k]
            latest[s] = level[k] = max(1 + latest[idx[s]].max(), latest[s] + (not merge))
    return level


@pytest.mark.parametrize("n, n_blocks", [(1 << 16, 1), ((1 << 16) + 1, 1),
                                         (1 << 15, 2), ((1 << 15) + 1, 2)])
def test_levels_on_either_side_of_the_16_bit_casts(n, n_blocks):
    # rings whose chunk of cells fills 2**16 exactly, or one cell more, so the
    # unmerged queues sort on a uint16 copy or on the int64 cells; the merged
    # runs sort keys 0..n (n for a shell entry), on a uint16 copy for the
    # 2**15-site rings and on int64 for the others; a block of n > 2**16
    # updates keeps its levels in int64.  A block of n updates names most
    # sites more than once, and the top index several times
    idx = (np.arange(n)[:, None] + np.array([-1, 1])) % n
    rng = np.random.default_rng(n)
    sites = rng.integers(0, n, n_blocks * n)
    sites[rng.integers(0, sites.size, 8)] = n - 1
    for merge in (False, True):
        level, overwritten = sampler._levels(sites, idx.T.copy(), n, merge)
        assert level.dtype == (np.uint16 if n <= 1 << 16 else np.int64)
        assert np.array_equal(level, sequential_levels(sites, idx, n, merge))
        assert np.array_equal(overwritten, overwritten_updates(sites, level, n) & merge)


def overwritten_updates(sites, level, block):
    """Whether a later update of the same block and site has the same level."""
    seen, out = set(), np.zeros(sites.size, bool)
    for k in range(sites.size - 1, -1, -1):
        key = (k // block, int(sites[k]), int(level[k]))
        out[k] = key in seen
        seen.add(key)
    return out


@pytest.mark.parametrize("k", range(2, 25))
def test_local_means_match_scalar_dot_bitwise(k):
    # sampler._local_means, which the levels, the coupled step and the
    # stationarity check read, against the scalar scan's row @ w
    rng = np.random.default_rng(k)
    w = rng.uniform(0.1, 2.0, k)
    w /= w.sum()                                       # non-dyadic weights
    values = rng.uniform(-3.0, 5.0, 500)
    nbrs = rng.integers(0, values.size, (4000, k))
    scalar = np.array([values[row] @ w for row in nbrs])
    assert sampler._local_means(values, nbrs, w, -np.inf, np.inf).tobytes() == scalar.tobytes()
    # a stack of fields, as the stationarity check reads them: each row as its own
    fields = rng.uniform(-3.0, 5.0, (50, 40))
    rows = rng.integers(0, 40, (40, k))
    scalar = np.array([[field[row] @ w for row in rows] for field in fields])
    assert sampler._local_means(fields, rows, w, -np.inf, np.inf).tobytes() == scalar.tobytes()


def scalar_local_means(values, rows, w, a, b):
    """The per-row scalar mean ``float(values[row] @ w)`` clipped by Python's
    min and max, for a flat field or a stack of them: the bitwise reference
    for :func:`sampler._local_means`."""
    a, b = float(a), float(b)
    if values.ndim == 2:
        return np.array([scalar_local_means(field, rows, w, a, b) for field in values])
    return np.array([min(max(float(values[row] @ w), a), b) for row in rows])


@st.composite
def local_mean_inputs(draw):
    """The arguments of :func:`sampler._local_means` as its callers pass them.

    A table of ``kernels_and_geometries`` over an interval with an end at
    0.0 or -0.0, at 0.9 (six exp-decay(0.5, 3) weights sum a field there to
    0.8999999999999999) or elsewhere, of width 1e-15 to 100 (or none, at a large end); field values at
    the ends, at -0.0 and between them, or straying past the ends; and
    either a flat field, its interior then the box's shell values and the
    runs' write-off slot, read by the rows of some cells, or a (T, n) trace
    of a torus read by the whole table.  The ends are floats, as
    :func:`local_mean` and the stationarity check pass them, or 0-d arrays,
    as the runs do."""
    table = wrapped_offsets(*draw(kernels_and_geometries()))
    end = draw(st.sampled_from([0.0, -0.0, 0.9, -1.3, draw(st.floats(-1e3, 1e3))]))
    width = 10.0 ** draw(st.floats(-15.0, 2.0))
    a, b = (end, end + width) if draw(st.booleans()) else (end - width, end)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stray = draw(st.sampled_from([0.0, 0.25])) * (b - a)
    n, tail = table.n_sites, len(table.shell)
    trace = tail == 0 and draw(st.booleans())
    shape = (draw(st.integers(1, 6)), n) if trace else (n + tail + 1,)
    values = rng.uniform(a - stray, b + stray, shape)
    picks = rng.integers(0, 4, shape)
    values[picks == 1] = a
    values[picks == 2] = b
    if a <= 0.0 <= b:
        values[rng.random(shape) < 0.1] = -0.0
    if trace:
        rows = table.idx
    else:
        values[-1] = 0.0                                 # the write-off slot
        rows = table.idx.take(rng.integers(0, n, draw(st.integers(1, 40))), axis=0)
    if draw(st.booleans()):
        a, b = np.array(a), np.array(b)
    return values, rows, table.weights, a, b


@settings(max_examples=300, deadline=None)
@given(case=local_mean_inputs())
def test_local_means_are_the_clipped_scalar_means_bitwise(case):
    means = sampler._local_means(*case)
    reference = scalar_local_means(*case)
    assert means.shape == reference.shape
    assert means.tobytes() == reference.tobytes()


def test_local_means_clip_rounded_and_stray_means_to_the_ends():
    # fixed cases of the property above: six exp-decay weights sum a field
    # at 0.9 to 0.8999999999999999, which the clip lifts to a = 0.9 and
    # keeps below b = 0.9; a -0.0 end is what a mean past it becomes; and
    # the nn weights 1/2 and 1/4 (d = 1, 2) sum fields at the ends to means
    # in [a, b], where the clip moves nothing
    table = wrapped_offsets(exp_decay(0.5, 3), LatticeGeometry.torus([8]))
    rows, w = table.idx, table.weights
    at = np.full(8, 0.9)
    assert float(at[rows[0]] @ w) == 0.8999999999999999
    assert sampler._local_means(at, rows, w, 0.9, 2.0).tolist() == [0.9] * 8
    assert sampler._local_means(at, rows, w, 0.0, 0.9).tolist() == [0.8999999999999999] * 8
    stack = np.stack([at, np.full(8, -1.0)])
    means = sampler._local_means(stack, rows, w, *sampler._array_ends(SpinInterval(-0.0, 0.9)))
    assert means.shape == (2, 8)
    assert np.signbit(means[1]).all() and (means[1] == 0.0).all()
    assert means.tobytes() == scalar_local_means(stack, rows, w, -0.0, 0.9).tobytes()
    rng = np.random.default_rng(3)
    for dimension, extents in ((1, [64]), (2, [8, 8])):
        nn = wrapped_offsets(nearest_neighbor(dimension), LatticeGeometry.torus(extents))
        for _ in range(500):
            a = rng.uniform(-100.0, 100.0)
            b = a + abs(a) * 10.0 ** rng.uniform(-16.0, 0.0)
            fields = rng.choice([a, b], (8, 64))
            means = np.vecdot(fields.take(nn.idx, axis=-1), nn.weights)
            assert ((a <= means) & (means <= b)).all()


def two_call_coupled_step(low, upp, cells, nbrs, us, w, a, b, tol):
    """The coupled level step with its quantiles drawn in two calls, one for
    the lower chain and one for the upper chain where its mean differs: the
    bitwise reference for the one-call :func:`sampler._coupled_step`."""
    m_lo = np.vecdot(low.take(nbrs, axis=-1), w).clip(a, b)
    m_up = np.vecdot(upp.take(nbrs, axis=-1), w).clip(a, b)
    new_lo = _sample_many(m_lo, a, b, us)
    new_up = new_lo.copy()
    differ = m_up != m_lo
    if differ.any():
        new_up[differ] = _sample_many(m_up[differ], a, b, us[differ])
    inversion = new_lo - new_up
    worst = max(float(inversion.max()), 0.0)
    repairs = 0
    if worst > 0.0:
        if worst > tol:
            k = int(inversion.argmax())
            err = OrderViolation(f"{new_lo[k]} > {new_up[k]}")
            err.index = k
            raise err
        repairs = int(np.count_nonzero(inversion > 0.0))
        new_lo, new_up = np.minimum(new_lo, new_up), np.maximum(new_lo, new_up)
    low[cells] = new_lo
    upp[cells] = new_up
    return new_up - new_lo, repairs, worst


@st.composite
def coupled_levels(draw):
    """One level of the coupled step on flat fields: 1 to 300 cells with 1 to
    8 neighbours each among the other values, an interval of width 1e-6 to
    100 around an offset centre, stream uniforms, and an upper field that
    equals the lower one, sits a few ulps from it either way, lies above it,
    or is drawn on its own."""
    width = 10.0 ** draw(st.floats(-6.0, 2.0))
    centre = draw(st.floats(-1e3, 1e3))
    a, b = centre - 0.5 * width, centre + 0.5 * width
    n_cells, k = draw(st.integers(1, 300)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = rng.permutation(n_cells + draw(st.integers(1, 40)))
    cells = order[:n_cells]
    nbrs = rng.choice(order[n_cells:], (n_cells, k))
    w = rng.uniform(0.1, 2.0, k)
    w /= w.sum()
    low = rng.uniform(a, b, order.size)
    ulps = rng.integers(-4, 5, order.size) * np.spacing(low)
    upp = {"equal": low.copy(), "ulps": low + ulps, "above": rng.uniform(low, b),
           "free": rng.uniform(a, b, order.size)}[draw(st.sampled_from(
               ["equal", "ulps", "above", "free"]))].clip(a, b)
    words = rng.integers(0, 2 ** 53, n_cells)
    words[rng.integers(0, n_cells, 2)] = [0, 2 ** 53 - 1]
    us = np.minimum((words + 0.5) * 2.0 ** -53, 1.0 - 2.0 ** -53)
    return low, upp, cells, nbrs, us, w, a, b, sampler._order_tolerance(SpinInterval(a, b))


def step_outcome(step, level):
    # what a coupled step returns (the gaps, the repairs and the worst
    # inversion) and leaves in both fields, or the error it raises
    low, upp, cells, nbrs, us, w, a, b, tol = level
    low, upp = low.copy(), upp.copy()
    try:
        gap, repairs, worst = step(low, upp, cells, nbrs, us, w, a, b, tol)
    except OrderViolation as err:
        return str(err), err.index
    return gap.tobytes(), repairs, worst, low.tobytes(), upp.tobytes()


@settings(max_examples=300, deadline=None)
@given(level=coupled_levels())
def test_coupled_step_matches_two_call_reference_bitwise(level):
    assert step_outcome(sampler._coupled_step, level) == step_outcome(two_call_coupled_step,
                                                                      level)


@settings(max_examples=200, deadline=None)
@given(level=coupled_levels())
def test_coupled_step_takes_0d_ends_bitwise(level):
    # the sandwich and CFTP pass the ends as 0-d arrays, the bitwise references as floats
    low, upp, cells, nbrs, us, w, a, b, tol = level
    ends = sampler._array_ends(SpinInterval(a, b))
    assert (step_outcome(sampler._coupled_step, (low, upp, cells, nbrs, us, w, *ends, tol))
            == step_outcome(sampler._coupled_step, level))


@settings(max_examples=100, deadline=None)
@given(level=coupled_levels())
def test_coupled_step_draws_each_level_in_one_call(level):
    # L + |d| quantiles: every lower entry and the upper entries whose mean differs
    low, upp, cells, nbrs, us, w, a, b, tol = level
    differ = np.count_nonzero(np.vecdot(low.take(nbrs, axis=-1), w).clip(a, b)
                              != np.vecdot(upp.take(nbrs, axis=-1), w).clip(a, b))
    sizes = []

    def counted(m, *args):
        sizes.append(m.size)
        return _sample_many(m, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_sample_many", counted)
        step_outcome(sampler._coupled_step, level)
    assert sizes == [cells.size + differ]


def test_levelled_sandwich_makes_one_quantile_call_per_level():
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_calls(mp, ["_coupled_step", "_sample_many"])
        run_sandwich(LatticeGeometry.torus([12, 12]), nearest_neighbor(2), UNIT, 5, seed=1)
    assert calls["_coupled_step"] > 0 and calls["_sample_many"] == calls["_coupled_step"]


def sub_tolerance_inversion(m, a, b, u):
    # decreasing in the mean by at most 1e-15 on [0, 1]: below _order_tolerance
    return 0.25 + 0.5 * u - 1e-15 * m


def test_inversion_just_above_tolerance_raises(schedule, monkeypatch):
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


def test_sandwich_counts_sub_ulp_repairs(schedule, monkeypatch):
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


def test_sandwich_order_violation_names_sweep_and_site(schedule, monkeypatch):
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
    for bad in (-1, True, 2.5):
        with pytest.raises(ValueError, match="burn_in"):
            stationary_run(LatticeGeometry.torus([8]), NN1, UNIT, 0, bad, 3)
        with pytest.raises(ValueError, match="n_sweeps"):
            stationary_run(LatticeGeometry.torus([8]), NN1, UNIT, 0, 3, bad)


def reference_chain(values, stream, n_updates, table, interval):
    """``n_updates`` single-chain updates one at a time in stream order;
    returns each update's new value."""
    idx, w = table.idx, table.weights
    a, b = interval.a, interval.b
    sites, us = stream.take(n_updates)
    log = np.empty(n_updates)
    for k, (i, u) in enumerate(zip(sites, us)):
        values[i] = log[k] = scalar_quantile(min(max(values[idx[i]] @ w, a), b), a, b, u)
    return log


def reference_run(table, interval, seed, burn_in, n_sweeps, start):
    """stationary_run as the sequential scan: burn in, then one row per sweep."""
    n = table.n_sites
    level = {"midpoint": interval.midpoint, "lower": interval.a, "upper": interval.b}[start]
    values = FieldConfiguration.constant(table, interval, level).values
    stream = UpdateStream(derive_key(seed, "stationary"), n)
    reference_chain(values, stream, burn_in * n, table, interval)
    fields = np.empty((n_sweeps, n))
    for s in range(n_sweeps):
        reference_chain(values, stream, n, table, interval)
        fields[s] = values[:n]
    return fields


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@settings(max_examples=100, deadline=None)
@given(setup=sandwich_setups(kinds=("torus", "ring")), seed=st.integers(0, 2 ** 64 - 1),
       burn_in=st.integers(0, 4), n_sweeps=st.integers(1, 6),
       start=st.sampled_from(["midpoint", "lower", "upper"]),
       block=st.integers(1, 40), chunk=st.integers(1, 64))
def test_stationary_run_matches_sequential_scan_bitwise(schedule, setup, seed, burn_in,
                                                         n_sweeps, start, block, chunk):
    # blocks of max(1, block // n) sweeps: their edges fall inside the burn-in
    # and inside the measurement sweeps; max(1, chunk // n) blocks share a
    # level pass; the chain runs on tori (a box's draws are
    # test_sweep_matches_sequential_scan_bitwise's)
    table, kernel, geometry, interval, _ = setup
    with pytest.MonkeyPatch.context() as mp:      # hand-made ring tables pass as-is
        mp.setattr(sampler, "wrapped_offsets", lambda k, g: table)
        set_schedule(mp, schedule)
        mp.setattr(sampler, "_BLOCK_UPDATES", block)
        mp.setattr(sampler, "_CHUNK_SITES", chunk)
        trace = stationary_run(geometry, kernel, interval, seed, burn_in, n_sweeps, start=start)
    fields = reference_run(table, interval, seed, burn_in, n_sweeps, start)
    assert trace.fields.tobytes() == fields.tobytes()


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@settings(max_examples=50, deadline=None)
@given(setup=sandwich_setups(), seed=st.integers(0, 2 ** 64 - 1),
       calls=st.lists(st.integers(0, 50), min_size=1, max_size=3), block=st.integers(1, 40))
def test_sweep_matches_sequential_scan_bitwise(schedule, setup, seed, calls, block):
    # update counts that are not whole sweeps leave a partial last block
    table, _, _, interval, boundary = setup
    field = FieldConfiguration.constant(table, interval, interval.midpoint, boundary)
    values = field.values.copy()
    stream = UpdateStream(derive_key(seed, "sweep"), table.n_sites)
    twin = UpdateStream(derive_key(seed, "sweep"), table.n_sites)
    with pytest.MonkeyPatch.context() as mp:
        set_schedule(mp, schedule)
        mp.setattr(sampler, "_BLOCK_UPDATES", block)
        for n_updates in calls:
            sweep(field, stream, n_updates)
            reference_chain(values, twin, n_updates, table, interval)
            assert field.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("geometry, boundary", [
    (LatticeGeometry.torus([16]), None),
    (LatticeGeometry.box([(0,), (1,), (2,)], NN1), {(-1,): -0.5, (3,): 2.5}),
], ids=["ring16", "box3"])
def test_site_update_matches_sweep_bitwise(geometry, boundary):
    # site_update fed a stream's (site, u) pairs one at a time and sweep over
    # the same stream draw through the one quantile core, with the same bits
    interval = SpinInterval(-1.0, 3.0)
    table = wrapped_offsets(NN1, geometry)
    n_updates = 200 * table.n_sites
    by_sweep = FieldConfiguration.constant(table, interval, 0.0, boundary)
    sweep(by_sweep, UpdateStream(derive_key(4, "site"), table.n_sites), n_updates)
    by_site = FieldConfiguration.constant(table, interval, 0.0, boundary)
    sites, us = UpdateStream(derive_key(4, "site"), table.n_sites).take(n_updates)
    for i, u in zip(sites.tolist(), us.tolist()):
        site_update(by_site, i, u)
    assert by_site.values.tobytes() == by_sweep.values.tobytes()


def test_order_violation_names_a_later_sweep_of_the_block(schedule, monkeypatch):
    # a 10-sweep run is one block ("leveled") or ten; only the update at
    # stream position 21, in sweep 3, inverts, so the message must name sweep 3
    sites, us = UpdateStream(derive_key(1, "sandwich"), 8).take(10 * 8)
    target = us[21]
    monkeypatch.setattr(sampler, "_sample_many", lambda m, a, b, u: np.where(
        u == target, a + b - m, _sample_many(m, a, b, u)))
    with pytest.raises(OrderViolation, match=rf"at sweep 3, site index {sites[21]}: "):
        run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, 10, seed=1)


def test_order_violation_names_an_overwritten_update(schedule, monkeypatch):
    # the first update after sweep 1 that its site's next update overwrites in
    # the same level inverts; the levelled step raises it at the write-off
    # slot, so the message must come from its stream position
    table = wrapped_offsets(NN1, LatticeGeometry.torus([8]))
    levels, _ = recorded_levels(table.idx, UpdateStream(derive_key(1, "sandwich"), 8), 10 * 8)
    overwritten = np.sort(np.concatenate([positions[cells == -1]
                                          for cells, _, positions in levels]))
    sites, us = UpdateStream(derive_key(1, "sandwich"), 8).take(10 * 8)
    k = overwritten[overwritten >= 8][0]
    target = us[k]
    monkeypatch.setattr(sampler, "_sample_many", lambda m, a, b, u: np.where(
        u == target, a + b - m, _sample_many(m, a, b, u)))
    with pytest.raises(OrderViolation, match=rf"at sweep {k // 8 + 1}, site index {sites[k]}: "):
        run_sandwich(LatticeGeometry.torus([8]), NN1, UNIT, 10, seed=1)


@pytest.mark.parametrize("run", ["chain", "sandwich"])
def test_overwritten_updates_keep_their_values_in_the_log(run):
    # a merged level writes each site once, yet the log that the recorded
    # sweeps are rebuilt from holds every update's value (the chain's) or gap
    # (the sandwich's), the sequential scan's log bit for bit; a 32-site ring
    # merges by default, and its 23 or 20 sweeps are one block
    geometry = LatticeGeometry.torus([32])
    table = wrapped_offsets(NN1, geometry)
    logs, overwritten = [], []
    rows_at, levels = sampler._rows_at, sampler._levels

    def spy_levels(*args):
        level, over = levels(*args)
        overwritten.append(over.any())
        return level, over

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_rows_at", lambda before, sites, log, ends: (
            logs.append(log.copy()) or rows_at(before, sites, log, ends)))
        mp.setattr(sampler, "_levels", spy_levels)
        if run == "chain":
            stationary_run(geometry, NN1, UNIT, seed=2, burn_in=3, n_sweeps=20)
        else:
            run_sandwich(geometry, NN1, UNIT, 20, seed=2)
    if run == "chain":
        values = FieldConfiguration.constant(table, UNIT, UNIT.midpoint).values
        reference = reference_chain(values, UpdateStream(derive_key(2, "stationary"), 32),
                                    23 * 32, table, UNIT)
    else:
        gaps = []
        reference_sandwich(table, UNIT, 20, 2, log=gaps)
        reference = np.array(gaps)
    assert any(overwritten)
    assert [log.tobytes() for log in logs] == [reference.tobytes()]


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


def chunk_sizes(geometry, n_updates):
    """The updates each level pass of :func:`sampler._blocks` takes, for a
    run of ``n_updates`` updates on ``geometry`` under the nn kernel."""
    table = wrapped_offsets(NN1, geometry)
    sizes, levels = [], sampler._levels

    def spy_levels(sites, *args):
        sizes.append(sites.size)
        return levels(sites, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_levels", spy_levels)
        for _ in sampler._blocks(UpdateStream(derive_key(0, "chunks"), table.n_sites),
                                 n_updates, table.idx, lambda cells, nbrs, us: us,
                                 np.zeros(table.n_sites), np.empty(0, dtype=int)):
            pass
    return sizes


def test_small_volume_chunk_stays_under_the_cap():
    # a 3-site box takes blocks of 16,383 updates, and _CHUNK_SITES // 3 = 170
    # of them would make a chunk of 2.8 million; the cap keeps 32 per chunk
    block = sampler._BLOCK_UPDATES // 3 * 3
    sizes = chunk_sizes(LatticeGeometry.box([(0,), (1,), (2,)], NN1), 2 * 32 * block + 5)
    assert max(sizes) <= sampler._CHUNK_UPDATES
    assert sizes == [32 * block, 32 * block, 5]


def test_sixteen_site_ring_keeps_chunk_sites_blocks_per_chunk():
    # at 16 sites _CHUNK_SITES // n blocks of _BLOCK_UPDATES make the cap exactly
    block = sampler._BLOCK_UPDATES
    sizes = chunk_sizes(LatticeGeometry.torus([16]), sampler._CHUNK_UPDATES + 16)
    assert sizes == [sampler._CHUNK_SITES // 16 * block, 16]


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
    # one sample is the first row of any larger batch of the same seed
    boundary = {(-1,): 0.0, (2,): 1.0}
    one = cftp_samples(box_pair(), NN1, UNIT, boundary, 1, seed=8)
    batch = cftp_samples(box_pair(), NN1, UNIT, boundary, 20, seed=8)
    assert one.shape == (1, 2) and np.array_equal(one[0], batch[0])


def test_cftp_values_in_interval():
    samples = cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 200, seed=2)
    assert np.all(samples >= 0.0) and np.all(samples <= 1.0)


def test_cftp_requires_box():
    with pytest.raises(GeometryMismatch):
        cftp_samples(LatticeGeometry.torus([8]), NN1, UNIT, None, 1, seed=0)


def test_cftp_sample_count_validation():
    boundary = {(-1,): 0.0, (2,): 1.0}
    for bad in (-1, True, 2.5):
        with pytest.raises(ValueError, match="n_samples"):
            cftp_samples(box_pair(), NN1, UNIT, boundary, bad, seed=0)
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


@pytest.mark.parametrize("t_cap", [1, 0, -5, True])
def test_cftp_rejects_t_cap_below_one(t_cap):
    # below the first horizon, max(2, n), it would run no step and report no
    # coalescence at a horizon that never ran
    with pytest.raises(ValueError, match="t_cap must be at least"):
        cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 4, seed=0, t_cap=t_cap)


@pytest.mark.parametrize("t_cap", [64.5, "8"])
def test_cftp_rejects_t_cap_that_is_not_an_integer(t_cap):
    # a fractional cap lies above the floor and would run, up to horizon 64
    with pytest.raises(TypeError):
        cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 4, seed=0, t_cap=t_cap)


def test_cftp_takes_a_numpy_integer_t_cap():
    # horizons 2, 4 and 8 run
    with pytest.raises(NoCoalescence, match=r"at horizon 8 \(cap 8,"):
        cftp_samples(box_pair(), NN1, UNIT, {(-1,): 0.0, (2,): 1.0}, 4, seed=0,
                     eps_coal=0.0, t_cap=np.int64(8))


def test_cftp_rejects_t_cap_below_first_horizon():
    # n = 5 sites: the first horizon is 5, so a cap of 4 would have reported
    # "not coalesced at horizon 2" with no horizon run; a cap of 5 runs one
    box5 = LatticeGeometry.box([(i,) for i in range(5)], NN1)
    with pytest.raises(ValueError, match="t_cap must be at least the first horizon 5, got 4"):
        cftp_samples(box5, NN1, UNIT, 0.5, 4, seed=0, t_cap=4)
    with pytest.raises(NoCoalescence, match="not coalesced at horizon 5 "):
        cftp_samples(box5, NN1, UNIT, 0.5, 4, seed=0, eps_coal=0.0, t_cap=5)


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


# ---------------------------------------------------------------------------
# CFTP over drawn boxes, kernels, intervals and boundaries
# ---------------------------------------------------------------------------

@st.composite
def cftp_setups(draw):
    """A 1-D or 2-D box with an nn or exp-decay kernel, an interval and a
    boundary drawn inside it, and a coalescence tolerance."""
    dimension = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        kernel = nearest_neighbor(dimension)
    else:
        kernel = exp_decay(draw(st.floats(0.2, 0.9)), draw(st.integers(1, 2)), dimension)
    if dimension == 1:
        sites = [(i,) for i in range(draw(st.integers(1, 4)))]
    else:
        sites = [(i, j) for i in range(draw(st.integers(1, 2)))
                 for j in range(draw(st.integers(1, 3)))]
    box = LatticeGeometry.box(sites, kernel)
    low = draw(st.floats(-2.0, 2.0))
    interval = SpinInterval(low, low + draw(st.floats(0.25, 2.0)))
    shell = len(wrapped_offsets(kernel, box).shell)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    boundary = rng.uniform(interval.a, interval.b, shell)
    eps = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    return box, kernel, interval, boundary, eps


def cftp_outcome(setup, n_samples, seed, t_cap=1 << 12):
    """The samples' shape and bytes, or the type and message of the error raised."""
    box, kernel, interval, boundary, eps = setup
    try:
        out = cftp_samples(box, kernel, interval, boundary, n_samples, seed,
                           eps_coal=eps, t_cap=t_cap)
    except (NoCoalescence, OrderViolation) as err:
        return type(err), str(err)
    return out.shape, out.tobytes()


@settings(max_examples=30, deadline=None)
@given(setup=cftp_setups(), sizes=st.lists(st.integers(0, 9), min_size=2, max_size=2),
       seed=st.integers(0, 2 ** 63))
def test_cftp_sample_depends_only_on_seed_and_replica(setup, sizes, seed):
    # not on how many replicas run beside it, nor on when they coalesce
    few, many = sorted(sizes)
    part = cftp_outcome(setup, few, seed, t_cap=1 << 20)
    whole = cftp_outcome(setup, many, seed, t_cap=1 << 20)
    n = whole[0][1]
    assert part == ((few, n), whole[1][:few * n * 8])


@settings(max_examples=40, deadline=None)
@given(setup=cftp_setups(), lift=st.sampled_from([0.0, 1e-9, 0.1, 1.0]),
       n_samples=st.integers(1, 30), seed=st.integers(0, 2 ** 63))
def test_cftp_samples_ordered_in_boundary_pathwise(setup, lift, n_samples, seed):
    # stochastic domination as a pathwise property: each sample lies within
    # eps/2 of the exact draw of the same randomness, and that draw is
    # non-decreasing in the boundary, so boundaries lo <= hi and one seed give
    # lo's samples <= hi's + eps at every replica and site (the coupling's
    # rounding tolerance when eps is 0, where both chains meet exactly)
    box, kernel, interval, low, eps = setup
    rng = np.random.default_rng(seed)
    high = np.minimum(low + lift * rng.uniform(0.0, 1.0, low.size) * (interval.b - low),
                      interval.b)
    below = cftp_samples(box, kernel, interval, low, n_samples, seed, eps_coal=eps)
    above = cftp_samples(box, kernel, interval, high, n_samples, seed, eps_coal=eps)
    slack = eps if eps > 0.0 else sampler._order_tolerance(interval)
    assert np.all(below <= above + slack)


@settings(max_examples=30, deadline=None)
@given(n_samples=st.integers(1, 40), seed=st.integers(0, 2 ** 63),
       slope=st.floats(1e-3, 0.2), rare=st.floats(0.01, 0.3))
def test_cftp_order_violation_names_time_replica_and_site(n_samples, seed, slope, rare):
    # decreasing in the mean only on uniforms below ``rare``, so replicas
    # break at different times; at a horizon's first slot every replica
    # starts from the same states, so equal inversions (ties) are common
    def broken(m, a, b, u):
        return 0.25 + 0.5 * u - slope * m * (u < rare)

    setup = (LatticeGeometry.box([(0,), (1,), (2,)], NN1), NN1, UNIT,
             np.array([0.0, 1.0]), 1e-9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_sample_many", broken)
        outcome = cftp_outcome(setup, n_samples, seed)
    if outcome[0] is OrderViolation:
        assert re.match(r"coupled order broken inside coupling from the past at time -\d+, "
                        r"replica \d+, site index \d: ", outcome[1])


def test_cftp_no_coalescence_counts_every_active_replica():
    setup = (box_pair(), NN1, UNIT, np.array([0.0, 1.0]), 0.0)
    outcome = cftp_outcome(setup, 30, 0, t_cap=8)
    assert outcome[0] is NoCoalescence
    assert outcome[1].startswith("30 replicas not coalesced at horizon 8")
