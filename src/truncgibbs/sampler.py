"""Heat-bath dynamics for the bounded Gaussian field.

A single-site update resamples one spin from the unit-variance normal
centered at the kernel-weighted mean of its neighbors, conditioned to
[a, b], through the shared-uniform inverse CDF.  Because the local mean
is non-decreasing in the field and the inverse CDF is non-decreasing in
the mean, two chains driven by the same (site, uniform) stream preserve
pointwise order exactly: that one fact powers the sandwich run from the
extremal all-a / all-b states and monotone coupling-from-the-past.

Continuous time is realized as uniform random scan, the embedded jump
chain of independent rate-one clocks; the equilibrium law and the
monotone coupling depend only on the order of updates, so no waiting
times are drawn.

An update reads its neighbours and writes its site; it never reads the
value it replaces.  So two updates commute when neither reads the site the
other writes, and the runs batch a stretch of the random scan by
dependency level: each update one level deeper than the deepest earlier
update of the stretch at a site it reads, and, on volumes whose levels
are narrow, no shallower than its site's previous update, whose value it
overwrites unread (with one level per update of a site, the Cartier-Foata
normal form of the update word).  The levels are peeled off per-site
queues of pending runs, a site's back-to-back updates with no neighbour
update between them: a level is every site whose next run comes before
the next run of each of its neighbours, found by a fixed run of numpy
calls per round (:func:`_levels`).  Applying the levels in increasing
order, every update reads exactly the values the sequential scan would,
and a level writes each site once, its last update there; so the stream,
the order of the updates at each site and every bit of the result are
those of the sequential scan.  The single chain and the coupled sandwich
share one level loop (:func:`_blocks`) on every volume and give it only the
step of one level: blocks of whole sweeps, each levelled as one stretch, so
levels run on across sweep boundaries.  The blocks of a chunk are levelled
in one pass, as disjoint volumes side by side; each block then runs from
slices of its updates sorted by level, one step per level, and the rows
after each recorded sweep are rebuilt from the block's log of step outputs.
CFTP's replicas have independent streams, so each of its horizons runs every
active replica in one vectorized pass, one coupled step per slot.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundarySite,
    GeometryMismatch,
    NoCoalescence,
    NotTorus,
    OrderViolation,
    ProbabilityOutOfRange,
    UnknownSite,
)
from .kernel import LatticeGeometry, NeighborTable, SpinInterval, _boundary_array, wrapped_offsets
from .streams import UpdateStream, _check_count, derive_key, site_uniform_pairs
from .truncnorm import _clip, _sample_many


def _order_tolerance(interval: SpinInterval) -> float:
    # Mathematically the shared-uniform update is monotone in the local mean,
    # but once two means agree to the last bit the two inverse-CDF evaluations
    # can round in opposite directions by an ulp.  Inversions up to this bound
    # are rounding noise and are repaired by swapping; anything larger is a
    # genuine coupling bug and raises OrderViolation.
    scale = max(1.0, abs(interval.a), abs(interval.b))
    return 16.0 * np.finfo(float).eps * scale


# The runs take the stream in blocks of whole sweeps of about _BLOCK_UPDATES
# updates and level each block as one stretch, so levels run on across sweep
# boundaries.  A 64-site ring gets about 23 updates per level (12,694 levels
# in 4500 sweeps, seed 3), 16 with one level per update of a site and 6 when
# each sweep is levelled on its own; a 32 x 32 nn torus, which keeps one
# level per update of a site, about 120.
#
# One pass of queue-head rounds levels a chunk of about _CHUNK_SITES / n
# blocks, so the blocks of a chunk share each round's fixed cost; volumes of
# 512 sites or more level one block per pass.  Against one block per pass,
# 512 ran a 64-site ring chain in 0.90x the time, a 32-site ring chain in
# 0.88x and a 16 x 16 nn torus sandwich in 0.88x (medians of 11 to 15 runs,
# 2-core VM).  1024 was no faster on those (1.01x and 1.00x against 512) and
# raised the traced peak of a 64-site, 4500-sweep chain from 12.3 to
# 16.3 MiB, above the 15.9 MiB of its stationarity check.
#
# The same volumes under _CHUNK_SITES give a site's back-to-back updates one
# level: a 64-site ring chain of 4500 sweeps then ran in 0.85x the time of
# one level per update (median of 12 paired runs, 2-core VM), while a
# 32 x 32 nn torus sandwich, whose levels are wide, ran 1.12x and 1.17x
# slower merging (two sets of 12), its run sorts costing more than its 16%
# fewer levels save.
#
# A chunk holds at most _CHUNK_UPDATES updates (one block at least).  That
# binds only below 16 sites, where _CHUNK_SITES / n would exceed 32 blocks
# (170 blocks, 2.8 million updates, on 3 sites), and keeps a small volume's
# level pass to the size of a 16-site volume's.
#
# Every volume runs levelled.  A level costs a fixed run of numpy calls, so
# volumes under about 12 sites, whose levels hold few updates, ran faster
# one update at a time.  Against that loop (CPU-time medians of 10
# interleaved pairs, 2-core VM) an 8-site ring chain took 1.48x the time,
# 8-site ring and 4 x 4 torus sandwiches 1.42x and 1.29x, and a 3-site box
# sandwich 2.0x, while a 16-site ring chain took 0.62x and its sandwich
# 0.87x.  No workload, example or acceptance run uses a volume that small.
_BLOCK_UPDATES = 1 << 14
_CHUNK_SITES = 1 << 9
_CHUNK_UPDATES = 1 << 19


class FieldConfiguration:
    """A spin assignment on a finite geometry, one value in [a, b] per site.

    Interior values occupy the first ``n_interior`` slots of ``values``, and
    a site is named by its index there; for a box the frozen boundary values
    follow in shell order and are never mutated by the dynamics.
    """

    def __init__(self, table: NeighborTable, interval: SpinInterval,
                 values: np.ndarray, boundary=None):
        self.table = table
        self.interval = interval
        self.n_interior = table.n_sites
        gamma = _boundary_array(table.shell, boundary, interval)
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_interior,):
            raise ValueError(f"expected {self.n_interior} interior values, got {values.shape}")
        if not interval.contains(values):
            raise ValueError("field values must lie in the spin interval")
        self.values = np.concatenate([values, gamma])

    @classmethod
    def constant(cls, table, interval, level: float, boundary=None):
        return cls(table, interval, np.full(table.n_sites, float(level)), boundary)

    @property
    def interior(self) -> np.ndarray:
        return self.values[:self.n_interior]

    def _site_index(self, x) -> int:
        """``x`` as an interior index; a box's shell slot raises BoundarySite,
        any other index UnknownSite."""
        i = operator.index(x)          # an integer; a site tuple raises TypeError
        if 0 <= i < self.n_interior:
            return i
        if self.n_interior <= i < len(self.values):
            raise BoundarySite(f"site {i} is a frozen boundary site")
        raise UnknownSite(f"site {i} is not an interior index in [0, {self.n_interior})")


def _array_ends(interval: SpinInterval):
    """The interval's ends as 0-d float64 arrays, which the steps' numpy
    calls take faster than numpy scalars (see :func:`_sample_many`)."""
    return np.array(interval.a, dtype=float), np.array(interval.b, dtype=float)


def local_mean(field: FieldConfiguration, x: int) -> float:
    """The kernel-weighted mean of the neighbors of interior site index x; a
    convex combination, so it always lies inside the spin interval."""
    i = field._site_index(x)
    m = float(field.values[field.table.idx[i]] @ field.table.weights)
    iv = field.interval
    return min(max(m, iv.a), iv.b)


def site_update(field: FieldConfiguration, x: int, u: float) -> FieldConfiguration:
    """Heat-bath update of interior site index x from a uniform in [0, 1], in
    place: the runs' quantile core, :func:`_sample_many`, on one element."""
    if not 0.0 <= u <= 1.0:       # NaN too
        raise ProbabilityOutOfRange(f"u must lie in [0, 1], got {u}")
    i = field._site_index(x)
    m = np.array([local_mean(field, i)])
    field.values[i] = _sample_many(m, *_array_ends(field.interval), np.array([u], dtype=float))[0]
    return field


def sweep(field: FieldConfiguration, stream: UpdateStream, n_updates: int) -> FieldConfiguration:
    """Apply n_updates consecutive stream-driven single-site updates, in place."""
    if stream.n_sites != field.n_interior:
        raise GeometryMismatch("stream volume does not match the field")
    _check_count("n_updates", n_updates)
    _run_chain(field, stream, n_updates, np.empty((0, field.n_interior)))
    return field


def _coupled_step(low: np.ndarray, upp: np.ndarray, cells: np.ndarray, nbrs: np.ndarray,
                  us: np.ndarray, w: np.ndarray, a: float, b: float, tol: float):
    """Heat-bath update of ``cells`` in both flat fields from the shared uniforms.

    ``nbrs`` holds each cell's neighbour indices into the same arrays, and
    no cell may lie in another's row: the updates then commute and run as
    one.  The quantiles come from one :func:`_sample_many` call on the
    lower chain's means followed by the upper chain's means where they
    differ; where they agree the upper chain copies the lower chain's draw.
    Inversions up to ``tol`` are repaired by taking the min / max;
    a larger one raises OrderViolation, with the offending update's
    position in ``cells`` as its ``index``.  Returns the gaps, new upper minus
    new lower value, the number of repairs and the largest repaired inversion.
    """
    m_lo = _clip(np.vecdot(low.take(nbrs), w), a, b)     # the scan's row @ w, bit for bit
    m_up = _clip(np.vecdot(upp.take(nbrs), w), a, b)
    d = (m_up != m_lo).nonzero()[0]
    q = _sample_many(np.concatenate([m_lo, m_up.take(d)]), a, b, np.concatenate([us, us.take(d)]))
    new_lo = q[:m_lo.size]
    new_up = new_lo.copy()
    new_up[d] = q[m_lo.size:]
    gap = new_up - new_lo
    worst = max(0.0, -float(np.minimum.reduce(gap)))
    repairs = 0
    if worst > 0.0:
        if worst > tol:
            k = int(gap.argmin())      # the caller adds what position k names
            err = OrderViolation(f"{new_lo[k]} > {new_up[k]}")
            err.index = k
            raise err
        repairs = int(np.count_nonzero(gap < 0.0))   # sub-ulp rounding wobble
        new_lo, new_up = np.minimum(new_lo, new_up), np.maximum(new_lo, new_up)
        gap = new_up - new_lo
    low[cells] = new_lo
    upp[cells] = new_up
    return gap, repairs, worst


def _runs(sites: np.ndarray, rows: np.ndarray, block: int):
    """The positions of a chunk of blocks sorted stably by cell, as
    :func:`_levels` sorts them, and whether each update starts a run: whether
    its site reads a write since the site's previous update in the block.

    Each block takes one stable argsort, by site, of K + 1 entries per
    update, its own site and then its row (``rows`` as in :func:`_levels`):
    an update's own entry is followed by the next update of its site exactly
    when nothing that site reads is written between them.  The sort runs on
    ``uint16`` keys when every site fits, where numpy runs a radix sort, and
    one block at a time, which bounds its int64 permutation.
    """
    width, n = rows.shape[0] + 1, rows.shape[1]
    keys = np.vstack([np.arange(n), rows]).T.astype(np.uint16 if n < 1 << 16 else np.int64)
    own_entry = np.tile(np.arange(width) == 0, min(block, sites.size))
    order, split = np.empty(sites.size, np.int64), np.empty(sites.size, bool)
    for lo in range(0, sites.size, block):
        by_site = np.argsort(keys.take(sites[lo:lo + block], axis=0).ravel(), kind="stable")
        own = own_entry[:by_site.size].take(by_site).nonzero()[0]
        order[lo:lo + block] = by_site.take(own) // width + lo
        split[lo:lo + block] = np.diff(own, prepend=-2) > 1
    return order, split


def _levels(sites: np.ndarray, rows: np.ndarray, block: int, merge: bool):
    """The dependency level of each update of a chunk of blocks, and whether a
    later update of its site overwrites it in the same level: ``sites`` is
    the chunk in stream order, ``block`` updates per block (the last may be
    shorter), and each block is levelled as one stretch of its own.

    An update reads its row and writes its site.  It lands one level deeper
    than the deepest earlier update of its block at a site it reads (the
    neighbour relation being symmetric, this also puts it after every earlier
    update that reads its site), and no shallower than its site's previous
    update; without ``merge``, one level deeper than that too.  So with
    ``merge`` a run of a site's back-to-back updates, with no update at a site
    they read in between, shares one level, and the level's one scatter must
    keep only the run's last value: ``overwritten`` marks the others.

    Block j acts on the disjoint volume of cells j n + [0, n), so one run of
    queue-head rounds levels every block of the chunk at once.  ``rows`` are
    the interior neighbour rows transposed to (K, n), with every entry that
    names a shell site set to n.  The queues come from one stable argsort of
    the cells, taken on a ``uint16`` copy when every cell index fits, where
    numpy runs a radix sort; a stable sort of the same keys is the same
    permutation, which :func:`_runs` gives with ``merge``, along with the
    runs.

    ``head[c]`` is the position of the first update of cell c's next pending
    run; it is the chunk size once c's queue is empty, and always in one
    extra slot at the end.  ``after[k]`` is the position of the next run at
    the cell of run k.  A cell is ready when its pending run comes before the
    pending run of every neighbour; each round gives the ready runs one
    level, the minimal runs of the dependency order, and a run's later
    updates take the level of its first.  The levels of a block of at most
    2**16 updates fit a ``uint16``.
    """
    (width, n), size = rows.shape, sites.size
    n_cells = -(-size // block) * n
    cells = np.arange(size) // block * n + sites
    if merge:
        order, split = _runs(sites, rows, block)
    else:
        order = np.argsort(cells.astype(np.uint16) if n_cells <= 1 << 16 else cells,
                           kind="stable")
    first = np.diff(cells.take(order), prepend=-1) != 0  # the first update of each cell
    heads, head_first = order, first                     # the first update of each run
    if merge:
        runs = first | split
        heads, head_first = order[runs], first[runs]
    head = np.full(n_cells + 1, size)
    head[cells.take(order[first])] = order[first]
    after = np.full(size, size)
    after[heads[:-1]] = np.where(head_first[1:], size, heads[1:])
    # the rows of every block's cells, an entry naming a shell site pointing
    # at the extra slot
    offsets = n * np.arange(n_cells // n)[:, None]
    rows = np.where(rows[:, None] < n, rows[:, None] + offsets, n_cells).reshape(width, -1)
    level = np.empty(size, np.uint16 if block <= 1 << 16 else np.int64)
    pending = head[:-1]
    depth = 0
    while (ready := (pending < np.minimum.reduce(head.take(rows), axis=0)).nonzero()[0]).size:
        pos = pending.take(ready)
        level[pos] = depth
        pending[ready] = after.take(pos)
        depth += 1
    overwritten = np.zeros(size, bool)
    if merge:
        level[order] = level.take(heads)[np.cumsum(runs) - 1]
        overwritten[order[:-1]] = ~runs[1:]             # all but the last of each run
    return level, overwritten


def _blocks(stream: UpdateStream, n_updates: int, idx: np.ndarray, step,
            before: np.ndarray, ends: np.ndarray):
    """Run the next ``n_updates`` updates of ``stream`` and yield ``(j, rows)``:
    the per-site record after the first ``ends[j]``, ``ends[j + 1]``, ...
    updates, one row per (increasing) end, rebuilt from the record ``before``.

    ``step(cells, nbrs, us)`` runs one level, its cells with their neighbour
    rows and uniforms in level order, and returns each update's entry in the
    record; an ``OrderViolation`` it raises names the sweep and the site of
    the update at its ``index``.  The stream goes in chunks of about
    ``_CHUNK_SITES / n`` blocks of whole sweeps and at most ``_CHUNK_UPDATES``
    updates (one block at least), each levelled in one pass (:func:`_levels`).
    Volumes under ``_CHUNK_SITES`` sites give a site's back-to-back updates
    one level, and an update that a later one of its level overwrites writes
    to a write-off slot, index -1 of working fields that carry one extra
    slot: numpy gives repeated indices of one assignment no order, and the
    block's log, the step's outputs in stream order, keeps every value.
    """
    n = idx.shape[0]
    block = max(1, _BLOCK_UPDATES // n) * n
    rows = np.where(idx < n, idx, n).T.copy()
    chunk = max(1, min(_CHUNK_SITES // n, _CHUNK_UPDATES // block)) * block
    for start in range(0, n_updates, chunk):
        sites, us = stream.take(min(chunk, n_updates - start))
        levels, overwritten = _levels(sites, rows, block, n < _CHUNK_SITES)
        for lo in range(0, sites.size, block):
            first, block_sites = start + lo, sites[lo:lo + block]
            level = levels[lo:lo + block]
            order = np.argsort(level, kind="stable")      # a radix sort of uint16 levels
            cells = block_sites.take(order)
            nbrs = idx.take(cells, axis=0)
            cells[overwritten[lo:lo + block].take(order)] = -1      # the write-off slot
            level_us = us[lo:lo + block].take(order)
            new = np.empty(block_sites.size)
            head = 0
            try:
                for tail in np.bincount(level).cumsum().tolist():
                    new[head:tail] = step(cells[head:tail], nbrs[head:tail], level_us[head:tail])
                    head = tail
            except OrderViolation as err:   # by stream position: a level's cell may be the slot
                k = int(order[head + err.index])
                raise OrderViolation(f"coupled order broken at sweep {(first + k) // n + 1}, "
                                     f"site index {block_sites[k]}: {err}") from None
            log = np.empty(block_sites.size)
            log[order] = new
            stop = first + log.size
            j, j_end = np.searchsorted(ends, [first, stop], side="right").tolist()
            # the requested rows and the block's end, each once
            after = _rows_at(before, block_sites, log, np.union1d(ends[j:j_end], stop) - first)
            before = after[-1]
            if j_end > j:
                yield j, after[:j_end - j]


def _rows_at(before: np.ndarray, sites: np.ndarray, log: np.ndarray,
             ends: np.ndarray) -> np.ndarray:
    """The interior after the first ``ends[j]`` updates of a block, one row
    per (increasing) end, from the interior ``before`` the block and the
    block's sites and new values in stream order."""
    seg = np.searchsorted(ends, np.arange(sites.size), side="right")
    kept = np.flatnonzero(seg < ends.size)
    last = np.full((ends.size, before.size), -1)
    # last update per row and site, scattered through one flat index
    np.maximum.at(last.reshape(-1), seg[kept] * before.size + sites[kept], kept)
    last = np.maximum.accumulate(last, axis=0)
    return np.where(last >= 0, log[last], before)


@dataclass(eq=False)
class SandwichTrace:
    """Per-sweep record of the gap between coupled extremal chains."""

    sup_gap: np.ndarray          # length n_sweeps + 1, entry 0 is the initial b - a
    mean_gap: np.ndarray
    snapshots: dict              # sweep index -> per-site gap array
    final_lower: np.ndarray
    final_upper: np.ndarray
    order_repairs: int           # sub-ulp order inversions repaired
    max_inversion_frac: float    # largest repaired inversion / _order_tolerance


def run_sandwich(geometry: LatticeGeometry, kernel, interval: SpinInterval,
                 n_sweeps: int, seed: int, snapshot_every: int = 0,
                 boundary=None) -> SandwichTrace:
    """Coupled run from the all-a and all-b extremes through one shared stream.

    Order is asserted after every update; the per-sweep sup-gap decaying
    toward zero is the finite-volume face of uniqueness of the equilibrium
    state.  :func:`_blocks` runs both chains on the single chain's schedule,
    with :func:`_coupled_step` as its step and the gaps, upper minus lower,
    as the rows it rebuilds after each sweep.  Every bit is the sequential
    scan's, and an ``OrderViolation`` names the sweep and the site of the
    update that raised it.
    """
    _check_count("n_sweeps", n_sweeps)
    _check_count("snapshot_every", snapshot_every)
    table = wrapped_offsets(kernel, geometry)
    n = table.n_sites
    # each field with the write-off slot of _blocks at the end
    low = np.append(FieldConfiguration.constant(table, interval, interval.a, boundary).values, 0.0)
    upp = np.append(FieldConfiguration.constant(table, interval, interval.b, boundary).values, 0.0)
    stream = UpdateStream(derive_key(seed, "sandwich"), n)
    w = table.weights
    a, b = _array_ends(interval)
    tol = _order_tolerance(interval)

    sup, mean, snapshots = np.empty(n_sweeps + 1), np.empty(n_sweeps + 1), {}

    def record(s, gaps):        # the per-site gaps after sweeps s, s + 1, ..., one row each
        sup[s:s + len(gaps)] = gaps.max(axis=1)
        mean[s:s + len(gaps)] = gaps.mean(axis=1)
        if snapshot_every:
            for j in range(-s % snapshot_every, len(gaps), snapshot_every):
                snapshots[s + j] = gaps[j].copy()

    repairs, worst = 0, 0.0

    def step(cells, nbrs, us):
        nonlocal repairs, worst
        gaps, r, inv = _coupled_step(low, upp, cells, nbrs, us, w, a, b, tol)
        repairs, worst = repairs + r, max(worst, inv)
        return gaps

    before = upp[:n] - low[:n]
    record(0, before[None])
    for j, gaps in _blocks(stream, n_sweeps * n, table.idx, step, before,
                           n * np.arange(1, n_sweeps + 1)):
        record(j + 1, gaps)
    return SandwichTrace(sup, mean, snapshots, low[:n].copy(), upp[:n].copy(),
                         repairs, float(worst / tol))


@dataclass(eq=False)
class RunTrace:
    """Field snapshots from a single equilibrated chain, one row per sweep."""

    fields: np.ndarray           # (n_sweeps, n_sites)
    table: NeighborTable
    interval: SpinInterval


def _run_chain(field: FieldConfiguration, stream: UpdateStream, n_updates: int,
               out: np.ndarray) -> None:
    """Apply ``n_updates`` stream updates to ``field`` in place through
    :func:`_blocks`, one :func:`_sample_many` call per level with the bits of
    the sequential scan, and fill the rows of ``out`` with the interior after
    each of the last ``len(out)`` sweeps of ``n_interior`` updates."""
    n = field.n_interior
    values = np.append(field.values, 0.0)        # with the write-off slot of _blocks
    w = field.table.weights
    a, b = _array_ends(field.interval)

    def step(cells, nbrs, us):      # the scan's means, bit for bit, then one quantile call
        values[cells] = new = _sample_many(_clip(np.vecdot(values.take(nbrs), w), a, b), a, b, us)
        return new

    ends = n_updates - n * np.arange(len(out) - 1, -1, -1)   # update count at each row
    for j, rows in _blocks(stream, n_updates, field.table.idx, step, field.interior, ends):
        out[j:j + len(rows)] = rows
    field.values[:] = values[:-1]


def stationary_run(geometry: LatticeGeometry, kernel, interval: SpinInterval,
                   seed: int, burn_in: int, n_sweeps: int,
                   start: str = "midpoint") -> RunTrace:
    """Burn in, then record the field after each of n_sweeps measurement sweeps
    of a chain on a torus; a box, whose shell would need values, raises NotTorus.

    ``start`` picks the initial state: "midpoint", "lower", or "upper";
    starting from "upper" with no burn-in gives the deliberately
    non-equilibrated chain used as a negative control.  The run is one
    stretch of ``(burn_in + n_sweeps)`` sweeps of the stream
    (:func:`_run_chain`); every recorded field is bit-identical to the
    sequential scan's.
    """
    if geometry.kind != "torus":
        raise NotTorus("the stationary chain runs on a torus and takes no boundary")
    table = wrapped_offsets(kernel, geometry)
    n = table.n_sites
    levels = {"midpoint": interval.midpoint, "lower": interval.a, "upper": interval.b}
    if start not in levels:
        raise ValueError(f"start must be one of {sorted(levels)}")
    _check_count("burn_in", burn_in)
    _check_count("n_sweeps", n_sweeps)
    chain = FieldConfiguration.constant(table, interval, levels[start])
    stream = UpdateStream(derive_key(seed, "stationary"), n)
    out = np.empty((n_sweeps, n))
    _run_chain(chain, stream, (burn_in + n_sweeps) * n, out)
    return RunTrace(out, table, interval)


# ---------------------------------------------------------------------------
# Coupling from the past
# ---------------------------------------------------------------------------

def _cftp_horizon(active, horizon, keys, lowest, highest, idx, w, a, b, tol, eps_coal):
    """Run the replicas ``active`` from time -horizon to time zero; returns
    which of them coalesced within ``eps_coal`` and their midpoints.

    Both chains of every replica start from the extremal fields ``lowest``
    and ``highest``, and each slot t (time -t) is one :func:`_coupled_step`
    over the replicas, row r of the flat fields being replica active[r].  An
    ``OrderViolation`` names the time, replica and site of the largest
    inversion of the first slot that has one (the lowest replica on a tie).
    """
    n = idx.shape[0]
    low, upp = np.tile(lowest, (active.size, 1)), np.tile(highest, (active.size, 1))
    base = np.arange(active.size) * low.shape[1]          # offset of each replica's row
    sk, uk = keys.site_key[active], keys.uniform_key[active]
    for t in range(horizon, 0, -1):
        sites, us = site_uniform_pairs(sk, uk, t, n)
        nbrs = idx.take(sites, axis=0)              # each replica's row, offset into the flat fields
        nbrs += base[:, None]
        try:
            _coupled_step(low.reshape(-1), upp.reshape(-1), base + sites, nbrs, us, w, a, b, tol)
        except OrderViolation as err:      # one update per replica row
            raise OrderViolation(
                f"coupled order broken inside coupling from the past at time -{t}, "
                f"replica {active[err.index]}, site index {sites[err.index]}: {err}") from None
    done = (upp[:, :n] - low[:, :n]).max(axis=1) <= eps_coal
    return done, 0.5 * (low[done, :n] + upp[done, :n])


def cftp_samples(geometry: LatticeGeometry, kernel, interval: SpinInterval,
                 boundary, n_samples: int, seed: int,
                 eps_coal: float = 1e-9, t_cap: int = 1 << 20) -> np.ndarray:
    """Exact samples from the finite-box conditional law, one row per replica.

    Monotone coupling from the past: both extremal chains are run from
    time -T with a fixed per-slot randomness assignment (re-derived from
    the counter-based stream, so deepening the past never stores history),
    and T, from max(2, n) on n sites, doubles until the chains agree at
    time zero within eps_coal in sup norm; ``t_cap`` bounds T and may not
    lie below its first value.  Replicas are independent: at each horizon
    the active ones advance together, vectorized (see :func:`_cftp_horizon`),
    and a replica's sample depends only on the seed and its index.  Every
    replica starts from the extremal :class:`FieldConfiguration` states, so
    the boundary passes the checks of every heat-bath run.

    Each row is the midpoint of the two chains at time zero, so it lies
    within eps_coal/2 in sup norm of the exact draw that the same
    randomness defines: the update is monotone, so that draw (the chain
    run from any state at time -T) stays between the two extremal chains
    and is sandwiched between them at time zero.
    """
    if geometry.kind != "box":
        raise GeometryMismatch("coupling from the past targets a box with frozen boundary")
    _check_count("n_samples", n_samples)
    if not eps_coal >= 0.0:       # NaN too: it never coalesces and runs to t_cap
        raise ValueError(f"eps_coal must be at least 0, got {eps_coal}")
    table = wrapped_offsets(kernel, geometry)
    n = table.n_sites
    horizon = max(2, n)
    # an integer (TypeError otherwise, a bool lies below the floor); below the
    # first horizon none would run, yet one would be reported
    if operator.index(t_cap) < horizon:
        raise ValueError(f"t_cap must be at least the first horizon {horizon}, got {t_cap}")
    lowest = FieldConfiguration.constant(table, interval, interval.a, boundary).values
    highest = FieldConfiguration.constant(table, interval, interval.b, boundary).values
    keys = UpdateStream(derive_key(seed, "cftp", np.arange(n_samples)), n)
    a, b = _array_ends(interval)
    tol = _order_tolerance(interval)

    out = np.empty((n_samples, n))
    active = np.arange(n_samples)
    while active.size:
        if horizon > t_cap:
            raise NoCoalescence(
                f"{active.size} replicas not coalesced at horizon {horizon // 2} "
                f"(cap {t_cap}, eps {eps_coal})")
        done, samples = _cftp_horizon(active, horizon, keys, lowest, highest,
                                      table.idx, table.weights, a, b, tol, eps_coal)
        out[active[done]] = samples
        active = active[~done]
        horizon *= 2
    return out
