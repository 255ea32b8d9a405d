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

Two updates commute when neither site lies in the other's closed
neighbourhood (the site plus its kernel neighbours): neither reads what
the other writes.  So the runs batch a stretch of the random scan by
dependency level, each update one level deeper than the deepest earlier
update of the stretch that writes into its closed neighbourhood (the
Cartier-Foata normal form of the update word).  The levels are peeled off
per-site queues of pending updates: a level is every site whose next
update comes before the next update of each of its neighbours, found by a
fixed run of numpy calls (:func:`_level_batches`).  Applying the levels in
increasing order, every update reads exactly the values the sequential
scan would, so the stream, the order of the updates at each site and
every bit of the result are those of the sequential scan.  The
single chain and the coupled sandwich share one schedule (:func:`_blocks`):
blocks of whole sweeps, each levelled as one stretch, so levels run on
across sweep boundaries, and the fields after each recorded sweep are
rebuilt from the block's log of update outputs.  A volume too small to
give each level many updates runs the same scan one update at a time
instead.  Distinct chains or replicas run fully in parallel with
independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundarySite,
    GeometryMismatch,
    MissingSite,
    NoCoalescence,
    OrderViolation,
    OutOfRange,
)
from .kernel import LatticeGeometry, NeighborTable, SpinInterval, wrapped_offsets
from .streams import UpdateStream, derive_key, site_uniform_pairs
from .truncnorm import _sample_many, _sample_one


def _order_tolerance(interval: SpinInterval) -> float:
    # Mathematically the shared-uniform update is monotone in the local mean,
    # but once two means agree to the last bit the two inverse-CDF evaluations
    # can round in opposite directions by an ulp.  Inversions up to this bound
    # are rounding noise and are repaired by swapping; anything larger is a
    # genuine coupling bug and raises OrderViolation.
    scale = max(1.0, abs(interval.a), abs(interval.b))
    return 16.0 * np.finfo(float).eps * scale


# The runs take the stream in blocks of whole sweeps of about this many
# updates and level each block as one stretch, so levels run on across sweep
# boundaries (about 16 updates per level on a 64-site ring, not 6 per sweep).
# A level costs a fixed run of numpy calls, so this pays from about 10 sites
# per closed neighbourhood (the site and its kernel neighbours), for one
# chain and the coupled pair alike: a 7 x 7 nn torus (9.8) runs levelled
# about as fast as scalar, a 40-site ring (13.3) in 0.63 of the scalar time
# and a 48-site ring (16) in 0.54.  Smaller volumes keep the scalar scan.
_BLOCK_UPDATES = 1 << 14
_LEVELED_MIN_SITES = 16


def _boundary_array(table: NeighborTable, boundary, interval: SpinInterval) -> np.ndarray:
    """Resolve a boundary request (scalar, mapping, or array) to shell order."""
    shell = table.shell
    if not shell:
        return np.empty(0)
    if boundary is None:
        raise MissingSite("box geometry requires boundary values")
    if np.isscalar(boundary):
        gamma = np.full(len(shell), float(boundary))
    elif isinstance(boundary, dict):
        try:
            gamma = np.array([float(boundary[s]) for s in shell])
        except KeyError as missing:
            raise MissingSite(f"boundary does not cover shell site {missing.args[0]}") from None
    else:
        gamma = np.asarray(boundary, dtype=float)
        if gamma.shape != (len(shell),):
            raise MissingSite(f"expected {len(shell)} boundary values, got shape {gamma.shape}")
    if not interval.contains(gamma):
        raise OutOfRange("boundary values must lie in the spin interval")
    return gamma


class FieldConfiguration:
    """A spin assignment on a finite geometry, one value in [a, b] per site.

    Interior values occupy the first ``n_interior`` slots of ``values``;
    for a box the frozen boundary values follow and are never mutated by
    the dynamics.
    """

    def __init__(self, table: NeighborTable, interval: SpinInterval,
                 values: np.ndarray, boundary=None):
        if abs(table.kernel.norm - 1.0) > 1e-12:
            raise ValueError("dynamics requires a normalized kernel (norm 1)")
        self.table = table
        self.interval = interval
        self.n_interior = table.n_sites
        gamma = _boundary_array(table, boundary, interval)
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_interior,):
            raise ValueError(f"expected {self.n_interior} interior values, got {values.shape}")
        if not interval.contains(values):
            raise ValueError("field values must lie in the spin interval")
        self.values = np.concatenate([values, gamma])

    @classmethod
    def constant(cls, table, interval, level: float, boundary=None):
        return cls(table, interval, np.full(table.n_sites, float(level)), boundary)

    @classmethod
    def all_lower(cls, table, interval, boundary=None):
        """The extremal all-a configuration."""
        return cls.constant(table, interval, interval.a, boundary)

    @classmethod
    def all_upper(cls, table, interval, boundary=None):
        """The extremal all-b configuration."""
        return cls.constant(table, interval, interval.b, boundary)

    @property
    def interior(self) -> np.ndarray:
        return self.values[:self.n_interior]

    def copy(self) -> "FieldConfiguration":
        clone = object.__new__(FieldConfiguration)
        clone.table = self.table
        clone.interval = self.interval
        clone.n_interior = self.n_interior
        clone.values = self.values.copy()
        return clone

    def _site_index(self, x) -> int:
        if isinstance(x, (int, np.integer)):
            i = int(x)
        else:
            i = self.table.index_of.get(tuple(x))
            if i is None:
                raise KeyError(f"site {x} not in geometry")
        if not 0 <= i < self.n_interior:
            raise BoundarySite(f"site {x} is a frozen boundary site")
        return i


def local_mean(field: FieldConfiguration, x) -> float:
    """The kernel-weighted mean of the neighbors of x; a convex combination,
    so it always lies inside the spin interval."""
    i = field._site_index(x)
    m = float(field.values[field.table.idx[i]] @ field.table.weights)
    iv = field.interval
    return min(max(m, iv.a), iv.b)


def site_update(field: FieldConfiguration, x, u: float) -> FieldConfiguration:
    """Heat-bath update of one site from a uniform in (0, 1), in place."""
    i = field._site_index(x)
    m = local_mean(field, i)
    field.values[i] = _sample_one(m, field.interval.a, field.interval.b, u)
    return field


def sweep(field: FieldConfiguration, stream: UpdateStream, n_updates: int) -> FieldConfiguration:
    """Apply n_updates consecutive stream-driven single-site updates, in place."""
    if stream.n_sites != field.n_interior:
        raise GeometryMismatch("stream volume does not match the field")
    if n_updates < 0:
        raise ValueError(f"n_updates must be at least 0, got {n_updates}")
    _run_chain(field, stream, n_updates, np.empty((0, field.n_interior)))
    return field


def _local_means(values: np.ndarray, nbrs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kernel-weighted means of the neighbour rows ``nbrs`` of a flat field,
    or of each field along the last axis of a stack of them.

    A C-contiguous stack of (1, K) @ (K, 1) products runs the same dot
    kernel row by row as the scalar ``values[row] @ w``, so each mean is
    bit-identical to it; ``take`` keeps the gather C-contiguous, where
    ``values[:, nbrs]`` on a stack is not.  ``(values[nbrs] * w).sum(axis=1)``
    and a 2-D ``@`` sum in other orders.
    """
    return np.matmul(values.take(nbrs, axis=-1)[..., None, :], w[:, None])[..., 0, 0]


def _chain_step(values: np.ndarray, cells: np.ndarray, nbrs: np.ndarray, us: np.ndarray,
                w: np.ndarray, a: float, b: float) -> np.ndarray:
    """Heat-bath update of ``cells`` in one flat field: the one-chain form of
    :func:`_coupled_step`, under the same condition on ``nbrs``.  Returns
    the new values."""
    new = _sample_many(_local_means(values, nbrs, w).clip(a, b), a, b, us)
    values[cells] = new
    return new


def _order_violation(k, cell, new_lo, new_up) -> OrderViolation:
    # the caller adds what the input position ``k`` and flat index ``cell`` name
    err = OrderViolation(f"{new_lo} > {new_up}")
    err.index, err.cell = int(k), int(cell)
    return err


def _coupled_step(low: np.ndarray, upp: np.ndarray, cells: np.ndarray, nbrs: np.ndarray,
                  us: np.ndarray, w: np.ndarray, a: float, b: float, tol: float):
    """Heat-bath update of ``cells`` in both flat fields from the shared uniforms.

    ``nbrs`` holds each cell's neighbour indices into the same arrays, and
    no cell may lie in another's row: the updates then commute and run as
    one.  Inversions up to ``tol`` are repaired by taking the min / max;
    a larger one raises OrderViolation, with the offending update's
    position in ``cells`` as its ``index`` and its flat index as its
    ``cell``.  Returns the new lower and upper values, the number of
    repairs and the largest repaired inversion.
    """
    m_lo = _local_means(low, nbrs, w).clip(a, b)
    m_up = _local_means(upp, nbrs, w).clip(a, b)
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
            raise _order_violation(k, cells[k], new_lo[k], new_up[k])
        repairs = int(np.count_nonzero(inversion > 0.0))   # sub-ulp rounding wobble
        new_lo, new_up = np.minimum(new_lo, new_up), np.maximum(new_lo, new_up)
    low[cells] = new_lo
    upp[cells] = new_up
    return new_lo, new_up, repairs, worst


def _coupled_scan(low: np.ndarray, upp: np.ndarray, sites: np.ndarray, us: np.ndarray,
                  idx: np.ndarray, w: np.ndarray, a: float, b: float, tol: float):
    """Scalar twin of :func:`_coupled_step`: the updates one at a time in
    stream order, with the same arithmetic, checks and return values."""
    log_lo, log_up = np.empty(sites.size), np.empty(sites.size)
    repairs, worst = 0, 0.0
    for k, (i, u) in enumerate(zip(sites.tolist(), us.tolist())):
        row = idx[i]
        m_lo = min(max(low[row] @ w, a), b)
        m_up = min(max(upp[row] @ w, a), b)
        new_lo = _sample_one(m_lo, a, b, u)
        new_up = new_lo if m_up == m_lo else _sample_one(m_up, a, b, u)
        if new_lo > new_up:
            if new_lo - new_up > tol:
                raise _order_violation(k, i, new_lo, new_up)
            repairs, worst = repairs + 1, max(worst, new_lo - new_up)
            new_lo, new_up = new_up, new_lo   # sub-ulp rounding wobble
        low[i] = log_lo[k] = new_lo
        upp[i] = log_up[k] = new_up
    return log_lo, log_up, repairs, worst


def _level_batches(sites: np.ndarray, us: np.ndarray, idx: np.ndarray, rows: np.ndarray,
                   n_values: int):
    """Yield the updates level by level, in increasing order, as (stream
    positions, cells, neighbour rows, uniforms).

    ``head[y]`` is the position of site y's next pending update; it is the
    block size once y's queue is empty, and always on the shell and in one
    extra slot at the end.  ``after[k]`` is the position of the next update
    at the site of update k.  A site is ready when its next update comes
    before the next update of every neighbour in ``rows``, the neighbour
    rows transposed to (K, n) with an entry that names the site itself
    pointed at the extra slot.  Each round yields the ready updates as one
    level, in site order: they are the minimal updates of the dependency
    order, so each update lands one level deeper than the deepest earlier
    update in its closed neighbourhood.
    """
    n, size = idx.shape[0], sites.size
    order = np.argsort(sites, kind="stable")
    ordered = sites[order]
    first = np.diff(ordered, prepend=-1) != 0            # the first update of each site
    head = np.full(n_values + 1, size)
    head[ordered[first]] = order[first]
    after = np.full(size, size)
    after[order[:-1]] = np.where(first[1:], size, order[1:])
    pending = head[:n]
    while (ready := (pending < head.take(rows).min(axis=0)).nonzero()[0]).size:
        pos = pending.take(ready)
        yield pos, ready, idx.take(ready, axis=0), us.take(pos)
        pending[ready] = after.take(pos)


def _blocks(stream: UpdateStream, n_updates: int, idx: np.ndarray, n_values: int):
    """The next ``n_updates`` updates of ``stream`` in blocks of whole sweeps,
    as (position of the block in the run, sites, uniforms, level batches):
    the block's :func:`_level_batches`, levelled as one stretch, on volumes
    of at least ``_LEVELED_MIN_SITES`` sites per closed neighbourhood, and
    None on smaller ones, which run the scalar scan."""
    n = idx.shape[0]
    rows = None
    if n >= _LEVELED_MIN_SITES * (1 + idx.shape[1]):
        rows = np.where(idx == np.arange(n)[:, None], n_values, idx).T.copy()
    block = max(1, _BLOCK_UPDATES // n) * n
    for start in range(0, n_updates, block):
        sites, us = stream.take(min(block, n_updates - start))
        batches = None if rows is None else _level_batches(sites, us, idx, rows, n_values)
        yield start, sites, us, batches


def _rows_at(before: np.ndarray, sites: np.ndarray, log: np.ndarray,
             ends: np.ndarray) -> np.ndarray:
    """The interior after the first ``ends[j]`` updates of a block, one row
    per (increasing) end, from the interior ``before`` the block and the
    block's sites and new values in stream order.  ``before`` and ``log``
    may stack several chains along a first axis; the rows then do too."""
    seg = np.searchsorted(ends, np.arange(sites.size), side="right")
    kept = np.flatnonzero(seg < ends.size)
    last = np.full((ends.size, before.shape[-1]), -1)
    np.maximum.at(last, (seg[kept], sites[kept]), kept)   # last update per row and site
    last = np.maximum.accumulate(last, axis=0)
    return np.where(last >= 0, log[..., last], before[..., None, :])


@dataclass(eq=False)
class SandwichTrace:
    """Per-sweep record of the gap between coupled extremal chains."""

    sup_gap: np.ndarray          # length n_sweeps + 1, entry 0 is the initial b - a
    mean_gap: np.ndarray
    snapshots: dict              # sweep index -> per-site gap array
    seed: int
    interval: SpinInterval
    final_lower: np.ndarray
    final_upper: np.ndarray
    order_repairs: int           # sub-ulp order inversions repaired
    max_inversion_frac: float    # largest repaired inversion / _order_tolerance

    @property
    def n_sweeps(self) -> int:
        return len(self.sup_gap) - 1


def run_sandwich(geometry: LatticeGeometry, kernel, interval: SpinInterval,
                 n_sweeps: int, seed: int, snapshot_every: int = 0,
                 boundary=None) -> SandwichTrace:
    """Coupled run from the all-a and all-b extremes through one shared stream.

    Order is asserted after every update; the per-sweep sup-gap decaying
    toward zero is the finite-volume face of uniqueness of the equilibrium
    state.  Both chains run on the single chain's schedule (see
    :func:`_blocks`): each block of whole sweeps goes level by level, one
    :func:`_coupled_step` per level, or through :func:`_coupled_scan` on
    small volumes, and the gaps after each sweep are rebuilt from the
    block's logs of both chains.  Every bit is the sequential scan's, and
    an ``OrderViolation`` names the sweep of the update that raised it.
    """
    if n_sweeps < 0:
        raise ValueError(f"n_sweeps must be at least 0, got {n_sweeps}")
    table = wrapped_offsets(kernel, geometry)
    n = table.n_sites
    low = FieldConfiguration.all_lower(table, interval, boundary).values
    upp = FieldConfiguration.all_upper(table, interval, boundary).values
    stream = UpdateStream(derive_key(seed, "sandwich"), n)
    idx, w = table.idx, table.weights
    a, b = interval.a, interval.b
    tol = _order_tolerance(interval)

    sup, mean, snapshots = np.empty(n_sweeps + 1), np.empty(n_sweeps + 1), {}

    def record(s, gap):
        sup[s] = float(gap.max())
        mean[s] = float(gap.mean())
        if snapshot_every and s % snapshot_every == 0:
            snapshots[s] = gap.copy()

    record(0, upp[:n] - low[:n])
    repairs, worst = 0, 0.0
    for start, sites, us, batches in _blocks(stream, n_sweeps * n, idx, low.size):
        before = np.stack([low[:n], upp[:n]])
        log = np.empty((2, sites.size))
        pos = None              # a step's error indexes its level, a scan's the block
        try:
            if batches is None:
                log[0], log[1], r, inv = _coupled_scan(low, upp, sites, us, idx, w, a, b, tol)
                repairs, worst = repairs + r, max(worst, inv)
            else:
                for pos, cells, nbrs, level_us in batches:
                    log[0, pos], log[1, pos], r, inv = _coupled_step(low, upp, cells, nbrs,
                                                                     level_us, w, a, b, tol)
                    repairs, worst = repairs + r, max(worst, inv)
        except OrderViolation as err:
            at = start + (err.index if pos is None else int(pos[err.index]))
            raise OrderViolation(f"coupled order broken at sweep {at // n + 1}, "
                                 f"site index {err.cell}: {err}") from None
        lower, upper = _rows_at(before, sites, log, n * np.arange(1, sites.size // n + 1))
        for s, gap in enumerate(upper - lower, start // n + 1):
            record(s, gap)
    return SandwichTrace(sup, mean, snapshots, seed, interval, low[:n].copy(), upp[:n].copy(),
                         repairs, float(worst / tol))


@dataclass(eq=False)
class RunTrace:
    """Field snapshots from a single equilibrated chain, one row per sweep."""

    fields: np.ndarray           # (n_sweeps, n_sites)
    table: NeighborTable
    interval: SpinInterval
    seed: int
    burn_in: int


def _chain_scan(values: np.ndarray, sites: np.ndarray, us: np.ndarray, idx: np.ndarray,
                w: np.ndarray, a: float, b: float) -> np.ndarray:
    """The updates of one chain one at a time in stream order, with the
    arithmetic of :func:`_chain_step`; returns the new values in stream order."""
    log = np.empty(sites.size)
    for k, (i, u) in enumerate(zip(sites.tolist(), us.tolist())):
        m = values[idx[i]] @ w
        values[i] = log[k] = _sample_one(min(max(m, a), b), a, b, u)
    return log


def _run_chain(field: FieldConfiguration, stream: UpdateStream, n_updates: int,
               out: np.ndarray) -> None:
    """Apply ``n_updates`` stream updates to ``field`` in place, and fill the
    rows of ``out`` with the interior after each of the last ``len(out)``
    sweeps of ``n_interior`` updates.

    The updates run on the schedule of :func:`_blocks`, one
    :func:`_chain_step` per level or :func:`_chain_scan` on small volumes;
    both give the bits of the sequential scan.
    """
    n = field.n_interior
    values, idx, w = field.values, field.table.idx, field.table.weights
    a, b = field.interval.a, field.interval.b
    ends = n_updates - n * np.arange(len(out) - 1, -1, -1)   # update count at each row
    for start, sites, us, batches in _blocks(stream, n_updates, idx, values.size):
        before = values[:n].copy()
        if batches is None:
            log = _chain_scan(values, sites, us, idx, w, a, b)
        else:
            log = np.empty(sites.size)
            for pos, cells, nbrs, level_us in batches:
                log[pos] = _chain_step(values, cells, nbrs, level_us, w, a, b)
        rows = np.flatnonzero((ends > start) & (ends <= start + sites.size))
        if rows.size:
            out[rows] = _rows_at(before, sites, log, ends[rows] - start)


def stationary_run(geometry: LatticeGeometry, kernel, interval: SpinInterval,
                   seed: int, burn_in: int, n_sweeps: int,
                   start: str = "midpoint", boundary=None) -> RunTrace:
    """Burn in, then record the field after each of n_sweeps measurement sweeps.

    ``start`` picks the initial state: "midpoint", "lower", or "upper";
    starting from "upper" with no burn-in gives the deliberately
    non-equilibrated chain used as a negative control.  The run is one
    stretch of ``(burn_in + n_sweeps)`` sweeps of the stream, applied in
    blocks of whole sweeps whose dependency levels cross sweep boundaries
    (see :func:`_run_chain`); every recorded field is bit-identical to the
    sequential scan's.
    """
    table = wrapped_offsets(kernel, geometry)
    n = table.n_sites
    levels = {"midpoint": interval.midpoint, "lower": interval.a, "upper": interval.b}
    if start not in levels:
        raise ValueError(f"start must be one of {sorted(levels)}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be at least 0, got {burn_in}")
    if n_sweeps < 0:
        raise ValueError(f"n_sweeps must be at least 0, got {n_sweeps}")
    chain = FieldConfiguration.constant(table, interval, levels[start], boundary)
    stream = UpdateStream(derive_key(seed, "stationary"), n)
    out = np.empty((n_sweeps, n))
    _run_chain(chain, stream, (burn_in + n_sweeps) * n, out)
    return RunTrace(out, table, interval, seed, burn_in)


# ---------------------------------------------------------------------------
# Coupling from the past
# ---------------------------------------------------------------------------

def cftp_samples(geometry: LatticeGeometry, kernel, interval: SpinInterval,
                 boundary, n_samples: int, seed: int,
                 eps_coal: float = 1e-9, t_cap: int = 1 << 20) -> np.ndarray:
    """Exact samples from the finite-box conditional law, one row per replica.

    Monotone coupling from the past: both extremal chains are run from
    time -T with a fixed per-slot randomness assignment (re-derived from
    the counter-based stream, so deepening the past never stores history),
    and T doubles until the chains agree at time zero within eps_coal in
    sup norm.  Replicas are independent and advance together, vectorized.
    """
    if geometry.kind != "box":
        raise GeometryMismatch("coupling from the past targets a box with frozen boundary")
    if n_samples < 0:
        raise ValueError(f"n_samples must be at least 0, got {n_samples}")
    if not eps_coal >= 0.0:       # NaN too: it never coalesces and runs to t_cap
        raise ValueError(f"eps_coal must be at least 0, got {eps_coal}")
    table = wrapped_offsets(kernel, geometry)
    n = table.n_sites
    gamma = _boundary_array(table, boundary, interval)
    a, b = interval.a, interval.b
    w = table.weights
    tol = _order_tolerance(interval)

    replicas = UpdateStream(derive_key(seed, "cftp", np.arange(n_samples)), n)

    out = np.empty((n_samples, n))
    active = np.arange(n_samples)
    horizon = max(2, n)
    while active.size:
        if horizon > t_cap:
            raise NoCoalescence(
                f"{active.size} replicas not coalesced at horizon {horizon // 2} "
                f"(cap {t_cap}, eps {eps_coal})")
        ra = active.size
        low = np.concatenate([np.full((ra, n), a), np.tile(gamma, (ra, 1))], axis=1)
        upp = np.concatenate([np.full((ra, n), b), np.tile(gamma, (ra, 1))], axis=1)
        base = np.arange(ra) * low.shape[1]       # offset of each replica's row
        sk, uk = replicas.site_key[active], replicas.uniform_key[active]
        for t in range(horizon, 0, -1):           # slot t is time -t
            sites, us = site_uniform_pairs(sk, uk, t, n)
            try:
                _coupled_step(low.reshape(-1), upp.reshape(-1), base + sites,
                              base[:, None] + table.idx[sites], us, w, a, b, tol)
            except OrderViolation as err:
                row, site = divmod(err.cell, low.shape[1])
                raise OrderViolation(
                    f"coupled order broken inside coupling from the past at time -{t}, "
                    f"replica {active[row]}, site index {site}: {err}") from None
        gap = (upp[:, :n] - low[:, :n]).max(axis=1)
        done = gap <= eps_coal
        if np.any(done):
            out[active[done]] = 0.5 * (low[done, :n] + upp[done, :n])
            active = active[~done]
        horizon *= 2
    return out


def cftp(geometry: LatticeGeometry, kernel, interval: SpinInterval,
         boundary, seed: int, eps_coal: float = 1e-9, t_cap: int = 1 << 20) -> np.ndarray:
    """One exact sample from the finite-box conditional law (see cftp_samples)."""
    return cftp_samples(geometry, kernel, interval, boundary, 1, seed,
                        eps_coal=eps_coal, t_cap=t_cap)[0]
