"""Interaction kernels and finite lattice geometries.

A kernel is a finitely supported, symmetric, non-negative weight function
on integer offsets with the zero offset excluded, whose weights sum to one,
so a site's local mean is a convex combination of its neighbors.  Weights
of sum c would give the law of the weights over c on [sqrt(c) a, sqrt(c) b]
scaled back by 1/sqrt(c) (the beta rescaling ``transforms`` checks), so no
other norm is built.  Geometries are the two finite stand-ins for the
infinite lattice: a periodic torus and a finite box of sites wrapped in the
exterior shell the kernel can reach.  One neighbour index gives the box
shells, the neighbour tables and ``finite_spec``'s matrices, and one reader
puts boundary values in shell order for all of them.

Kernels, geometries and neighbor tables are immutable after construction
(their arrays are read-only copies of what they were given) and safe to
share across concurrent readers.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricKernel,
    DuplicateSite,
    EmptyKernel,
    EmptyVolume,
    GeometryMismatch,
    GeometryTooSmall,
    MissingSite,
    NegativeWeight,
    NonFiniteWeight,
    OutOfRange,
    ZeroOffsetPresent,
)
from .streams import MAX_COUNT, _check_count


@dataclass(frozen=True)
class SpinInterval:
    """The closed spin interval [a, b] with a < b, both finite (bounded spins)."""

    a: float
    b: float

    def __post_init__(self):
        # b - a is finite only when a and b are, and its width fits a float
        if not (self.a < self.b and math.isfinite(self.b - self.a)):
            raise ValueError(f"interval requires finite a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def contains(self, values) -> bool:
        values = np.asarray(values)
        return bool(np.all(values >= self.a) and np.all(values <= self.b))


def _boundary_array(shell, boundary, interval: SpinInterval | None) -> np.ndarray:
    """Resolve a boundary request (scalar, mapping, or array) to shell order;
    with no ``interval`` the values are not range-checked.  A mapping key that
    is no shell site raises GeometryMismatch, and so does any boundary but
    None for an empty shell (a torus)."""
    if not shell:
        if boundary is not None:
            raise GeometryMismatch("a torus has no shell and takes no boundary")
        return np.empty(0)
    if boundary is None:
        raise MissingSite("box geometry requires boundary values")
    if isinstance(boundary, dict):      # before the 0-d test: np.ndim({}) is 0 too
        slots = set(shell)
        if stray := [s for s in boundary if s not in slots]:
            raise GeometryMismatch(f"boundary key {stray[0]} is not a shell site")
        try:
            gamma = np.array([float(boundary[s]) for s in shell])
        except KeyError as missing:
            raise MissingSite(f"boundary does not cover shell site {missing.args[0]}") from None
    elif np.ndim(boundary) == 0:        # a number, a numpy scalar or a 0-d array
        gamma = np.full(len(shell), float(boundary))
    else:
        gamma = np.asarray(boundary, dtype=float)
        if gamma.shape != (len(shell),):
            raise MissingSite(f"expected {len(shell)} boundary values, got shape {gamma.shape}")
    if interval is not None and not interval.contains(gamma):
        raise OutOfRange("boundary values must lie in the spin interval")
    return gamma


def _read_only(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` that raises ValueError on a write."""
    array = array.copy()
    array.flags.writeable = False
    return array


def _check_kernel(offsets, weights) -> None:
    """The one check of the kernel class, for every kernel built.

    ``offsets`` is a non-empty, strictly increasing tuple of nonzero int
    tuples of one dimension, closed under negation, and ``weights`` a float64
    array aligned with it, finite, positive and equal on z and -z.  A broken
    rule raises EmptyKernel, TypeError (a coordinate that is no int),
    ValueError (mixed dimensions, unsorted or repeated offsets, misaligned
    weights), ZeroOffsetPresent, NonFiniteWeight, NegativeWeight or
    AsymmetricKernel, in that order; a message names the largest offset that
    breaks the rule.
    """
    if not offsets:
        raise EmptyKernel("all weights vanish; need 0 < sum J")
    if not all(isinstance(z, tuple) and all(type(c) is int for c in z) for z in offsets):
        raise TypeError("kernel offsets must be tuples of ints")
    dimension = len(offsets[0])
    if other := [z for z in offsets if len(z) != dimension]:
        raise ValueError(f"offset {max(other)} does not have dimension {dimension}")
    if any(x >= y for x, y in zip(offsets, offsets[1:])):
        raise ValueError("kernel offsets must be sorted and distinct")
    if not (isinstance(weights, np.ndarray) and weights.dtype == np.float64
            and weights.shape == (len(offsets),)):
        raise ValueError(f"kernel weights must be a float64 array of shape ({len(offsets)},)")
    weight = dict(zip(offsets, weights.tolist()))
    largest_first = list(weight.items())[::-1]
    if (0,) * dimension in weight:
        raise ZeroOffsetPresent("the zero offset may not carry weight (J(0) = 0)")
    for z, w in largest_first:
        if not math.isfinite(w):
            raise NonFiniteWeight(f"J{z} = {w} is not finite")
    for z, w in largest_first:
        if not w > 0.0:
            raise NegativeWeight(f"J{z} = {w} < 0" if w < 0.0 else f"J{z} = {w} is not positive")
    for z, w in largest_first:
        mz = tuple(-c for c in z)
        if mz not in weight:
            raise AsymmetricKernel(f"J{z} = {w} but {mz} is no offset")
        if weight[mz] != w:
            raise AsymmetricKernel(f"J{z} = {w} but J{mz} = {weight[mz]}")


@dataclass(frozen=True, eq=False)
class InteractionKernel:
    """Coupling weights on integer offsets, in the class :func:`_check_kernel`
    checks, whose ``norm`` lies within 1e-12 of 1, or ValueError; ``weights``
    is then stored as a read-only copy."""

    offsets: tuple          # lexicographically sorted nonzero offset vectors
    weights: np.ndarray     # positive, aligned with offsets

    def __post_init__(self):
        _check_kernel(self.offsets, self.weights)
        if not abs(self.norm - 1.0) <= 1e-12:
            raise ValueError(f"kernel weights must sum to 1, got fsum {self.norm!r}")
        object.__setattr__(self, "weights", _read_only(self.weights))

    @property
    def dimension(self) -> int:
        return len(self.offsets[0])

    @property
    def norm(self) -> float:
        """The exact fsum of the weights; inf for finite weights whose sum
        leaves the float range."""
        try:
            return math.fsum(self.weights)
        except OverflowError:
            return math.inf

    @property
    def range_per_axis(self) -> tuple:
        return tuple(max(abs(z[k]) for z in self.offsets) for k in range(self.dimension))


def build_kernel(dimension: int, raw: dict) -> InteractionKernel:
    """Symmetrize and normalize a map from offset tuples to weights.

    Zero-weight entries are dropped and a missing mirror offset is filled
    in; the table then passes :func:`_check_kernel` (so J(z) and J(-z), if
    both given, must agree exactly) and every weight is divided by the
    total, so the norm is one up to rounding.  A weight that the division
    takes to 0 drops out too.  ``dimension`` is an integer >= 1, or raises
    ValueError, and so does an offset of another dimension.
    """
    _check_count("dimension", dimension, least=1)
    table = {}
    for z, w in raw.items():
        z = tuple(map(operator.index, z))
        if len(z) != dimension:
            raise ValueError(f"offset {z} does not have dimension {dimension}")
        w = float(w)
        if w != 0.0 or not any(z):          # the zero offset stays, to be refused
            table[z] = w
    for z, w in list(table.items()):
        table.setdefault(tuple(-c for c in z), w)
    offsets = tuple(sorted(table))
    weights = np.array([table[z] for z in offsets], dtype=float)
    _check_kernel(offsets, weights)
    try:
        total = math.fsum(weights)
    except OverflowError:
        raise NonFiniteWeight("the weights sum beyond the float range") from None
    weights = weights / total
    keep = weights > 0.0
    return InteractionKernel(tuple(itertools.compress(offsets, keep)), weights[keep])


def nearest_neighbor(dimension: int) -> InteractionKernel:
    """The `nn` preset: equal weight on the 2d unit offsets, normalized."""
    return exp_decay(1.0, 1, dimension)


def exp_decay(rate: float, reach: int, dimension: int = 1) -> InteractionKernel:
    """The `exp-decay(r, range)` preset: J(z) proportional to r^|z|_1, truncated."""
    if not (rate > 0.0):
        raise ValueError("rate must be positive")
    _check_count("reach", reach, least=1)
    _check_count("dimension", dimension, least=1)
    raw = {}
    for z in itertools.product(range(-reach, reach + 1), repeat=dimension):
        l1 = sum(abs(c) for c in z)
        if 0 < l1 <= reach:
            try:
                raw[z] = rate ** l1
            except OverflowError:
                raise NonFiniteWeight(f"{rate} ** {l1} overflows a float") from None
    return build_kernel(dimension, raw)


def _sorted_sites(sites, dimension: int) -> tuple:
    """``sites`` as sorted integer tuples, the one site-list check: a coordinate that is
    not an integer raises TypeError (:func:`operator.index`, as for offsets and extents),
    no site EmptyVolume, one not of ``dimension`` GeometryMismatch, one listed twice
    DuplicateSite."""
    ordered = tuple(sorted(tuple(map(operator.index, s)) for s in sites))
    if not ordered:
        raise EmptyVolume("volume contains no sites")
    if other := {len(x) for x in ordered} - {dimension}:
        raise GeometryMismatch(f"kernel dimension {dimension} != site dimension {min(other)}")
    for x, y in zip(ordered, ordered[1:]):
        if x == y:
            raise DuplicateSite(f"site {x} is listed twice")
    return ordered


@dataclass(frozen=True, eq=False)
class LatticeGeometry:
    """A periodic torus or a finite box with its exterior shell."""

    kind: str               # "torus" or "box"
    extents: tuple          # torus period per axis; bounding extents for a box
    sites: tuple            # lexicographically ordered interior sites
    shell: tuple = ()       # box only: exterior sites within kernel range

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def dimension(self) -> int:
        return len(self.sites[0])

    @classmethod
    def torus(cls, extents) -> "LatticeGeometry":
        extents = tuple(map(operator.index, extents))
        if not extents:
            raise ValueError("a torus needs at least one extent")
        for e in extents:
            _check_count("torus extent", e, least=1)
        sites = tuple(itertools.product(*(range(e) for e in extents)))
        return cls("torus", extents, sites)

    @classmethod
    def box(cls, sites, kernel: InteractionKernel) -> "LatticeGeometry":
        """A finite set of sites, checked by :func:`_sorted_sites`, plus every exterior
        site the kernel reaches, for that kernel's neighbor table (:func:`wrapped_offsets`) only."""
        sites = _sorted_sites(sites, kernel.dimension)
        extents = tuple(max(c) - min(c) + 1 for c in zip(*sites))
        return cls("box", extents, sites,
                   _neighbour_index(sites, kernel.offsets)[1])


@dataclass(frozen=True, eq=False)
class NeighborTable:
    """Per-site neighbor indices and weights for one (kernel, geometry) pair.

    Interior sites occupy indices 0..n-1 in the order of
    ``geometry.sites``, shell sites (box only) follow in the order of
    ``geometry.shell``; ``idx[i, k]`` is the combined index of site i's
    neighbor at offset k, so a field stored as one flat array supports local
    means by a gather plus a dot with ``weights``.
    """

    kernel: InteractionKernel
    geometry: LatticeGeometry
    idx: np.ndarray             # (n_sites, n_offsets) combined indices

    def __post_init__(self):
        """Raise GeometryMismatch unless ``idx`` is an integer array with a row
        per site and a column per offset, each entry a site or shell index (a
        negative one would read the runs' write-off slot) and no row naming
        its own site, which the level schedule of the runs assumes; then
        store ``idx`` as a read-only copy."""
        idx, n = self.idx, self.geometry.n_sites
        shape, slots = (n, len(self.kernel.offsets)), n + len(self.geometry.shell)
        if not (isinstance(idx, np.ndarray) and idx.dtype.kind in "iu" and idx.shape == shape):
            raise GeometryMismatch(f"neighbour index must be an integer array of shape {shape}")
        if not (0 <= idx.min() and idx.max() < slots):
            raise GeometryMismatch(f"neighbour index entries must lie in [0, {slots})")
        if (idx == np.arange(n)[:, None]).any():
            raise GeometryMismatch("a neighbour row names its own site")
        object.__setattr__(self, "idx", _read_only(idx))

    @property
    def shell(self):
        return self.geometry.shell

    @property
    def weights(self) -> np.ndarray:
        return self.kernel.weights

    @property
    def n_sites(self) -> int:
        return self.geometry.n_sites


def check_torus_extents(kernel: InteractionKernel, geometry: LatticeGeometry) -> None:
    """Raise GeometryMismatch unless the torus has the kernel's dimension, and
    GeometryTooSmall unless every torus extent exceeds twice the kernel range
    on its axis, so that wrapped offsets stay distinct."""
    if geometry.dimension != kernel.dimension:
        raise GeometryMismatch(
            f"kernel dimension {kernel.dimension} != torus dimension {geometry.dimension}")
    for k, (extent, reach) in enumerate(zip(geometry.extents, kernel.range_per_axis)):
        if extent <= 2 * reach:
            raise GeometryTooSmall(
                f"torus extent {extent} on axis {k} must exceed twice the kernel range {reach}")


def wrapped_offsets(kernel: InteractionKernel, geometry: LatticeGeometry) -> NeighborTable:
    """Build the per-site neighbor table.

    On the torus the neighbor at offset z is (x + z) mod extents (see
    :func:`check_torus_extents`).  On a box, neighbors fall either in
    the interior or in the exterior shell; weights are carried unchanged,
    so each site's weights sum to the kernel norm exactly.  A box built
    for another kernel, of its dimension or not, raises GeometryMismatch.
    """
    sites, periods = geometry.sites, None
    if geometry.kind == "torus":
        check_torus_extents(kernel, geometry)
        periods = geometry.extents
    idx, reached = _neighbour_index(sites, kernel.offsets, periods)
    if reached != geometry.shell:
        raise GeometryMismatch("box shell is not the shell this kernel reaches; "
                               "build the box with the kernel it runs")
    return NeighborTable(kernel, geometry, idx)


def _neighbour_index(sites, offsets, periods=None):
    """Which site or shell site each site sees at each offset.

    ``sites`` are sorted coordinate tuples.  Returns ``(idx, shell)``: the
    shell holds, sorted, the sites outside ``sites`` that the offsets
    reach, and ``idx[i, k]`` is the index of ``sites[i] + offsets[k]``
    (modulo ``periods`` when given) in ``sites + shell``.  Points are coded
    row-major over their bounding box, which keeps lexicographic order, so
    the shell is a set difference and the index a sorted search.  A box
    (before the modulo) whose corners or code count leave int64 raises
    OutOfRange.
    """
    axes, moves = list(zip(*sites, strict=True)), list(zip(*offsets, strict=True))
    if len(moves) != len(axes):
        raise GeometryMismatch(f"offsets of dimension {len(moves)} for sites of {len(axes)}")
    lo = [min(c) + min(0, *s) for c, s in zip(axes, moves)]
    hi = [max(c) + max(0, *s) for c, s in zip(axes, moves)]
    if not (-MAX_COUNT - 1 <= min(lo) and max(hi) <= MAX_COUNT      # int64's range
            and math.prod(h - l + 1 for l, h in zip(lo, hi)) <= MAX_COUNT):
        raise OutOfRange(f"the bounding box {tuple(lo)} to {tuple(hi)} of the sites and their "
                         f"neighbours leaves the int64 codes of the neighbour index")
    points = np.array(axes, dtype=np.int64)                                 # (d, n)
    steps = np.array(moves, dtype=np.int64)                                 # (d, k)
    reach = points[:, :, None] + steps[:, None, :]                          # (d, n, k)
    if periods is not None:
        reach %= np.array(periods, dtype=np.int64)[:, None, None]
    lo = np.minimum(points.min(axis=1), reach.min(axis=(1, 2)))
    hi = np.maximum(points.max(axis=1), reach.max(axis=(1, 2)))
    dims = tuple((hi - lo + 1).tolist())
    site_codes = np.ravel_multi_index(tuple(points - lo[:, None]), dims)
    codes = np.ravel_multi_index(tuple(reach - lo[:, None, None]), dims)
    # the last of equal sites, as a site -> index dict would keep it
    pos = np.searchsorted(site_codes, codes, side="right") - 1
    inside = (pos >= 0) & (site_codes[pos] == codes)
    shell_codes = np.unique(codes[~inside])
    shell = np.stack(np.unravel_index(shell_codes, dims), axis=-1) + lo
    idx = np.where(inside, pos, len(sites) + np.searchsorted(shell_codes, codes))
    return idx, tuple(map(tuple, shell.tolist()))
