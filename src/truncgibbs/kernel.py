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
and safe to share across concurrent readers.
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
from .streams import _check_count


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
    is no shell site raises GeometryMismatch."""
    if not shell:
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


@dataclass(frozen=True, eq=False)
class InteractionKernel:
    """Symmetric non-negative coupling weights on nonzero integer offsets;
    ``norm``, their exact fsum, lies within 1e-12 of 1, or ValueError."""

    dimension: int
    offsets: tuple          # lexicographically sorted nonzero offset vectors
    weights: np.ndarray     # positive, aligned with offsets
    norm: float             # exact fsum of the stored weights

    def __post_init__(self):
        try:
            total = math.fsum(self.weights)
        except OverflowError:           # finite weights whose sum leaves the float range
            total = math.inf
        if not (self.norm == total and abs(total - 1.0) <= 1e-12):     # NaN fails both
            raise ValueError(f"kernel weights must sum to norm 1: fsum {total!r}, "
                             f"norm {self.norm!r}")

    @property
    def range_per_axis(self) -> tuple:
        return tuple(max(abs(z[k]) for z in self.offsets) for k in range(self.dimension))


def build_kernel(dimension: int, raw: dict) -> InteractionKernel:
    """Validate, symmetrize and normalize a map from offset tuples to weights.

    Zero-weight entries are dropped.  A missing mirror offset is filled in;
    if both J(z) and J(-z) are given they must agree exactly.  Every weight
    is then divided by the total, so the norm is one up to rounding.
    ``dimension`` is an integer >= 1, or raises ValueError.
    """
    _check_count("dimension", dimension, least=1)
    zero = (0,) * dimension
    table = {}
    for z, w in raw.items():
        z = tuple(map(operator.index, z))
        if len(z) != dimension:
            raise ValueError(f"offset {z} does not have dimension {dimension}")
        w = float(w)
        if z == zero:
            raise ZeroOffsetPresent("the zero offset may not carry weight (J(0) = 0)")
        if not math.isfinite(w):
            raise NonFiniteWeight(f"J{z} = {w} is not finite")
        if w < 0.0:
            raise NegativeWeight(f"J{z} = {w} < 0")
        if w == 0.0:
            continue
        table[z] = w

    for z in list(table):
        mz = tuple(-c for c in z)
        if mz in table:
            if table[mz] != table[z]:
                raise AsymmetricKernel(f"J{z} = {table[z]} but J{mz} = {table[mz]}")
        else:
            table[mz] = table[z]

    if not table:
        raise EmptyKernel("all weights vanish; need 0 < sum J")

    offsets = tuple(sorted(table))
    weights = np.array([table[z] for z in offsets], dtype=float)
    try:
        total = math.fsum(weights)
    except OverflowError:
        raise NonFiniteWeight("the weights sum beyond the float range") from None
    weights = weights / total
    return InteractionKernel(dimension, offsets, weights, math.fsum(weights))


def nearest_neighbor(dimension: int) -> InteractionKernel:
    """The `nn` preset: equal weight on the 2d unit offsets, normalized."""
    raw = {}
    for axis in range(dimension):
        for sign in (1, -1):
            z = [0] * dimension
            z[axis] = sign
            raw[tuple(z)] = 1.0
    return build_kernel(dimension, raw)


def exp_decay(rate: float, reach: int, dimension: int = 1) -> InteractionKernel:
    """The `exp-decay(r, range)` preset: J(z) proportional to r^|z|_1, truncated."""
    if not (rate > 0.0):
        raise ValueError("rate must be positive")
    _check_count("reach", reach, least=1)
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
    dimension: int
    extents: tuple          # torus period per axis; bounding extents for a box
    sites: tuple            # lexicographically ordered interior sites
    shell: tuple = ()       # box only: exterior sites within kernel range

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @classmethod
    def torus(cls, extents) -> "LatticeGeometry":
        extents = tuple(map(operator.index, extents))
        if any(e < 1 for e in extents):
            raise ValueError("torus extents must be positive")
        sites = tuple(itertools.product(*(range(e) for e in extents)))
        return cls("torus", len(extents), extents, sites)

    @classmethod
    def box(cls, sites, kernel: InteractionKernel) -> "LatticeGeometry":
        """A finite set of sites, checked by :func:`_sorted_sites`, plus every exterior
        site the kernel reaches, for that kernel's neighbor table (:func:`wrapped_offsets`) only."""
        sites = _sorted_sites(sites, kernel.dimension)
        extents = tuple(max(c) - min(c) + 1 for c in zip(*sites))
        return cls("box", kernel.dimension, extents, sites,
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
        its own site, which the level schedule of the runs assumes."""
        idx, n = self.idx, self.geometry.n_sites
        shape, slots = (n, len(self.kernel.offsets)), n + len(self.geometry.shell)
        if not (isinstance(idx, np.ndarray) and idx.dtype.kind in "iu" and idx.shape == shape):
            raise GeometryMismatch(f"neighbour index must be an integer array of shape {shape}")
        if not (0 <= idx.min() and idx.max() < slots):
            raise GeometryMismatch(f"neighbour index entries must lie in [0, {slots})")
        if (idx == np.arange(n)[:, None]).any():
            raise GeometryMismatch("a neighbour row names its own site")

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
    """Raise GeometryTooSmall unless every torus extent exceeds twice the
    kernel range on its axis, so that wrapped offsets stay distinct."""
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
    for another kernel has another shell and raises GeometryMismatch.
    """
    if kernel.dimension != geometry.dimension:
        raise GeometryMismatch(
            f"kernel dimension {kernel.dimension} != geometry dimension {geometry.dimension}")

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
    the shell is a set difference and the index a sorted search.
    """
    points = np.array(list(zip(*sites, strict=True)), dtype=np.int64)     # (d, n)
    steps = np.array(list(zip(*offsets, strict=True)), dtype=np.int64)    # (d, k)
    if len(steps) != len(points):
        raise GeometryMismatch(f"offsets of dimension {len(steps)} for sites of {len(points)}")
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
