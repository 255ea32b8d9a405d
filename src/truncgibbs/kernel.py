"""Interaction kernels and finite lattice geometries.

A kernel is a finitely supported, symmetric, non-negative weight function
on integer offsets with the zero offset excluded; construction normalizes
the total weight to one by default, so a site's local mean is always a
convex combination of its neighbors.  Geometries are the two finite
stand-ins for the infinite lattice: a periodic torus and a finite box of
sites wrapped in the exterior shell the kernel can reach.  One neighbour
index gives the box shells, the neighbour tables and ``finite_spec``'s matrices.

Kernels, geometries and neighbor tables are immutable after construction
and safe to share across concurrent readers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricKernel,
    DuplicateSite,
    EmptyKernel,
    EmptyVolume,
    GeometryMismatch,
    GeometryTooSmall,
    NegativeWeight,
    ZeroOffsetPresent,
)

Offset = tuple
Site = tuple


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


@dataclass(frozen=True, eq=False)
class InteractionKernel:
    """Symmetric non-negative coupling weights on nonzero integer offsets."""

    dimension: int
    offsets: tuple          # lexicographically sorted nonzero offset vectors
    weights: np.ndarray     # positive, aligned with offsets
    norm: float             # exact fsum of the stored weights
    _index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_index", {z: i for i, z in enumerate(self.offsets)})

    def weight(self, z) -> float:
        """J(z); zero for offsets outside the support."""
        i = self._index.get(tuple(z))
        return float(self.weights[i]) if i is not None else 0.0

    @property
    def range_per_axis(self) -> tuple:
        return tuple(max(abs(z[k]) for z in self.offsets) for k in range(self.dimension))


def build_kernel(dimension: int, raw: dict, normalize: bool = True) -> InteractionKernel:
    """Validate, symmetrize and (optionally) normalize an offset->weight map.

    Zero-weight entries are dropped.  A missing mirror offset is filled in;
    if both J(z) and J(-z) are given they must agree exactly.  With
    ``normalize`` every weight is divided by the total so the norm is one.
    """
    zero = (0,) * dimension
    table = {}
    for z, w in raw.items():
        z = tuple(int(c) for c in z) if isinstance(z, (tuple, list)) else (int(z),)
        if len(z) != dimension:
            raise ValueError(f"offset {z} does not have dimension {dimension}")
        w = float(w)
        if z == zero:
            raise ZeroOffsetPresent("the zero offset may not carry weight (J(0) = 0)")
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
    if normalize:
        weights = weights / math.fsum(weights)
    norm = math.fsum(weights)
    return InteractionKernel(dimension, offsets, weights, norm)


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
    if reach < 1:
        raise ValueError("range must be at least 1")
    raw = {}
    for z in itertools.product(range(-reach, reach + 1), repeat=dimension):
        l1 = sum(abs(c) for c in z)
        if 0 < l1 <= reach:
            raw[z] = rate ** l1
    return build_kernel(dimension, raw)


def _sorted_sites(sites) -> tuple:
    """``sites`` as sorted integer tuples; a site listed twice raises DuplicateSite."""
    ordered = tuple(sorted(tuple(int(c) for c in s) for s in sites))
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
        extents = tuple(int(e) for e in extents)
        if any(e < 1 for e in extents):
            raise ValueError("torus extents must be positive")
        sites = tuple(itertools.product(*(range(e) for e in extents)))
        return cls("torus", len(extents), extents, sites)

    @classmethod
    def box(cls, sites, kernel: InteractionKernel) -> "LatticeGeometry":
        """A finite set of sites plus every exterior site the kernel reaches."""
        sites = _sorted_sites(sites)
        if not sites:
            raise EmptyVolume("box needs at least one site")
        d = len(sites[0])
        if kernel.dimension != d:
            raise GeometryMismatch(f"kernel dimension {kernel.dimension} != site dimension {d}")
        extents = tuple(max(c) - min(c) + 1 for c in zip(*sites))
        return cls("box", d, extents, sites, _neighbour_index(sites, kernel.offsets)[1])


@dataclass(frozen=True, eq=False)
class NeighborTable:
    """Per-site neighbor indices and weights for one (kernel, geometry) pair.

    Interior sites occupy indices 0..n-1, shell sites (box only) follow;
    ``idx[i, k]`` is the combined index of site i's neighbor at offset k,
    so a field stored as one flat array supports local means by a gather
    plus a dot with ``weights``.
    """

    kernel: InteractionKernel
    geometry: LatticeGeometry
    idx: np.ndarray             # (n_sites, n_offsets) combined indices
    index_of: dict              # site tuple -> combined index

    @property
    def sites(self):
        return self.geometry.sites

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
    so each site's weights sum to the kernel norm exactly.
    """
    if kernel.dimension != geometry.dimension:
        raise GeometryMismatch(
            f"kernel dimension {kernel.dimension} != geometry dimension {geometry.dimension}")

    sites, periods = geometry.sites, None
    if geometry.kind == "torus":
        check_torus_extents(kernel, geometry)
        periods = geometry.extents
    idx, reached = _neighbour_index(sites, kernel.offsets, periods)
    index_of = {s: i for i, s in enumerate(sites + geometry.shell)}
    if reached != geometry.shell:       # a box whose shell is not this kernel's
        # reached shell slot -> slot in the geometry's own shell (-1: not there)
        slots = np.array([*range(len(sites)), *(index_of.get(y, -1) for y in reached)])
        idx = slots[idx]
        if (idx < 0).any():
            i, k = np.argwhere(idx < 0)[0]
            y = tuple(c + dz for c, dz in zip(sites[i], kernel.offsets[k]))
            raise GeometryMismatch(f"shell does not cover site {y} needed by {sites[i]}")
    return NeighborTable(kernel, geometry, idx, index_of)


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
    n = len(sites)
    if math.prod(dims) == n and np.array_equal(site_codes, np.arange(n)):
        return codes, ()            # the sites fill their box: codes are indices
    # the last of equal sites, as a site -> index dict would keep it
    pos = np.searchsorted(site_codes, codes, side="right") - 1
    inside = (pos >= 0) & (site_codes[pos] == codes)
    shell_codes = np.unique(codes[~inside])
    shell = np.stack(np.unravel_index(shell_codes, dims), axis=-1) + lo
    idx = np.where(inside, pos, n + np.searchsorted(shell_codes, codes))
    return idx, tuple(map(tuple, shell.tolist()))
