"""The vectorised neighbour index against the per-site loops it replaced.

Box shells, neighbour tables, A, B, the pair arrays, the Toeplitz blocks,
the certificate's realized offsets and the partition check all read one
index (``kernel._neighbour_index``).  The reference functions below are
the ``x + z`` loops each of them ran before; every comparison is bit for
bit, dtypes and orders included.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncgibbs.errors import GeometryMismatch, IncompatiblePartition
from truncgibbs.finite_spec import (
    _lex_positive,
    build_matrices,
    pd_certificate,
    toeplitz_matrix,
    z_connected_classes,
)
from truncgibbs.kernel import (
    LatticeGeometry,
    build_kernel,
    exp_decay,
    nearest_neighbor,
    wrapped_offsets,
)
from truncgibbs.transforms import BipartitePartition, _check_partition

# ---------------------------------------------------------------------------
# Reference loops
# ---------------------------------------------------------------------------


def _shift(x, z):
    return tuple(x[k] + z[k] for k in range(len(z)))


def reference_box_shell(sites, kernel):
    sites = sorted(sites)
    interior = set(sites)
    shell = set()
    for x in sites:
        for z in kernel.offsets:
            y = _shift(x, z)
            if y not in interior:
                shell.add(y)
    return tuple(sorted(shell))


def reference_table(kernel, geometry):
    """(idx, index_of) as the torus and box loops built them."""
    sites = geometry.sites
    if geometry.kind == "torus":
        index_of = {s: i for i, s in enumerate(sites)}
        wrap = [[tuple(c % e for c, e in zip(_shift(x, z), geometry.extents))
                 for z in kernel.offsets] for x in sites]
        return np.array([[index_of[y] for y in row] for row in wrap], dtype=np.int64), index_of
    index_of = {s: i for i, s in enumerate(list(sites) + list(geometry.shell))}
    idx = np.empty((len(sites), len(kernel.offsets)), dtype=np.int64)
    for i, x in enumerate(sites):
        for k, z in enumerate(kernel.offsets):
            y = _shift(x, z)
            j = index_of.get(y)
            if j is None:
                raise GeometryMismatch(f"shell does not cover site {y} needed by {x}")
            idx[i, k] = j
    return idx, index_of


def _pair_arrays(triples):
    first, second, weight = zip(*triples) if triples else ((), (), ())
    return (np.array(first, dtype=np.intp), np.array(second, dtype=np.intp),
            np.array(weight, dtype=float))


def reference_matrices(volume, kernel, wrap=None):
    """(shell, A, B, inside_pairs, cross_pairs) from the per-site loop."""
    sites = tuple(sorted(volume))
    interior = {s: i for i, s in enumerate(sites)}
    shell = set()
    neighbors = []
    for i, x in enumerate(sites):
        for k, z in enumerate(kernel.offsets):
            y = _shift(x, z)
            if wrap is not None:
                y = tuple(c % e for c, e in zip(y, wrap))
            neighbors.append((i, k, y))
            if y not in interior:
                shell.add(y)
    shell = tuple(sorted(shell))
    shell_index = {s: i for i, s in enumerate(shell)}
    n = len(sites)
    a_mat = np.zeros((n, n))
    np.fill_diagonal(a_mat, kernel.norm)
    b_mat = np.zeros((n, len(shell)))
    inside, crossing = [], []
    for i, k, y in neighbors:
        w = float(kernel.weights[k])
        j = interior.get(y)
        if j is not None:
            a_mat[i, j] -= w
            if j > i:
                inside.append((i, j, w))
        else:
            s = shell_index[y]
            b_mat[i, s] += w
            crossing.append((i, s, w))
    return shell, a_mat, b_mat, _pair_arrays(inside), _pair_arrays(crossing)


def reference_toeplitz(volume, z):
    sites = sorted(volume)
    index = {s: i for i, s in enumerate(sites)}
    t_mat = 2.0 * np.eye(len(sites))
    for x, i in index.items():
        for step in (z, tuple(-c for c in z)):
            j = index.get(_shift(x, step))
            if j is not None:
                t_mat[i, j] -= 1.0
    return t_mat


def reference_certificate(sites, kernel):
    """(slack, terms) with an offset realized when some x + z is a site."""
    site_set = set(sites)
    slack, terms = 0.0, []
    for z, w in zip(kernel.offsets, kernel.weights):
        if not _lex_positive(z):
            continue
        if any(_shift(x, z) in site_set for x in sites):
            terms.append((z, float(w), tuple(z_connected_classes(sites, z))))
        else:
            slack += 2.0 * float(w)
    return slack, tuple(terms)


def reference_partition_ok(sites, shell, kernel, partition):
    covered = set(sites) | set(shell)
    for x in sites:
        for z in kernel.offsets:
            y = _shift(x, z)
            if y in covered and partition.side(y) == partition.side(x):
                return False
    return True


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------

def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


@st.composite
def kernels(draw, d):
    kind = draw(st.sampled_from(["nn", "exp-decay", "custom"]))
    if kind == "nn":
        return nearest_neighbor(d)
    if kind == "exp-decay":
        return exp_decay(draw(st.floats(0.1, 2.0)), draw(st.integers(1, 2)), d)
    steps = st.tuples(*[st.integers(-2, 2)] * d).filter(any)
    raw = draw(st.dictionaries(steps, st.floats(0.1, 3.0), min_size=1, max_size=4))
    raw = {z: w for z, w in raw.items() if tuple(-c for c in z) not in raw or z > (0,) * d}
    return build_kernel(d, raw, normalize=draw(st.booleans()))


@st.composite
def volumes(draw, max_sites=12):
    d = draw(st.integers(1, 3))
    kernel = draw(kernels(d))
    coords = st.tuples(*[st.integers(-3, 4)] * d)
    sites = draw(st.lists(coords, min_size=1, max_size=max_sites, unique=True))
    return kernel, sorted(sites)


def cube_kernel(d, reach=2):
    """Every nonzero offset up to ``reach`` on each axis: a shell wide
    enough for any kernel drawn above."""
    return build_kernel(d, {z: 1.0 for z in itertools.product(range(-reach, reach + 1), repeat=d)
                            if any(z)})


def torus_for(kernel, extra):
    return LatticeGeometry.torus([2 * r + 1 + e for r, e in zip(kernel.range_per_axis, extra)])


# ---------------------------------------------------------------------------
# Shells and neighbour tables
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(volumes(), st.booleans())
def test_box_shell_and_table_match_loops(case, wide_shell):
    kernel, sites = case
    shell_kernel = cube_kernel(kernel.dimension) if wide_shell else kernel
    box = LatticeGeometry.box(sites, shell_kernel)
    assert box.shell == reference_box_shell(sites, shell_kernel)
    table = wrapped_offsets(kernel, box)
    idx, index_of = reference_table(kernel, box)
    assert same_bits(table.idx, idx)
    assert table.index_of == index_of
    assert list(table.index_of) == list(index_of)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(kernels), st.data())
def test_torus_table_matches_loop(kernel, data):
    extra = data.draw(st.lists(st.integers(0, 3), min_size=kernel.dimension,
                               max_size=kernel.dimension))
    torus = torus_for(kernel, extra)
    table = wrapped_offsets(kernel, torus)
    idx, index_of = reference_table(kernel, torus)
    assert same_bits(table.idx, idx)
    assert table.index_of == index_of


def test_box_built_for_a_shorter_kernel_is_a_mismatch():
    box = LatticeGeometry.box([(0,), (1,), (2,)], nearest_neighbor(1))
    wide = exp_decay(0.5, 2)
    with pytest.raises(GeometryMismatch) as got:
        wrapped_offsets(wide, box)
    with pytest.raises(GeometryMismatch) as want:
        reference_table(wide, box)
    assert str(got.value) == str(want.value) == "shell does not cover site (-2,) needed by (0,)"


# ---------------------------------------------------------------------------
# Matrices and pair arrays, in all three ambients
# ---------------------------------------------------------------------------

def assert_matrices_match(vh, reference):
    shell, a_mat, b_mat, inside, cross = reference
    assert vh.shell == shell
    assert same_bits(vh.precision, a_mat)
    assert same_bits(vh.cross, b_mat)
    for got, want in zip(vh.inside_pairs + vh.cross_pairs, inside + cross):
        assert same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(volumes())
def test_matrices_match_loop_on_infinite_and_box_ambients(case):
    kernel, sites = case
    reference = reference_matrices(sites, kernel)
    assert_matrices_match(build_matrices(sites, kernel), reference)
    box = LatticeGeometry.box(sites + [tuple(c + 9 for c in sites[0])], kernel)
    assert_matrices_match(build_matrices(sites, kernel, geometry=box), reference)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(kernels), st.data())
def test_matrices_match_loop_on_torus_ambient(kernel, data):
    d = kernel.dimension
    torus = torus_for(kernel, data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    # volume sites outside the fundamental domain stay unwrapped, as before
    coords = st.tuples(*[st.integers(-1, e) for e in torus.extents])
    sites = sorted(data.draw(st.lists(coords, min_size=1, max_size=12, unique=True)))
    vh = build_matrices(sites, kernel, geometry=torus)
    assert_matrices_match(vh, reference_matrices(sites, kernel, wrap=torus.extents))


def test_whole_torus_volume_has_no_shell():
    kernel = nearest_neighbor(2)
    torus = LatticeGeometry.torus([4, 5])
    vh = build_matrices(torus.sites, kernel, geometry=torus)
    assert vh.shell == () and vh.cross_pairs[0].size == 0
    assert_matrices_match(vh, reference_matrices(torus.sites, kernel, wrap=torus.extents))


# ---------------------------------------------------------------------------
# Certificate, Toeplitz blocks and the partition check
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(volumes(), st.data())
def test_toeplitz_and_certificate_match_loops(case, data):
    kernel, sites = case
    z = data.draw(st.tuples(*[st.integers(-2, 2)] * kernel.dimension))   # zero included
    assert same_bits(toeplitz_matrix(sites, z), reference_toeplitz(sites, z))
    cert = pd_certificate(build_matrices(sites, kernel))
    slack, terms = reference_certificate(tuple(sites), kernel)
    assert cert.slack == slack and cert.terms == terms


PARTITIONS = {
    "parity": BipartitePartition.parity(),
    "first-axis": BipartitePartition(lambda site: site[0]),
    "one-class": BipartitePartition(lambda site: 0),
    "blocks": BipartitePartition(lambda site: sum(site) // 2),
}


@settings(max_examples=200, deadline=None)
@given(volumes(), st.sampled_from(sorted(PARTITIONS)))
def test_partition_verdict_matches_loop(case, name):
    kernel, sites = case
    partition = PARTITIONS[name]
    vh = build_matrices(sites, kernel)
    ok = reference_partition_ok(vh.sites, vh.shell, kernel, partition)
    try:
        side = _check_partition(vh, partition)
    except IncompatiblePartition:
        assert not ok
    else:
        assert ok
        assert side.tolist() == [partition.side(s) for s in vh.sites + vh.shell]
