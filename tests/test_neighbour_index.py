"""The vectorised neighbour index against the per-site loops it replaced.

Box shells, neighbour tables, A, B, the pair list, the Toeplitz blocks,
the certificate's realized offsets and the parity check all read one
index (``kernel._neighbour_index``), by one sorted search on boxes, whole
tori and scattered volumes alike.  The reference functions below are the
``x + z`` loops each of them ran before; every comparison is bit for bit,
dtypes and orders included.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncgibbs.errors import GeometryMismatch, IncompatiblePartition
from truncgibbs.finite_spec import (
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
from truncgibbs.transforms import _check_partition
from helpers import _lex_positive

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
    """idx as the torus and box loops built it, through a site -> index map."""
    sites = geometry.sites
    if geometry.kind == "torus":
        index_of = {s: i for i, s in enumerate(sites)}
        wrap = [[tuple(c % e for c, e in zip(_shift(x, z), geometry.extents))
                 for z in kernel.offsets] for x in sites]
        return np.array([[index_of[y] for y in row] for row in wrap], dtype=np.int64)
    index_of = {s: i for i, s in enumerate(list(sites) + list(geometry.shell))}
    return np.array([[index_of[_shift(x, z)] for z in kernel.offsets] for x in sites],
                    dtype=np.int64)


def _pair_arrays(triples):
    first, second, weight = zip(*triples) if triples else ((), (), ())
    return (np.array(first, dtype=np.intp), np.array(second, dtype=np.intp),
            np.array(weight, dtype=float))


def reference_matrices(volume, kernel):
    """(shell, A, B, pairs) from the per-site loop: interior pairs, then
    cross pairs, both ends indexing sites + shell."""
    sites = tuple(sorted(volume))
    interior = {s: i for i, s in enumerate(sites)}
    shell = set()
    neighbors = []
    for i, x in enumerate(sites):
        for k, z in enumerate(kernel.offsets):
            y = _shift(x, z)
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
            crossing.append((i, n + s, w))
    return shell, a_mat, b_mat, _pair_arrays(inside + crossing)


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


def parity(site):
    return sum(site) & 1


def reference_parity_ok(sites, shell, kernel):
    covered = set(sites) | set(shell)
    for x in sites:
        for z in kernel.offsets:
            y = _shift(x, z)
            if y in covered and parity(y) == parity(x):
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
    return build_kernel(d, raw)


@st.composite
def volumes(draw, max_sites=12):
    d = draw(st.integers(1, 3))
    kernel = draw(kernels(d))
    coords = st.tuples(*[st.integers(-3, 4)] * d)
    sites = draw(st.lists(coords, min_size=1, max_size=max_sites, unique=True))
    return kernel, sorted(sites)


def cube_kernel(d, reach=2):
    """Every nonzero offset up to ``reach`` on each axis: a box built for it
    has a shell at least as wide as any kernel drawn above reaches."""
    return build_kernel(d, {z: 1.0 for z in itertools.product(range(-reach, reach + 1), repeat=d)
                            if any(z)})


def torus_for(kernel, extra):
    return LatticeGeometry.torus([2 * r + 1 + e for r, e in zip(kernel.range_per_axis, extra)])


# ---------------------------------------------------------------------------
# Shells and neighbour tables
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(volumes())
def test_box_shell_and_table_match_loops(case):
    kernel, sites = case
    box = LatticeGeometry.box(sites, kernel)
    assert box.shell == reference_box_shell(sites, kernel)
    table = wrapped_offsets(kernel, box)
    assert same_bits(table.idx, reference_table(kernel, box))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(kernels), st.data())
def test_torus_table_matches_loop(kernel, data):
    extra = data.draw(st.lists(st.integers(0, 3), min_size=kernel.dimension,
                               max_size=kernel.dimension))
    torus = torus_for(kernel, extra)
    table = wrapped_offsets(kernel, torus)
    assert same_bits(table.idx, reference_table(kernel, torus))


def test_box_built_for_a_shorter_kernel_is_a_mismatch():
    box = LatticeGeometry.box([(0,), (1,), (2,)], nearest_neighbor(1))
    with pytest.raises(GeometryMismatch, match="^box shell is not the shell this kernel "
                                               "reaches; build the box with the kernel it runs$"):
        wrapped_offsets(exp_decay(0.5, 2), box)


@settings(max_examples=200, deadline=None)
@given(volumes(), st.sampled_from(["cube", "nn"]))
def test_box_built_for_another_kernel_is_a_mismatch(case, built_for):
    # a box built for the cube kernel has a wider shell, one built for nn
    # another; only a shell equal to the kernel's own is accepted
    kernel, sites = case
    d = kernel.dimension
    box = LatticeGeometry.box(sites, cube_kernel(d) if built_for == "cube" else nearest_neighbor(d))
    if box.shell == reference_box_shell(sites, kernel):
        assert same_bits(wrapped_offsets(kernel, box).idx, reference_table(kernel, box))
    else:
        with pytest.raises(GeometryMismatch, match="build the box with the kernel it runs"):
            wrapped_offsets(kernel, box)


# ---------------------------------------------------------------------------
# Matrices and pair arrays
# ---------------------------------------------------------------------------

def assert_matrices_match(vh, reference):
    shell, a_mat, b_mat, pairs = reference
    assert vh.shell == shell
    assert same_bits(vh.precision, a_mat)
    assert same_bits(vh.cross, b_mat)
    for got, want in zip(vh.pairs, pairs, strict=True):
        assert same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(volumes())
def test_matrices_match_loop_on_infinite_and_box_ambients(case):
    kernel, sites = case
    vh = build_matrices(sites, kernel)
    assert_matrices_match(vh, reference_matrices(sites, kernel))
    # the box of the same sites, as the runs build it, has the same shell
    # and the same cross pairs, in the same order
    table = wrapped_offsets(kernel, LatticeGeometry.box(sites, kernel))
    assert table.shell == vh.shell
    shell_ends = vh.pairs[1][vh.pairs[1] >= vh.n_sites]
    assert same_bits(table.idx[table.idx >= vh.n_sites], shell_ends)


@settings(max_examples=200, deadline=None)
@given(volumes(), st.data())
def test_no_table_row_names_its_own_site(case, data):
    # the level schedule relies on it: an offset is never zero (ZeroOffsetPresent),
    # and check_torus_extents makes every torus extent exceed twice the range
    kernel, sites = case
    extra = data.draw(st.lists(st.integers(0, 3), min_size=kernel.dimension,
                               max_size=kernel.dimension))
    for geometry in (LatticeGeometry.box(sites, kernel), torus_for(kernel, extra)):
        idx = wrapped_offsets(kernel, geometry).idx
        assert not (idx == np.arange(geometry.n_sites)[:, None]).any()


# ---------------------------------------------------------------------------
# Certificate, Toeplitz blocks and the parity check
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(volumes(), st.data())
def test_toeplitz_and_certificate_match_loops(case, data):
    kernel, sites = case
    z = data.draw(st.tuples(*[st.integers(-2, 2)] * kernel.dimension).filter(any))
    assert same_bits(toeplitz_matrix(sites, z), reference_toeplitz(sites, z))
    cert = pd_certificate(build_matrices(sites, kernel))
    slack, terms = reference_certificate(tuple(sites), kernel)
    assert cert.slack == slack and cert.terms == terms


@settings(max_examples=200, deadline=None)
@given(volumes(max_sites=16))
def test_reassembly_from_classes_matches_dense_toeplitz_sum(case):
    # A from the certificate's progressions, against slack I plus one dense
    # T_z per term, the sum the certificate reassembled before
    kernel, sites = case
    vh = build_matrices(sites, kernel)
    cert = pd_certificate(vh)
    dense = cert.slack * np.eye(len(cert.sites))
    for z, w, _classes in cert.terms:
        dense += w * toeplitz_matrix(cert.sites, z)
    assert same_bits(cert.reassemble(), dense)
    assert same_bits(cert.reassemble(), vh.precision) == same_bits(dense, vh.precision)


@settings(max_examples=200, deadline=None)
@given(volumes())
def test_partition_verdict_matches_loop(case):
    kernel, sites = case
    vh = build_matrices(sites, kernel)
    ok = reference_parity_ok(vh.sites, vh.shell, kernel)
    try:
        side = _check_partition(vh)
    except IncompatiblePartition:
        assert not ok
    else:
        assert ok
        assert side.tolist() == [parity(s) for s in vh.sites + vh.shell]


def test_partition_check_names_two_coupled_sites_of_one_parity():
    # the range-2 exp-decay kernel couples (0, 0) to its diagonal neighbour
    vh = build_matrices([(0, 0), (0, 1), (1, 0), (1, 1)], exp_decay(0.5, 2, 2))
    with pytest.raises(IncompatiblePartition,
                       match=r"^sites \(0, 0\) and \(1, 1\) are coupled but share a class$"):
        _check_partition(vh)
