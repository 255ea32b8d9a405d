import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncgibbs.errors import (
    AsymmetricKernel,
    DuplicateSite,
    EmptyKernel,
    EmptyVolume,
    GeometryMismatch,
    GeometryTooSmall,
    NegativeWeight,
    NonFiniteWeight,
    ZeroOffsetPresent,
)
from truncgibbs.kernel import (
    InteractionKernel,
    LatticeGeometry,
    NeighborTable,
    SpinInterval,
    _neighbour_index,
    build_kernel,
    check_torus_extents,
    exp_decay,
    nearest_neighbor,
    wrapped_offsets,
)


def test_normalization_forces_half():
    k = build_kernel(1, {(1,): 3.0, (-1,): 3.0})
    assert dict(zip(k.offsets, k.weights.tolist())) == {(-1,): 0.5, (1,): 0.5}
    assert k.norm == 1.0


def test_2d_four_neighbors():
    raw = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}
    k = build_kernel(2, raw)
    assert dict(zip(k.offsets, k.weights.tolist())) == dict.fromkeys(raw, 0.25)


def test_asymmetric_rejected():
    with pytest.raises(AsymmetricKernel):
        build_kernel(1, {(1,): 1.0, (-1,): 2.0})


def test_missing_mirror_filled_in():
    k = build_kernel(1, {(1,): 1.0, (2,): 1.0})
    assert dict(zip(k.offsets, k.weights.tolist())) == dict.fromkeys(
        [(-2,), (-1,), (1,), (2,)], 0.25)


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        build_kernel(1, {(1,): -0.5})


def _with_mirrors(raw, mirrored):
    """``raw``, plus each offset's mirror given explicitly when ``mirrored``."""
    if not mirrored:
        return raw
    return {**raw, **{tuple(-c for c in z): w for z, w in raw.items()}}


@pytest.mark.parametrize("mirrored", [True, False])
@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_rejected(w, mirrored):
    # NaN passes both the negative and the zero test, and inf normalizes to NaN;
    # the check fires whether the mirror is given or filled in
    with pytest.raises(NonFiniteWeight, match="is not finite"):
        build_kernel(1, _with_mirrors({(1,): w}, mirrored))
    with pytest.raises(NonFiniteWeight, match="is not finite"):
        build_kernel(2, _with_mirrors({(1, 0): 1.0, (0, 1): w}, mirrored))


@pytest.mark.parametrize("mirrored", [True, False])
def test_weight_sum_beyond_float_range_rejected(mirrored):
    # each weight is finite, but J(1) + J(-1) is not
    with pytest.raises(NonFiniteWeight, match="sum beyond the float range"):
        build_kernel(1, _with_mirrors({(1,): 1e308}, mirrored))
    k = build_kernel(1, _with_mirrors({(1,): 8e307}, mirrored))   # 1.6e308 still fits
    assert k.norm == 1.0


def test_exp_decay_power_overflow_rejected():
    with pytest.raises(NonFiniteWeight, match=r"1e\+300 \*\* 2 overflows a float"):
        exp_decay(1e300, 2)
    with pytest.raises(NonFiniteWeight, match="sum beyond the float range"):
        exp_decay(1e308, 1)
    assert list(exp_decay(1e300, 1).weights) == [0.5, 0.5]


# each reads one count of at least 1: the kernel dimension, the exp-decay reach
COUNT_READERS = {
    "dimension": lambda c: build_kernel(c, {(1,): 1.0}).dimension,
    "reach": lambda c: len(exp_decay(0.5, c).offsets) // 2,
}


@pytest.mark.parametrize("bad", [0, -1, True, 1.5])
@pytest.mark.parametrize("name", COUNT_READERS)
def test_a_kernel_count_is_an_integer_of_at_least_one(name, bad):
    # unchecked, build_kernel(True, ...) built a kernel whose dimension is True
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {bad!r}$"):
        COUNT_READERS[name](bad)
    assert COUNT_READERS[name](np.int64(1)) == 1        # numpy integers count too


def test_zero_offset_rejected():
    with pytest.raises(ZeroOffsetPresent):
        build_kernel(2, {(0, 0): 1.0, (1, 0): 1.0})


def test_empty_kernel_rejected():
    with pytest.raises(EmptyKernel):
        build_kernel(1, {(1,): 0.0, (-1,): 0.0})


def test_zero_weight_entries_dropped():
    k = build_kernel(1, {(1,): 1.0, (-1,): 1.0, (3,): 0.0})
    assert (3,) not in k.offsets


@pytest.mark.parametrize("kernel", [
    nearest_neighbor(1),
    nearest_neighbor(3),
    exp_decay(0.5, 3),
    exp_decay(0.3, 2, dimension=2),
    exp_decay(0.9, 4, dimension=2),
])
def test_norm_one_and_exact_symmetry(kernel):
    assert abs(kernel.norm - 1.0) <= 1e-15
    weight = dict(zip(kernel.offsets, kernel.weights.tolist()))
    for z in kernel.offsets:
        mz = tuple(-c for c in z)
        assert weight[z] == weight[mz]
        assert weight[z] > 0.0


def test_kernel_rejects_weights_whose_norm_is_not_one():
    # build_kernel divides by the total, so these kernels are built by hand.  A
    # norm-2 kernel on one site between boundary values 0.2 and 0.4 has the
    # conditional law N(0.3, 1/2) on [0, 1] (mean 0.469), where a heat bath
    # would sample N(0.6, 1) on [0, 1] (mean 0.508)
    pair, base = ((-1,), (1,)), exp_decay(0.5, 3)
    for offsets, weights in [
        (pair, [1.0, 1.0]),                                      # weights summing to 2
        (base.offsets, 1.01 * base.weights),                     # 1.01 times the weights
        (pair, [1e308, 1e308]),                                  # a sum beyond the float range
    ]:
        with pytest.raises(ValueError, match="^kernel weights must sum to 1, got fsum"):
            InteractionKernel(offsets, np.array(weights))
    kernel = InteractionKernel(pair, np.array([0.5, 0.5]))
    assert (kernel.dimension, kernel.norm) == (1, 1.0)


PAIR = ((-1,), (1,))
QUAD = ((-2,), (-1,), (1,), (2,))


@pytest.mark.parametrize("offsets, weights, error, message", [
    # the one-sided kernel built, ran a sandwich and gave a non-symmetric A
    (((1,),), [1.0], AsymmetricKernel, r"^J\(1,\) = 1.0 but \(-1,\) is no offset$"),
    (PAIR, [0.25, 0.75], AsymmetricKernel, r"^J\(1,\) = 0.75 but J\(-1,\) = 0.25$"),
    (QUAD, [-0.25, 0.75, 0.75, -0.25], NegativeWeight, r"^J\(2,\) = -0.25 < 0$"),   # sum 1
    (QUAD, [0.0, 0.5, 0.5, 0.0], NegativeWeight, r"^J\(2,\) = 0.0 is not positive$"),
    (PAIR, [0.5, math.nan], NonFiniteWeight, r"^J\(1,\) = nan is not finite$"),
    (((-1,), (0,), (1,)), [0.25, 0.5, 0.25], ZeroOffsetPresent, "zero offset"),
    ((), [], EmptyKernel, "all weights vanish"),
    (((-1,), (0, -1), (0, 1), (1,)), [0.25] * 4, ValueError,
     r"^offset \(0, 1\) does not have dimension 1$"),
    (((1,), (-1,)), [0.5, 0.5], ValueError, "sorted and distinct"),
    (((-1,), (-1,), (1,), (1,)), [0.25] * 4, ValueError, "sorted and distinct"),
    (PAIR, [0.5, 0.25, 0.25], ValueError, r"float64 array of shape \(2,\)"),
    (PAIR, np.array([0.5, 0.5], dtype=np.float32), ValueError, "float64 array"),
    (PAIR, [[0.5, 0.5]], ValueError, "float64 array"),
    (((-1.0,), (1.0,)), [0.5, 0.5], TypeError, "tuples of ints"),
    (([-1], [1]), [0.5, 0.5], TypeError, "tuples of ints"),
])
def test_a_hand_built_kernel_breaking_a_rule_is_rejected(offsets, weights, error, message):
    with pytest.raises(error, match=message) as caught:
        InteractionKernel(offsets, np.asarray(weights))
    assert type(caught.value) is error


def test_kernel_weights_are_an_array():
    with pytest.raises(ValueError, match="float64 array"):
        InteractionKernel(PAIR, [0.5, 0.5])


def test_a_hand_built_kernel_names_its_largest_offending_offset():
    offsets = ((-3,), (-2,), (-1,), (1,), (2,), (3,))
    with pytest.raises(NegativeWeight, match=r"^J\(3,\) = -1.0 < 0$"):
        InteractionKernel(offsets, np.array([-1.0, -1.0, 2.0, 2.0, -1.0, -1.0]))
    with pytest.raises(AsymmetricKernel, match=r"^J\(3,\) = 0.125 but J\(-3,\) = 0.25$"):
        InteractionKernel(offsets, np.array([0.25, 0.125, 0.125, 0.125, 0.25, 0.125]))


def test_a_one_dimensional_kernel_on_a_plane_torus_is_a_geometry_mismatch():
    # it built with a dimension field of 2, and wrapped_offsets raised IndexError
    kernel = InteractionKernel(PAIR, np.array([0.5, 0.5]))
    with pytest.raises(GeometryMismatch, match="kernel dimension 1 != torus dimension 2"):
        wrapped_offsets(kernel, LatticeGeometry.torus([8, 8]))


# each map breaks one rule and raises that rule's type, whether build_kernel's
# own checks or the kernel rules find it
RAW_ERRORS = [
    (1, {(1,): 1.0, (-1,): 2.0}, AsymmetricKernel),
    (1, {(1,): -0.5}, NegativeWeight),
    (1, {(1,): 1.0, (2,): -1.0, (-2,): -1.0}, NegativeWeight),
    (1, {(1,): math.nan}, NonFiniteWeight),
    (2, {(1, 0): 1.0, (0, 1): -math.inf}, NonFiniteWeight),
    (1, {(1,): 1e308}, NonFiniteWeight),                        # the sum overflows
    (2, {(0, 0): 1.0, (1, 0): 1.0}, ZeroOffsetPresent),
    (1, {(0,): 0.0, (1,): 1.0}, ZeroOffsetPresent),             # a zero weight at zero too
    (1, {(1,): 0.0, (-1,): 0.0}, EmptyKernel),
    (1, {}, EmptyKernel),
    (2, {(1,): 1.0}, ValueError),
    (0, {(1,): 1.0}, ValueError),
    (1, {(1,): "x"}, ValueError),
    (1, {1: 1.0}, TypeError),
    (1, {(1.5,): 1.0}, TypeError),
]


@pytest.mark.parametrize("dimension, raw, error", RAW_ERRORS)
def test_every_raw_kernel_rule_keeps_its_error_type(dimension, raw, error):
    with pytest.raises(error) as caught:
        build_kernel(dimension, raw)
    assert type(caught.value) is error


KERNEL_ERRORS = (AsymmetricKernel, EmptyKernel, NegativeWeight, NonFiniteWeight,
                 ZeroOffsetPresent)
_raw_weights = st.one_of(st.floats(5e-324, 1e300), st.floats(), st.sampled_from(
    [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e308]))
_raw_kernels = st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(d), st.dictionaries(st.tuples(*[st.integers(-3, 3)] * d), _raw_weights,
                                max_size=8)))


@settings(max_examples=300, deadline=None)
@given(_raw_kernels)
def test_a_raw_kernel_raises_a_kernel_error_or_rebuilds_bit_for_bit(case):
    # build_kernel and InteractionKernel check one rulebook: what the first
    # returns, the second takes back unchanged
    dimension, raw = case
    try:
        kernel = build_kernel(dimension, raw)
    except KERNEL_ERRORS:
        return
    again = InteractionKernel(kernel.offsets, kernel.weights)
    assert again.offsets == kernel.offsets and again.dimension == dimension
    assert again.weights.tobytes() == kernel.weights.tobytes()
    assert abs(kernel.norm - 1.0) <= 1e-15


def test_nearest_neighbor_is_exp_decay_of_rate_one_and_reach_one():
    for d in (1, 2, 3):
        nn, exp = nearest_neighbor(d), exp_decay(1.0, 1, d)
        assert nn.offsets == exp.offsets and nn.weights.tobytes() == exp.weights.tobytes()
        assert len(nn.offsets) == 2 * d and np.all(nn.weights == 1.0 / (2 * d))


def test_a_weight_that_normalizing_takes_to_zero_drops_out():
    k = build_kernel(1, {(1,): 5e-324, (2,): 1e300})
    assert k.offsets == ((-2,), (2,)) and list(k.weights) == [0.5, 0.5]


_offsets = st.integers(1, 2).flatmap(lambda d: st.tuples(
    st.just(d), st.dictionaries(st.tuples(*[st.integers(-3, 3)] * d),
                                st.floats(5e-324, 1e300), min_size=1, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(_offsets)
def test_every_built_kernel_has_norm_one(case):
    # raw weights of any finite positive size, subnormal ones included, pass
    # the kernel's own norm check with room to spare; only lexicographically
    # positive offsets are given, and build_kernel fills in the mirrors
    dimension, raw = case
    raw = {z: w for z, w in raw.items() if z > (0,) * dimension}
    if raw:
        assert abs(build_kernel(dimension, raw).norm - 1.0) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-3, 1e3), st.integers(1, 4), st.integers(1, 2))
def test_every_preset_has_norm_one(rate, reach, dimension):
    for kernel in (nearest_neighbor(dimension), exp_decay(rate, reach, dimension)):
        assert abs(kernel.norm - 1.0) <= 1e-15


def test_exp_decay_weight_ratio():
    k = exp_decay(0.5, 3)
    weight = dict(zip(k.offsets, k.weights.tolist()))
    assert weight[(2,)] / weight[(1,)] == pytest.approx(0.5, abs=1e-15)
    assert weight[(3,)] / weight[(2,)] == pytest.approx(0.5, abs=1e-15)
    assert (4,) not in weight


def test_spin_interval_validation():
    with pytest.raises(ValueError):
        SpinInterval(1.0, 1.0)
    iv = SpinInterval(-1.0, 1.0)
    assert iv.midpoint == 0.0 and iv.width == 2.0


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
                                  (0.0, math.nan), (math.nan, 1.0),
                                  (-1e308, 1e308)])      # finite ends, width overflows
def test_spin_interval_requires_finite_bounds(a, b):
    with pytest.raises(ValueError, match="finite a < b"):
        SpinInterval(a, b)


# ---------------------------------------------------------------------------
# Geometries and neighbor tables
# ---------------------------------------------------------------------------

def test_torus_neighbors_wrap():
    k = nearest_neighbor(1)
    table = wrapped_offsets(k, LatticeGeometry.torus([8]))
    # offsets are sorted, so column 0 is -1 and column 1 is +1
    assert list(table.idx[0]) == [7, 1]
    assert list(table.idx[7]) == [6, 0]
    assert np.all(table.weights == 0.5)


def test_box_interior_and_boundary_split():
    k = nearest_neighbor(1)
    geom = LatticeGeometry.box([(0,), (1,)], k)
    assert geom.shell == ((-1,), (2,))
    table = wrapped_offsets(k, geom)
    index_of = {s: i for i, s in enumerate(geom.sites + geom.shell)}
    i0 = index_of[(0,)]
    # neighbor at -1 is the shell slot, neighbor at +1 is interior site 1
    assert table.idx[i0, 0] == index_of[(-1,)]
    assert table.idx[i0, 1] == index_of[(1,)]


def test_box_with_a_repeated_site_rejected():
    with pytest.raises(DuplicateSite, match=r"site \(1, 0\) is listed twice"):
        LatticeGeometry.box([(1, 0), (0, 0), (1, 0)], nearest_neighbor(2))


def test_torus_too_small():
    k = nearest_neighbor(1)
    with pytest.raises(GeometryTooSmall):
        wrapped_offsets(k, LatticeGeometry.torus([2]))


def test_per_site_weight_sums():
    for kernel, geom in [
        (nearest_neighbor(2), LatticeGeometry.torus([7, 9])),
        (exp_decay(0.5, 3), LatticeGeometry.torus([16])),
        (nearest_neighbor(1), LatticeGeometry.box([(0,), (1,), (2,)], nearest_neighbor(1))),
    ]:
        table = wrapped_offsets(kernel, geom)
        sums = [math.fsum(table.weights[k] for k in range(len(table.weights)))
                for _ in range(table.n_sites)]
        assert all(abs(s - 1.0) <= 1e-15 for s in sums)


def test_box_shell_covers_kernel_reach():
    k = exp_decay(0.5, 2, dimension=2)
    sites = [(0, 0), (1, 0), (0, 1)]
    geom = LatticeGeometry.box(sites, k)
    interior = set(geom.sites)
    for x in geom.sites:
        for z in k.offsets:
            y = (x[0] + z[0], x[1] + z[1])
            assert y in interior or y in set(geom.shell)


def test_dimension_mismatch():
    with pytest.raises(GeometryMismatch):
        wrapped_offsets(nearest_neighbor(2), LatticeGeometry.torus([8]))


def test_offset_of_the_wrong_dimension_rejected():
    with pytest.raises(ValueError, match="does not have dimension 2"):
        build_kernel(2, {(1,): 1.0})
    with pytest.raises(ValueError, match="does not have dimension 1"):
        build_kernel(1, {(1, 0): 1.0})
    with pytest.raises(TypeError):          # an offset is a tuple, in 1D too
        build_kernel(1, {1: 1.0})


@pytest.mark.parametrize("extents", [[0], [8, 0], [-3]])
def test_torus_extent_below_one_rejected(extents):
    with pytest.raises(ValueError, match="torus extents must be positive"):
        LatticeGeometry.torus(extents)


def test_a_torus_has_at_least_one_axis():
    # it built a one-site torus of dimension 0
    with pytest.raises(ValueError, match="a torus needs at least one extent"):
        LatticeGeometry.torus([])


def test_torus_extents_check_the_kernel_dimension():
    # zip dropped the extra kernel axis, and the check passed
    with pytest.raises(GeometryMismatch, match="kernel dimension 2 != torus dimension 1"):
        check_torus_extents(nearest_neighbor(2), LatticeGeometry.torus([8]))
    with pytest.raises(GeometryMismatch, match="kernel dimension 1 != torus dimension 2"):
        check_torus_extents(nearest_neighbor(1), LatticeGeometry.torus([8, 8]))
    assert LatticeGeometry.torus([8, 9]).dimension == 2


def test_box_needs_sites_of_the_kernel_dimension():
    with pytest.raises(EmptyVolume):
        LatticeGeometry.box([], nearest_neighbor(1))
    with pytest.raises(GeometryMismatch, match="kernel dimension 2 != site dimension 1"):
        LatticeGeometry.box([(0,), (1,)], nearest_neighbor(2))


def test_neighbour_index_rejects_offsets_of_another_dimension():
    with pytest.raises(GeometryMismatch, match="offsets of dimension 2 for sites of 1"):
        _neighbour_index(((0,), (1,)), ((1, 0), (-1, 0)))


def test_checked_weights_and_neighbour_index_are_read_only():
    # a write after the checks would bypass them: weights that sum to 5.5,
    # or a neighbour row that names its own site
    k = nearest_neighbor(1)
    with pytest.raises(ValueError, match="read-only"):
        k.weights[0] = 5.0
    assert k.norm == 1.0
    table = wrapped_offsets(k, LatticeGeometry.torus((8,)))
    with pytest.raises(ValueError, match="read-only"):
        table.idx[0, 0] = 0
    assert table.idx[0].tolist() == [7, 1]
    # the arrays given to the constructors stay the callers' own
    weights, idx = np.array([0.5, 0.5]), table.idx.copy()
    kernel = InteractionKernel(((-1,), (1,)), weights)
    table = NeighborTable(kernel, table.geometry, idx)
    weights[0] = idx[0, 0] = 3
    assert kernel.weights.tolist() == [0.5, 0.5] and table.idx[0, 0] == 7
