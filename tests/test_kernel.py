import math

import numpy as np
import pytest

from truncgibbs.errors import (
    AsymmetricKernel,
    DuplicateSite,
    EmptyKernel,
    GeometryMismatch,
    GeometryTooSmall,
    NegativeWeight,
    ZeroOffsetPresent,
)
from truncgibbs.kernel import (
    LatticeGeometry,
    SpinInterval,
    build_kernel,
    exp_decay,
    nearest_neighbor,
    wrapped_offsets,
)


def test_normalization_forces_half():
    k = build_kernel(1, {(1,): 3.0, (-1,): 3.0})
    assert k.weight((1,)) == 0.5
    assert k.weight((-1,)) == 0.5
    assert k.norm == 1.0


def test_2d_four_neighbors():
    raw = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}
    k = build_kernel(2, raw)
    for z in raw:
        assert k.weight(z) == 0.25


def test_asymmetric_rejected():
    with pytest.raises(AsymmetricKernel):
        build_kernel(1, {(1,): 1.0, (-1,): 2.0})


def test_missing_mirror_filled_in():
    k = build_kernel(1, {(1,): 1.0, (2,): 1.0})
    assert k.weight((-1,)) == k.weight((1,)) == 0.25
    assert k.weight((-2,)) == k.weight((2,)) == 0.25


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        build_kernel(1, {(1,): -0.5})


def test_zero_offset_rejected():
    with pytest.raises(ZeroOffsetPresent):
        build_kernel(2, {(0, 0): 1.0, (1, 0): 1.0})


def test_empty_kernel_rejected():
    with pytest.raises(EmptyKernel):
        build_kernel(1, {(1,): 0.0, (-1,): 0.0})


def test_zero_weight_entries_dropped():
    k = build_kernel(1, {(1,): 1.0, (-1,): 1.0, (3,): 0.0})
    assert (3,) not in k.offsets


def test_unnormalized_opt_out():
    k = build_kernel(1, {(1,): 3.0, (-1,): 3.0}, normalize=False)
    assert k.norm == 6.0


@pytest.mark.parametrize("kernel", [
    nearest_neighbor(1),
    nearest_neighbor(3),
    exp_decay(0.5, 3),
    exp_decay(0.3, 2, dimension=2),
    exp_decay(0.9, 4, dimension=2),
])
def test_norm_one_and_exact_symmetry(kernel):
    assert abs(kernel.norm - 1.0) <= 1e-15
    for z in kernel.offsets:
        mz = tuple(-c for c in z)
        assert kernel.weight(z) == kernel.weight(mz)
        assert kernel.weight(z) > 0.0


def test_exp_decay_weight_ratio():
    k = exp_decay(0.5, 3)
    assert k.weight((2,)) / k.weight((1,)) == pytest.approx(0.5, abs=1e-15)
    assert k.weight((3,)) / k.weight((2,)) == pytest.approx(0.5, abs=1e-15)
    assert k.weight((4,)) == 0.0


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
    i0 = table.index_of[(0,)]
    # neighbor at -1 is the shell slot, neighbor at +1 is interior site 1
    assert table.idx[i0, 0] == table.index_of[(-1,)]
    assert table.idx[i0, 1] == table.index_of[(1,)]


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
