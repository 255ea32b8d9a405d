"""Finite-volume matrices, the pair Hamiltonian, and the PD certificate.

Hand-derived oracle values: for the 1-d nearest-neighbor kernel (weights
one half) on the volume {0, 1}, the pair energy is
    (1/4) [(e0 - e1)^2 + (e0 - g(-1))^2 + (e1 - g(2))^2],
whose Hessian is [[1, -1/2], [-1/2, 1]]; its inverse is
[[4/3, 2/3], [2/3, 4/3]], and the conditional mean for boundary (0, 1)
solves A m = (0, 1/2), giving m = (1/3, 2/3).
"""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from helpers import random_kernel, random_volume
from hypothesis import given, settings
from hypothesis import strategies as st

from truncgibbs.diagnostics import quadrature_marginals
from truncgibbs.errors import (
    DuplicateSite,
    EmptyVolume,
    GeometryMismatch,
    MissingSite,
    OutOfRange,
)
from truncgibbs.finite_spec import (
    build_matrices,
    hamiltonian,
    pd_certificate,
    psi_boundary,
    quadratic_form,
    specification,
    toeplitz_matrix,
    toeplitz_quadratic_form,
    z_connected_classes,
)
from truncgibbs.kernel import (LatticeGeometry, SpinInterval, exp_decay, nearest_neighbor,
                               wrapped_offsets)
from truncgibbs.sampler import FieldConfiguration, cftp_samples, run_sandwich
from truncgibbs.transforms import af_specification_probe
from truncgibbs.truncnorm import TruncatedNormal, mean

NN1 = nearest_neighbor(1)
UNIT = SpinInterval(0.0, 1.0)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def test_singleton_matrices():
    vh = build_matrices([(0,)], NN1)
    assert vh.precision.tolist() == [[1.0]]
    assert vh.shell == ((-1,), (1,))
    assert vh.cross.tolist() == [[0.5, 0.5]]
    spec = specification(vh, np.array([0.2, 0.8]), UNIT)
    assert spec.covariance.tolist() == [[1.0]]
    assert spec.mean[0] == pytest.approx(0.5, abs=1e-15)   # the local mean


def test_pair_volume_matrices():
    vh = build_matrices([(0,), (1,)], NN1)
    assert np.allclose(vh.precision, [[1.0, -0.5], [-0.5, 1.0]], atol=0)
    assert vh.shell == ((-1,), (2,))
    assert np.allclose(vh.cross, [[0.5, 0.0], [0.0, 0.5]], atol=0)


def test_pair_volume_specification_against_dense_solve():
    vh = build_matrices([(0,), (1,)], NN1)
    gamma = np.array([0.0, 1.0])
    spec = specification(vh, gamma, UNIT)
    # oracle: plain 2x2 inversion
    oracle_cov = np.linalg.inv(vh.precision)
    oracle_mean = np.linalg.solve(vh.precision, vh.cross @ gamma)
    assert np.allclose(spec.covariance, oracle_cov, atol=1e-14)
    assert np.allclose(spec.mean, oracle_mean, atol=1e-14)
    assert np.allclose(spec.mean, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert np.allclose(spec.covariance, [[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 4.0 / 3.0]],
                       atol=1e-12)


def test_constant_boundary_pins_constant_mean():
    vh = build_matrices([(0,), (1,)], NN1)
    for c in (0.0, 0.25, 1.0):
        spec = specification(vh, np.array([c, c]), UNIT)
        assert np.allclose(spec.mean, [c, c], atol=1e-12)


def test_singleton_spec_is_the_single_site_conditional():
    vh = build_matrices([(5,)], NN1)
    gamma = np.array([0.1, 0.7])
    spec = specification(vh, gamma, UNIT)
    local = float((vh.cross @ gamma)[0])      # the kernel-weighted boundary mean
    assert spec.mean[0] == pytest.approx(local, abs=1e-14)
    assert spec.covariance[0, 0] == pytest.approx(1.0, abs=1e-15)
    # so the truncated law of the single-site conditional is exactly the
    # unit-variance truncated normal centered at the local mean
    assert mean(TruncatedNormal(spec.mean[0], UNIT)) == pytest.approx(
        mean(TruncatedNormal(local, UNIT)), abs=0)


def test_empty_volume_rejected():
    with pytest.raises(EmptyVolume):
        build_matrices([], NN1)


def test_repeated_volume_site_rejected():
    # a repeated site would add its couplings twice and leave A asymmetric
    with pytest.raises(DuplicateSite, match=r"site \(0,\) is listed twice"):
        build_matrices([(0,), (0,), (1,)], NN1)


def test_build_matrices_rejects_kernel_of_another_dimension():
    with pytest.raises(GeometryMismatch, match="kernel dimension 2 != site dimension 1"):
        build_matrices([(0,), (1,)], nearest_neighbor(2))


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def test_constant_configuration_zero_energy():
    vh = build_matrices([(0,), (1,), (2,)], NN1)
    xi = np.full(vh.n_sites + len(vh.shell), 0.7)
    assert hamiltonian(vh, xi) == 0.0


def test_singleton_hand_sum():
    vh = build_matrices([(0,)], NN1)
    # site (0,), then the shell (-1,) and (1,)
    assert hamiltonian(vh, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.5, abs=0)


def test_missing_site_rejected():
    # xi is one array, volume then shell; a site mapping, complete or not,
    # has no such order
    vh = build_matrices([(0,)], NN1)
    for xi in ({(-1,): 0.0, (0,): 1.0, (1,): 0.0}, {(0,): 1.0, (1,): 0.0}):
        with pytest.raises(MissingSite, match=re.escape("got shape ()")):
            hamiltonian(vh, xi)
    with pytest.raises(MissingSite):
        hamiltonian(vh, np.array([1.0, 0.0]))


VOLUME2 = build_matrices([(0,), (1,)], NN1)          # shell (-1,) and (2,)
BOX2 = LatticeGeometry.box([(0,), (1,)], NN1)         # the same shell
BOUNDARY_READERS = {      # each reader's result as arrays, read at one boundary
    "FieldConfiguration": lambda gamma: [FieldConfiguration(
        wrapped_offsets(NN1, BOX2), UNIT, [0.5, 0.5], gamma).values],
    "run_sandwich": lambda gamma: [
        (trace := run_sandwich(BOX2, NN1, UNIT, 3, 0, boundary=gamma)).sup_gap,
        trace.mean_gap, trace.final_lower, trace.final_upper],
    "cftp_samples": lambda gamma: [cftp_samples(BOX2, NN1, UNIT, gamma, 3, 0)],
    "specification": lambda gamma: [(spec := specification(VOLUME2, gamma, UNIT)).mean,
                                    spec.covariance],
    "quadrature_marginals": lambda gamma: [
        (q := quadrature_marginals(VOLUME2, gamma, UNIT, n_q=64)).means,
        q.variances, q.marginal_cdfs, np.array(q.normalizer)],
    "af_specification_probe": lambda gamma: [af_specification_probe(
        VOLUME2, gamma, UNIT, trials=2).deltas],
    "psi_boundary": lambda gamma: [np.array(psi_boundary(VOLUME2, gamma))],
    "quadratic_form": lambda gamma: [np.array(quadratic_form(VOLUME2, [0.5, 0.25], gamma))],
}
UNRANGED_READERS = {"psi_boundary", "quadratic_form"}   # no interval, so no range check
BOUNDARY_CASES = {        # boundary: the array it reads as, or the error it raises
    "array": (np.array([0.25, 0.75]), np.array([0.25, 0.75])),
    "scalar": (0.5, np.array([0.5, 0.5])),
    "numpy_scalar": (np.float64(0.5), np.array([0.5, 0.5])),
    "0d_array": (np.array(0.5), np.array([0.5, 0.5])),
    "mapping": ({(2,): 0.75, (-1,): 0.25}, np.array([0.25, 0.75])),
    "1": (np.array([0.5]), (MissingSite, "expected 2 boundary values, got shape (1,)")),
    "3": (np.array([0.5, 0.5, 0.5]),
          (MissingSite, "expected 2 boundary values, got shape (3,)")),
    "1x2": (np.array([[0.5, 0.5]]),
            (MissingSite, "expected 2 boundary values, got shape (1, 2)")),
    "missing": ({(-1,): 0.25}, (MissingSite, "boundary does not cover shell site (2,)")),
    "out_of_range": (np.array([5.0, -3.0]),
                     (OutOfRange, "boundary values must lie in the spin interval")),
}


def boundary_outcome(reader, gamma):
    """The bytes of the reader's result arrays, or the type and text of its error."""
    try:
        return [np.asarray(a).tobytes() for a in BOUNDARY_READERS[reader](gamma)]
    except (MissingSite, OutOfRange) as err:
        return type(err), str(err)


@pytest.mark.parametrize("reader", sorted(BOUNDARY_READERS))
@pytest.mark.parametrize("gamma", list(BOUNDARY_CASES))
def test_boundary_shape_is_one_typed_error(reader, gamma):
    # every boundary reader resolves a scalar, a mapping and an array alike,
    # and rejects a wrong shape, a missing site and a value outside [a, b]
    # with one error type and message; the readers with no interval read
    # any value as given
    boundary, expected = BOUNDARY_CASES[gamma]
    if reader in UNRANGED_READERS and gamma == "out_of_range":
        expected = boundary
    if isinstance(expected, np.ndarray):
        expected = boundary_outcome(reader, expected)
        assert isinstance(expected, list)
    assert boundary_outcome(reader, boundary) == expected


@pytest.mark.parametrize("eta, shape", [([0.5], "(1,)"), ([0.5, 0.5, 0.5], "(3,)"),
                                        ({(0,): 0.5, (1,): 0.5}, "()")],
                         ids=["1", "3", "mapping"])
def test_quadratic_form_eta_shape_is_missing_site(eta, shape):
    # eta is an array in volume-site order; a site mapping has no such order
    message = f"expected 2 volume values, got shape {shape}"
    with pytest.raises(MissingSite, match=re.escape(message)):
        quadratic_form(VOLUME2, eta, [0.5, 0.5])


def test_quadratic_form_matches_pair_sum():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        vh = build_matrices([(0,), (1,)], NN1)
        eta = rng.uniform(0, 1, 2)
        gamma = rng.uniform(0, 1, 2)
        direct = hamiltonian(vh, np.concatenate([eta, gamma]))
        quad = quadratic_form(vh, eta, gamma)
        worst = max(worst, abs(direct - quad))
    assert worst <= 1e-12


def test_quadratic_form_matches_pair_sum_random_volumes():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        kern = random_kernel(rng)
        sites = random_volume(rng, kern.dimension)
        vh = build_matrices(sites, kern)
        total = vh.n_sites + len(vh.shell)
        xi = rng.uniform(-1, 1, total)
        direct = hamiltonian(vh, xi)
        quad = quadratic_form(vh, xi[:vh.n_sites], xi[vh.n_sites:])
        worst = max(worst, abs(direct - quad))
    assert worst <= 1e-10


def test_energy_difference_matches_conditional_gaussian_form():
    # the conditional density identity: energy differences at fixed boundary
    # equal differences of the quadratic form around the conditional mean
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        kern = random_kernel(rng)
        sites = random_volume(rng, kern.dimension)
        vh = build_matrices(sites, kern)
        gamma = rng.uniform(0, 1, len(vh.shell))
        spec = specification(vh, gamma, UNIT)
        eta1 = rng.uniform(0, 1, vh.n_sites)
        eta2 = rng.uniform(0, 1, vh.n_sites)
        dh = (hamiltonian(vh, np.concatenate([eta1, gamma]))
              - hamiltonian(vh, np.concatenate([eta2, gamma])))
        d1 = eta1 - spec.mean
        d2 = eta2 - spec.mean
        dq = 0.5 * (d1 @ vh.precision @ d1) - 0.5 * (d2 @ vh.precision @ d2)
        worst = max(worst, abs(dh - dq))
    assert worst <= 1e-10


def test_psi_depends_only_on_boundary():
    vh = build_matrices([(0,), (1,)], NN1)
    gamma = np.array([0.3, 0.9])
    assert psi_boundary(vh, gamma) == pytest.approx(0.5 * 0.09 + 0.5 * 0.81, abs=1e-15)


def _loop_energies(sites, shell, kernel, values):
    """Hamiltonian and psi by a pure-Python loop over pairs in build order.

    Each site in lexicographic order meets each kernel offset in order: an
    interior target of higher index is an inside pair, an exterior one a
    cross pair.  Energies add inside pairs first, one term at a time.
    """
    index = {x: i for i, x in enumerate(sites)}
    slot = {y: s for s, y in enumerate(shell)}
    eta, gamma = values[:len(sites)], values[len(sites):]
    inside, cross = [], []
    for i, x in enumerate(sites):
        for z, w in zip(kernel.offsets, kernel.weights.tolist()):
            y = tuple(a + b for a, b in zip(x, z))
            if y not in index:
                cross.append((i, slot[y], w))
            elif index[y] > i:
                inside.append((i, index[y], w))
    energy = 0.0
    for i, j, w in inside:
        diff = eta[i] - eta[j]
        energy += 0.5 * w * diff * diff
    for i, s, w in cross:
        diff = eta[i] - gamma[s]
        energy += 0.5 * w * diff * diff
    psi = 0.0
    for _, s, w in cross:
        psi += w * (gamma[s] * gamma[s])
    return energy, psi


@st.composite
def _volume_configurations(draw):
    dimension = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        kernel = nearest_neighbor(dimension)
    else:
        kernel = exp_decay(draw(st.floats(0.1, 2.0)), draw(st.integers(1, 3)), dimension)
    span = 40 if dimension == 1 else 8
    coords = st.tuples(*[st.integers(0, span - 1)] * dimension)
    sites = draw(st.lists(coords, min_size=1, max_size=40, unique=True))
    vh = build_matrices(sites, kernel)
    width = draw(st.floats(1e-6, 100.0))
    low = draw(st.floats(-100.0, 100.0))
    # full-mantissa values, where rounding differences between sums show
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.uniform(low, low + width, vh.n_sites + len(vh.shell)).tolist()
    return vh, kernel, values


@settings(max_examples=150, deadline=None)
@given(_volume_configurations())
def test_pair_sums_match_python_loop_bitwise(case):
    vh, kernel, values = case
    energy, psi = _loop_energies(vh.sites, vh.shell, kernel, values)
    assert hamiltonian(vh, np.array(values)) == energy
    assert psi_boundary(vh, np.array(values[vh.n_sites:])) == psi


def test_psi_squares_are_correctly_rounded():
    # boundary values whose square a float's ``** 2`` (C pow) rounds away
    # from the exact square, which x * x rounds correctly
    candidates = np.random.default_rng(3).uniform(-50.0, 50.0, 20_000).tolist()
    awkward = [x for x in candidates if x ** 2 != float(Fraction(x) ** 2)][:10] or candidates[:10]
    vh = build_matrices([(0,)], NN1)          # shell (-1,) and (1,), weights 1/2
    for left, right in zip(awkward[::2], awkward[1::2]):
        values = [0.0, left, right]
        exact = 0.0 + 0.5 * float(Fraction(left) ** 2) + 0.5 * float(Fraction(right) ** 2)
        assert psi_boundary(vh, values[1:]) == exact
        assert _loop_energies(vh.sites, vh.shell, NN1, values)[1] == exact


# ---------------------------------------------------------------------------
# Positive definiteness
# ---------------------------------------------------------------------------

def test_certificate_pair_volume():
    vh = build_matrices([(0,), (1,)], NN1)
    cert = pd_certificate(vh)
    offsets = [z for z, _, _ in cert.terms]
    assert offsets == [(1,)]
    assert cert.slack == 0.0
    t1 = toeplitz_matrix([(0,), (1,)], (1,))
    assert t1.tolist() == [[2.0, -1.0], [-1.0, 2.0]]
    assert np.max(np.abs(cert.reassemble() - vh.precision)) == 0.0
    # eigenvalue oracle for T_1 on two sites
    eigs = sorted(np.linalg.eigvalsh(t1))
    assert eigs == pytest.approx([1.0, 3.0], abs=1e-12)


def test_certificate_unrealized_offset_feeds_slack():
    kern = nearest_neighbor(1)
    # single site: the +1 offset is never realized inside the volume
    vh = build_matrices([(0,)], kern)
    cert = pd_certificate(vh)
    assert cert.terms == ()
    assert cert.slack == pytest.approx(2.0 * 0.5, abs=0)
    assert np.max(np.abs(cert.reassemble() - vh.precision)) == 0.0


def test_certificate_with_a_split_class_does_not_reassemble():
    # the 1-d nn certificate of four sites has one class, (0,) to (3,); split
    # in two it misses -J at the pair (1,), (2,), which the classes report
    vh = build_matrices([(0,), (1,), (2,), (3,)], NN1)
    cert = pd_certificate(vh)
    [(z, w, [chain])] = cert.terms
    assert np.max(np.abs(cert.reassemble() - vh.precision)) == 0.0
    split = dataclasses.replace(cert, terms=((z, w, (chain[:2], chain[2:])),))
    assert np.max(np.abs(split.reassemble() - vh.precision)) == w
    # so do a repeated class and a class that leaves a site out
    for classes in ((chain, chain), (chain[:3],)):
        spoiled = dataclasses.replace(cert, terms=((z, w, classes),))
        assert np.max(np.abs(spoiled.reassemble() - vh.precision)) > 0.0


def test_certificate_random_volumes():
    rng = np.random.default_rng(3)
    for _ in range(100):
        kern = random_kernel(rng)
        sites = random_volume(rng, kern.dimension, max_sites=6)
        vh = build_matrices(sites, kern)
        cert = pd_certificate(vh)
        assert np.max(np.abs(cert.reassemble() - vh.precision)) <= 1e-14
        # factorization succeeds, i.e. A is positive definite
        specification(vh, np.zeros(len(vh.shell)), UNIT)


# ---------------------------------------------------------------------------
# Progressions and the Toeplitz form
# ---------------------------------------------------------------------------

def test_classes_1d_examples():
    assert z_connected_classes([(0,), (1,), (2,), (5,)], (1,)) == [
        ((0,), (1,), (2,)), ((5,),)]
    assert z_connected_classes([(0,), (2,), (4,)], (2,)) == [((0,), (2,), (4,))]


@pytest.mark.parametrize("z", [(0,), [0], (0, 0)])
def test_classes_and_toeplitz_form_reject_a_zero_step(z):
    sites = [(0,) * len(z), (1,) * len(z)]
    with pytest.raises(ValueError, match="step offset must be nonzero"):
        z_connected_classes(sites, z)
    with pytest.raises(ValueError, match="step offset must be nonzero"):
        toeplitz_quadratic_form(sites, z, [1.0, 1.0])


def test_classes_2d_diagonal():
    sites = [(0, 0), (0, 1), (1, 0), (1, 1)]
    classes = z_connected_classes(sites, (1, 1))
    assert sorted(classes) == sorted([((0, 0), (1, 1)), ((0, 1),), ((1, 0),)])


def test_classes_partition_property():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = int(rng.integers(1, 3))
        sites = random_volume(rng, d, max_sites=8)
        z = tuple(int(c) for c in rng.integers(-2, 3, d))
        if not any(z):
            continue
        classes = z_connected_classes(sites, z)
        flat = [s for chain in classes for s in chain]
        assert sorted(flat) == sorted(sites)          # every site in exactly one class
        for chain in classes:
            for s, t in zip(chain, chain[1:]):
                assert tuple(b - a for a, b in zip(s, t)) == z


def test_toeplitz_form_hand_example():
    assert toeplitz_quadratic_form([(0,), (1,)], (1,), [1.0, 1.0]) == 2.0
    eta = np.array([1.0, 1.0])
    direct = eta @ toeplitz_matrix([(0,), (1,)], (1,)) @ eta
    assert direct == 2.0


def test_toeplitz_form_zero_vector():
    assert toeplitz_quadratic_form([(0,), (3,)], (1,), [0.0, 0.0]) == 0.0


def test_toeplitz_form_matches_dense_and_positive():
    rng = np.random.default_rng(13)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        sites = random_volume(rng, d, max_sites=6)
        z = tuple(int(c) for c in rng.integers(-2, 3, d))
        if not any(z):
            z = (1,) * d
        eta = rng.normal(size=len(sites))
        by_classes = toeplitz_quadratic_form(sites, z, eta)
        dense = float(eta @ toeplitz_matrix(sites, z) @ eta)
        assert abs(by_classes - dense) <= 1e-12
        if np.any(eta != 0.0):
            assert by_classes > 0.0
