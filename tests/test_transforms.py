import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncgibbs.errors import IncompatiblePartition, NonpositiveBeta, OutOfRange
from truncgibbs.finite_spec import build_matrices, hamiltonian
from truncgibbs.kernel import SpinInterval, build_kernel, exp_decay, nearest_neighbor
from truncgibbs.streams import uniform_configurations
from truncgibbs.transforms import (
    af_specification_probe,
    beta_scaling_check,
)

NN1 = nearest_neighbor(1)
UNIT = SpinInterval(0.0, 1.0)


# ---------------------------------------------------------------------------
# Inverse-temperature rescaling
# ---------------------------------------------------------------------------

def test_beta_one_residual_zero():
    vh = build_matrices([(0,), (1,)], NN1)
    assert beta_scaling_check(vh, UNIT, [1.0], trials=20, seed=0) == [0.0]


def test_beta_constant_configuration_both_sides_zero():
    vh = build_matrices([(0,), (1,)], NN1)
    xi = np.full(4, 0.6)
    beta = 4.0
    assert hamiltonian(vh, xi) == 0.0
    assert hamiltonian(vh, np.sqrt(beta) * xi) == 0.0


@pytest.mark.parametrize("beta", [0.25, 1.0, 2.5, 10.0])
def test_beta_scaling_residual_bound(beta):
    [residual] = beta_scaling_check(build_matrices([(0,), (1,), (2,)], NN1), UNIT, [beta],
                                    trials=100, seed=1)
    assert residual <= 1e-10


def reference_beta_residuals(vh, interval, betas, trials, seed):
    """One pass over the configurations per beta, as the check ran before it
    drew them once for every beta."""
    size = vh.n_sites + len(vh.shell)
    worst = []
    for beta in betas:
        root, residual = np.sqrt(beta), 0.0
        for xi in uniform_configurations(seed, "beta-check", interval, size, trials):
            residual = max(residual, abs(beta * hamiltonian(vh, xi) - hamiltonian(vh, root * xi)))
        worst.append(residual)
    return worst


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([([(0,), (1,), (2,)], NN1),
                        ([(i, j) for i in range(4) for j in range(3)], exp_decay(0.5, 2, 2)),
                        ([(0,), (2,), (3,)], exp_decay(1.0, 3))]),
       st.lists(st.floats(1e-6, 1e6), max_size=5),
       st.sampled_from([UNIT, SpinInterval(-1.0, 1.0), SpinInterval(0.0, 10.0)]),
       st.integers(0, 12), st.integers(0, 2**64 - 1))
def test_multi_beta_check_equals_a_loop_per_beta(case, betas, interval, trials, seed):
    vh = build_matrices(*case)
    got = beta_scaling_check(vh, interval, betas, trials=trials, seed=seed)
    want = reference_beta_residuals(vh, interval, betas, trials, seed)
    assert [r.hex() for r in got] == [r.hex() for r in want]
    # tuples and arrays are sequences too
    assert beta_scaling_check(vh, interval, tuple(betas), trials, seed) == got
    assert beta_scaling_check(vh, interval, np.array(betas, dtype=float), trials, seed) == got


def test_beta_sequence_is_the_one_input_form():
    vh = build_matrices([(0,), (1,)], NN1)
    with pytest.raises(TypeError):
        beta_scaling_check(vh, UNIT, 2.0, trials=3)
    assert beta_scaling_check(vh, UNIT, [], trials=3) == []


def test_beta_must_be_positive():
    vh = build_matrices([(0,)], NN1)
    with pytest.raises(NonpositiveBeta, match=r"^betas\[0\]: "):
        beta_scaling_check(vh, UNIT, [0.0], trials=1)
    with pytest.raises(NonpositiveBeta, match=r"^betas\[1\]: "):
        beta_scaling_check(vh, UNIT, [1.0, -2.0], trials=1)
    # inf * H(xi) - H(inf * xi) is inf - inf: a RuntimeWarning, not a residual
    for beta in (np.inf, -np.inf, np.nan):
        with pytest.raises(NonpositiveBeta, match="must be a finite number > 0"):
            beta_scaling_check(vh, UNIT, [beta], trials=5)


@pytest.mark.parametrize("volume, kernel, interval", [
    ([(i, j) for i in range(20) for j in range(20)], exp_decay(0.5, 2, 2), UNIT),
    ([(0,), (1,)], NN1, SpinInterval(0.0, 10.0)),
])
def test_beta_beyond_float_range_is_out_of_range(volume, kernel, interval):
    # beta H(xi) and H(sqrt(beta) xi) overflow to inf and their difference is
    # NaN, which a max over residuals would drop; raised, with no warning
    vh = build_matrices(volume, kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match=r"^betas\[0\]: .* is not finite at beta = 1e\+308$"):
            beta_scaling_check(vh, interval, [1e308], trials=3)
        # the first beta that overflows is named by its position, not the first overflow drawn
        with pytest.raises(OutOfRange, match=r"^betas\[1\]: .* at beta = 1e\+308$"):
            beta_scaling_check(vh, interval, [1.0, 1e308, 2.0, 1e307], trials=3)


# ---------------------------------------------------------------------------
# Reflection probe
# ---------------------------------------------------------------------------

def test_probe_single_trial_spread_is_zero():
    report = af_specification_probe(build_matrices([(0,), (1,)], NN1), np.array([0.2, 0.8]),
                                    UNIT, trials=1, seed=0)
    assert report.spread == 0.0
    assert report.deltas.shape == (1,)


def test_probe_single_free_site_matches_direct_evaluation():
    # one interior site, both neighbors frozen: evaluate the energy
    # difference by hand through the pair sums and compare per trial
    volume = [(0,)]
    gamma = np.array([0.3, 0.9])
    vh = build_matrices(volume, NN1)
    report = af_specification_probe(vh, gamma, UNIT, trials=25, seed=7)
    from truncgibbs.streams import derive_key, uniforms
    key = derive_key(7, "af-probe")
    for trial, delta in enumerate(report.deltas):
        u = uniforms(key, np.arange(trial, trial + 1, dtype=np.uint64))
        eta = 0.0 + 1.0 * u
        xi = np.concatenate([eta, gamma])
        reflected = xi.copy()
        reflected[1:] = 1.0 - reflected[1:]      # shell sites -1, 1 are both odd
        assert delta == pytest.approx(-hamiltonian(vh, reflected) - hamiltonian(vh, xi),
                                      abs=0)


def test_probe_spread_generally_nonzero():
    # for the gradient pair energy the reflected difference depends on the
    # interior spins, and the probe documents exactly that
    report = af_specification_probe(build_matrices([(0,), (1,)], NN1), np.array([0.5, 0.5]),
                                    UNIT, trials=100, seed=3)
    assert report.spread > 1e-3


def test_probe_deterministic():
    vh = build_matrices([(0,), (1,)], NN1)
    a = af_specification_probe(vh, np.array([0.2, 0.8]), UNIT, trials=50, seed=12)
    b = af_specification_probe(vh, np.array([0.2, 0.8]), UNIT, trials=50, seed=12)
    assert np.array_equal(a.deltas, b.deltas)


def test_probe_rejects_in_class_coupling():
    # next-nearest-neighbor couplings connect sites of equal parity
    k2 = build_kernel(1, {(2,): 1.0, (-2,): 1.0})
    vh = build_matrices([(0,), (1,)], k2)
    with pytest.raises(IncompatiblePartition):
        af_specification_probe(vh, np.zeros(len(vh.shell)), UNIT, trials=5)
