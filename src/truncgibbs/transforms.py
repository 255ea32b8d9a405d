"""Reduction identities: inverse-temperature rescaling, and a probe of the
parity spin reflection.

Rescaling is exact: beta times the pair energy of a configuration equals
the pair energy of the configuration scaled by sqrt(beta), so any inverse
temperature reduces to the unit one with a rescaled spin interval.  The
reflection flips spins about the interval midpoint on the sites of odd
coordinate sum, the classical bridge between attractive and repulsive
couplings; whether it maps the gradient-form conditional densities into
each other exactly is measured, not asserted, by the probe below, which
reports the spread of the energy difference over random configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatiblePartition, NonpositiveBeta, OutOfRange
from .finite_spec import VolumeHamiltonian, hamiltonian
from .kernel import SpinInterval, _boundary_array
from .streams import _check_count, uniform_configurations


def _check_partition(vh: VolumeHamiltonian) -> np.ndarray:
    """Every coupled pair must join sites of opposite parity; returns each
    site's parity (coordinate sum & 1), volume sites then shell."""
    every = vh.sites + vh.shell
    side = np.array([sum(s) & 1 for s in every])
    x, y, _ = vh.pairs
    clash = np.flatnonzero(side[x] == side[y])
    if clash.size:
        k = clash[0]
        raise IncompatiblePartition(f"sites {every[x[k]]} and {every[y[k]]} are coupled "
                                    "but share a class")
    return side


def beta_scaling_check(vh: VolumeHamiltonian, interval: SpinInterval, betas,
                       trials: int, seed: int = 0) -> list:
    """Per beta of the sequence ``betas``, the max over random configurations
    of |beta H(xi) - H(sqrt(beta) xi)|, as a list in the order of ``betas``.

    An exact algebraic identity for the quadratic pair energy; each
    residual is float noise only (at most around 1e-10 at desk scales).
    The scaled configuration lives in the scaled interval.  The ``trials``
    configurations (an integer >= 1, or ValueError) are drawn once and
    serve every beta, so H(xi) is evaluated once per configuration and
    H(sqrt(beta) xi) once per beta.
    ``vh`` is the volume's :func:`~truncgibbs.finite_spec.build_matrices`.
    A beta that is not a finite number > 0 raises NonpositiveBeta, and the
    first beta at which either energy leaves the float range raises
    OutOfRange; both messages start with its position, ``betas[k]``.
    """
    _check_count("trials", trials, least=1)
    betas = list(betas)
    for k, beta in enumerate(betas):
        if not 0.0 < beta < np.inf:       # NaN too
            raise NonpositiveBeta(f"betas[{k}]: must be a finite number > 0, got {beta}")
    roots = np.sqrt(betas)
    configurations = uniform_configurations(seed, "beta-check", interval,
                                            vh.n_sites + len(vh.shell), trials)
    residuals = np.empty((trials, len(betas)))
    with np.errstate(over="ignore"):            # reported below, not warned
        for row, xi in zip(residuals, configurations):
            energy = hamiltonian(vh, xi)
            row[:] = [abs(beta * energy - hamiltonian(vh, root * xi))
                      for beta, root in zip(betas, roots)]
    for k, beta in enumerate(betas):
        if not np.all(residuals[:, k] < np.inf):      # inf or NaN: an energy overflowed
            raise OutOfRange(f"betas[{k}]: beta H(xi) or H(sqrt(beta) xi) is not finite "
                             f"at beta = {beta}")
    return residuals.max(axis=0).tolist()


@dataclass(frozen=True, eq=False)
class ReflectionProbeReport:
    """Per-trial energy differences under the reflection, and their spread."""

    deltas: np.ndarray           # H_tilde(R(eta gamma)) - H(eta gamma), one per trial
    mean: float
    spread: float                # max |delta - mean|; zero would mean an exact density map


def af_specification_probe(vh: VolumeHamiltonian, gamma, interval: SpinInterval,
                           trials: int, seed: int = 0) -> ReflectionProbeReport:
    """Measure how far the reflection is from an exact conditional-density map.

    The repulsive-coupling energy of the reflected configuration minus the
    attractive-coupling energy of the original would have to be constant
    in the interior spins for the reflection to carry one conditional law
    onto the other.  The probe evaluates that difference over random
    interior configurations (``trials``, an integer >= 1, or ValueError) at
    a fixed boundary and reports the spread; it asserts nothing about the
    outcome; a kernel that couples two sites of one parity raises
    IncompatiblePartition.  ``vh`` is the volume's
    :func:`~truncgibbs.finite_spec.build_matrices`; ``gamma`` is a scalar, a
    shell-site mapping or a shell-order array, every value in ``interval``.
    """
    _check_count("trials", trials, least=1)
    flip_sites = _check_partition(vh) == 1
    gamma = _boundary_array(vh.shell, gamma, interval)

    pivot = interval.a + interval.b
    deltas = np.empty(trials)
    configurations = uniform_configurations(seed, "af-probe", interval, vh.n_sites, trials)
    for trial, eta in enumerate(configurations):
        xi = np.concatenate([eta, gamma])
        reflected = np.where(flip_sites, pivot - xi, xi)
        # couplings negated: the reflected-configuration energy enters with a minus
        deltas[trial] = -hamiltonian(vh, reflected) - hamiltonian(vh, xi)
    mean = float(deltas.mean())
    return ReflectionProbeReport(deltas, mean, float(np.max(np.abs(deltas - mean))))
