"""Reduction identities: inverse-temperature rescaling and the bipartite
spin reflection.

Rescaling is exact: beta times the pair energy of a configuration equals
the pair energy of the configuration scaled by sqrt(beta), so any inverse
temperature reduces to the unit one with a rescaled spin interval.  The
reflection flips spins about the interval midpoint on one class of a
bipartition, the classical bridge between attractive and repulsive
couplings; whether it maps the gradient-form conditional densities into
each other exactly is measured, not asserted, by the probe below, which
reports the spread of the energy difference over random configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatiblePartition, NonpositiveBeta
from .finite_spec import VolumeHamiltonian, _boundary_vector, build_matrices, hamiltonian
from .kernel import SpinInterval
from .sampler import FieldConfiguration
from .streams import uniform_configurations


@dataclass(frozen=True)
class BipartitePartition:
    """A two-coloring of sites under which the kernel couples only across colors."""

    classifier: object          # site tuple -> 0 or 1

    @classmethod
    def parity(cls) -> "BipartitePartition":
        """Color by the parity of the coordinate sum (the usual checkerboard)."""
        return cls(lambda site: sum(site) & 1)

    def side(self, site) -> int:
        return int(self.classifier(tuple(site))) & 1


def _check_partition(vh: VolumeHamiltonian, partition: BipartitePartition) -> np.ndarray:
    """Every coupled pair must straddle the two classes; returns each site's
    class, volume sites then shell."""
    every = vh.sites + vh.shell
    side = np.array([partition.side(s) for s in every])
    (i, j, _), (c, s, _) = vh.inside_pairs, vh.cross_pairs
    first, second = np.concatenate([i, c]), np.concatenate([j, vh.n_sites + s])
    clash = np.flatnonzero(side[first] == side[second])
    if clash.size:
        x, y = every[first[clash[0]]], every[second[clash[0]]]
        raise IncompatiblePartition(f"sites {x} and {y} are coupled but share a class")
    return side


def reflect(field: FieldConfiguration, partition: BipartitePartition) -> FieldConfiguration:
    """Map spins on the second class to a + b - value, everywhere (boundary too).

    An involution that preserves the spin interval; the first class is
    untouched.
    """
    out = field.copy()
    iv = field.interval
    pivot = iv.a + iv.b
    sites = list(field.table.sites) + list(field.table.shell)
    flip = np.array([partition.side(s) == 1 for s in sites])
    out.values[flip] = pivot - out.values[flip]
    out.values[:] = np.clip(out.values, iv.a, iv.b)
    return out


def beta_scaling_check(volume, kernel, interval: SpinInterval, beta: float,
                       trials: int, seed: int = 0) -> float:
    """Max over random configurations of |beta H(xi) - H(sqrt(beta) xi)|.

    An exact algebraic identity for the quadratic pair energy; the
    returned residual is float noise only (at most around 1e-10 at desk
    scales).  The scaled configuration lives in the scaled interval.
    ``volume`` is a list of sites or their already-built VolumeHamiltonian.
    """
    if not beta > 0.0:
        raise NonpositiveBeta(f"beta must be positive, got {beta}")
    vh = volume if isinstance(volume, VolumeHamiltonian) else build_matrices(volume, kernel)
    root = np.sqrt(beta)
    worst = 0.0
    for xi in uniform_configurations(seed, "beta-check", interval,
                                     vh.n_sites + len(vh.shell), trials):
        worst = max(worst, abs(beta * hamiltonian(vh, xi) - hamiltonian(vh, root * xi)))
    return worst


@dataclass(frozen=True, eq=False)
class ReflectionProbeReport:
    """Per-trial energy differences under the reflection, and their spread."""

    deltas: np.ndarray           # H_tilde(R(eta gamma)) - H(eta gamma), one per trial
    mean: float
    spread: float                # max |delta - mean|; zero would mean an exact density map


def af_specification_probe(volume, gamma, kernel, interval: SpinInterval,
                           partition: BipartitePartition, trials: int,
                           seed: int = 0) -> ReflectionProbeReport:
    """Measure how far the reflection is from an exact conditional-density map.

    The repulsive-coupling energy of the reflected configuration minus the
    attractive-coupling energy of the original would have to be constant
    in the interior spins for the reflection to carry one conditional law
    onto the other.  The probe evaluates that difference over random
    interior configurations at a fixed boundary and reports the spread;
    it asserts nothing about the outcome.  ``volume`` is a list of sites or
    their already-built VolumeHamiltonian.
    """
    vh = volume if isinstance(volume, VolumeHamiltonian) else build_matrices(volume, kernel)
    flip_sites = _check_partition(vh, partition) == 1
    gamma = _boundary_vector(vh, gamma)

    pivot = interval.a + interval.b
    deltas = np.empty(trials)
    configurations = uniform_configurations(seed, "af-probe", interval, vh.n_sites, trials)
    for trial, eta in enumerate(configurations):
        xi = np.concatenate([eta, gamma])
        reflected = np.where(flip_sites, pivot - xi, xi)
        # couplings negated: the reflected-configuration energy enters with a minus
        deltas[trial] = -hamiltonian(vh, reflected) - hamiltonian(vh, xi)
    mean = float(deltas.mean())
    return ReflectionProbeReport(deltas, mean, float(np.max(np.abs(deltas - mean))) if trials else 0.0)
