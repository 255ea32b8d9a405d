"""Oracles and statistical verdicts.

Tensor-grid Simpson quadrature turns tiny volumes into exact reference
distributions (normalizer, marginal moments, marginal CDF tables).  The
integrand exp(-H) stays factored, one grid vector per site and one
(n_q + 1)^2 matrix per coupled site pair, contracted with the Simpson
weights, so memory grows with the coupled pairs, not as (n_q + 1)^sites.
Batch means turn equilibrium runs into estimates with honest errors, and a
KS distance compares a sample set against an oracle's CDF table.

The statistical pass rule is fixed at three standard errors with
batch-means SE so that exact identities are separated from Monte Carlo
noise by a stated, reproducible criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotTorus, TooFewSamples, VolumeTooLarge
from .finite_spec import VolumeHamiltonian
from .kernel import SpinInterval, _boundary_array
from .sampler import RunTrace, _local_means
from .streams import _check_count
from .truncnorm import _exp, varphi


@dataclass(frozen=True)
class StatVerdict:
    """An estimate against a target with a three-sigma pass flag."""

    name: str
    estimate: float
    se: float
    target: float
    z: float
    passed: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "estimate": self.estimate, "se": self.se,
                "target": self.target, "z": self.z, "pass": self.passed}


def _verdict(name, estimate, se, target) -> StatVerdict:
    diff = estimate - target
    z = 0.0 if diff == 0.0 else (diff / se if se > 0.0 else np.inf * np.sign(diff))
    return StatVerdict(name, float(estimate), float(se), float(target), float(z),
                       bool(abs(z) <= 3.0))


def batch_means_se(series, batches: int = 32) -> float:
    """Standard error of the series mean from non-overlapping batch means;
    at least 2 samples, and ``batches`` an integer >= 1, clamped to [2, samples]."""
    _check_count("batches", batches, least=1)
    series = np.asarray(series, dtype=float)
    if series.size < 2:
        raise TooFewSamples(f"batch means need at least 2 samples, got {series.size}")
    batches = max(2, min(batches, series.size))
    length = series.size // batches
    trimmed = series[:batches * length].reshape(batches, length)
    means = trimmed.mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(batches))


# ---------------------------------------------------------------------------
# Tensor-grid quadrature oracle
# ---------------------------------------------------------------------------

def _simpson_weights(n_intervals: int, step: float) -> np.ndarray:
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


_AXES = "abc"                    # one einsum index per volume site
MIN_N_Q = 64                     # the fewest Simpson subintervals quadrature_marginals accepts
MAX_ORACLE_SITES = 3             # the most sites quadrature_marginals accepts


def check_n_q(n_q) -> int:
    """``n_q`` if :func:`quadrature_marginals` takes it (even, >= MIN_N_Q), or ValueError."""
    _check_count("n_q", n_q, least=MIN_N_Q)
    if n_q % 2:
        raise ValueError(f"n_q must be an even subinterval count, got {n_q}")
    return n_q


def oracle_takes(n: int) -> bool:
    """Whether :func:`quadrature_marginals` takes a volume of ``n`` sites."""
    return n <= MAX_ORACLE_SITES


def check_oracle_volume(n: int) -> None:
    """Raise VolumeTooLarge unless :func:`oracle_takes` ``n`` sites."""
    if not oracle_takes(n):
        raise VolumeTooLarge(f"the quadrature oracle takes at most {MAX_ORACLE_SITES} sites, got {n}")


@dataclass(frozen=True, eq=False)
class QuadratureOracle:
    """Exact reference law of a tiny volume from composite Simpson quadrature;
    the per-site arrays, rows of ``marginal_cdfs`` included, follow ``sites``."""

    sites: tuple
    grid: np.ndarray             # n_q + 1 points per axis
    normalizer: float
    means: np.ndarray
    variances: np.ndarray
    marginal_cdfs: np.ndarray    # (n_sites, n_q + 1), CDF table on the grid


def quadrature_marginals(vh: VolumeHamiltonian, gamma, interval: SpinInterval,
                         n_q: int = 256) -> QuadratureOracle:
    """Integrate exp(-H) on the tensor grid over the spin box.

    ``n_q`` counts Simpson subintervals per axis (even, at least 64); the
    grid carries n_q + 1 points and doubles as the CDF table for distance
    tests.  Volumes above three sites are rejected: when every pair of four
    sites is coupled, any order of summing out the sites leaves a term in
    three grid variables, the (n_q + 1)^3 tensor the factored form avoids.
    ``vh`` is the volume's :func:`~truncgibbs.finite_spec.build_matrices`, ``gamma``
    a scalar, a shell-site mapping or a shell-order array in ``interval``.
    """
    check_n_q(n_q)
    k = vh.n_sites
    check_oracle_volume(k)
    gamma = _boundary_array(vh.shell, gamma, interval)

    grid = np.linspace(interval.a, interval.b, n_q + 1)
    wq = _simpson_weights(n_q, grid[1] - grid[0])

    # exp(-H) is a product of one factor per site (its cross pairs) and
    # one (n_q + 1)^2 factor per inside pair
    x, y, weights = vh.pairs
    cross = y >= k
    site_energy = np.zeros((k, n_q + 1))
    for i, s, w in zip(x[cross], y[cross] - k, weights[cross]):
        site_energy[i] += 0.5 * w * (grid - gamma[s]) ** 2
    site_weight = _exp(-site_energy)
    gap = (grid[:, None] - grid) ** 2
    links = [_exp(-0.5 * w * gap) for w in weights[~cross]]
    link_axes = [_AXES[i] + _AXES[j] for i, j in zip(x[~cross], y[~cross])]

    def contract(keep):
        """Simpson sum of exp(-H) over every axis but ``keep`` (None: all)."""
        factors = [u if i == keep else wq * u for i, u in enumerate(site_weight)]
        subscripts = ",".join([*_AXES[:k], *link_axes])
        out = "" if keep is None else _AXES[keep]
        return np.einsum(f"{subscripts}->{out}", *factors, *links, optimize=True)

    z = float(contract(None))
    means = np.empty(k)
    variances = np.empty(k)
    cdfs = np.empty((k, n_q + 1))
    for i in range(k):
        marginal = contract(i) / z                          # density on the grid
        means[i] = float(wq @ (grid * marginal))
        variances[i] = float(wq @ ((grid - means[i]) ** 2 * marginal))
        steps = 0.5 * (marginal[1:] + marginal[:-1]) * (grid[1] - grid[0])
        cdf = np.concatenate([[0.0], np.cumsum(steps)])
        cdfs[i] = cdf / cdf[-1]
    return QuadratureOracle(vh.sites, grid, z, means, variances, cdfs)


# ---------------------------------------------------------------------------
# The stationarity identity on the torus
# ---------------------------------------------------------------------------

_CHECK_MEANS = 1 << 14   # local means per row block of stationarity_check


def stationarity_check(trace: RunTrace, batches: int = 32) -> StatVerdict:
    """The verdict of an equilibrium identity of a translation-invariant chain.

    The time-and-space average of the mean shift evaluated at the chain's
    own clipped local means (:func:`~truncgibbs.sampler._local_means`)
    targets zero, with a batch-means standard error over the sweeps.  The
    means are read in blocks of whole sweeps, about ``_CHECK_MEANS`` means
    each, which bounds the memory; a sweep's mean shift is one row mean, so
    the blocks leave its bits.
    Requires the torus: the identity rests on translation invariance.
    """
    table, iv = trace.table, trace.interval
    if table.geometry.kind != "torus":
        raise NotTorus("stationarity identities require the torus geometry")
    fields = trace.fields                              # (T, n)
    block = max(1, _CHECK_MEANS // table.n_sites)
    shift_series = np.empty(len(fields))
    for lo in range(0, len(fields), block):
        means = _local_means(fields[lo:lo + block], table.idx, table.weights, iv.a, iv.b)
        shift_series[lo:lo + block] = varphi(means, iv).mean(axis=1)
    return _verdict("mean_shift_zero", shift_series.mean(),
                    batch_means_se(shift_series, batches), 0.0)


# ---------------------------------------------------------------------------
# Distribution distance
# ---------------------------------------------------------------------------

KS_MIN_SAMPLES = 100     # the fewest samples ks_distance accepts


def check_ks_samples(n_samples: int) -> None:
    """Raise TooFewSamples below KS_MIN_SAMPLES, the fewest :func:`ks_distance` accepts."""
    if n_samples < KS_MIN_SAMPLES:
        raise TooFewSamples(f"the KS distance needs at least {KS_MIN_SAMPLES} samples, "
                            f"got {n_samples}")


def ks_distance(samples, grid, cdf_values) -> float:
    """Sup over the grid of |empirical CDF - oracle CDF|."""
    samples = np.asarray(samples, dtype=float)
    check_ks_samples(samples.size)
    ecdf = np.searchsorted(np.sort(samples), grid, side="right") / samples.size
    return float(np.max(np.abs(ecdf - np.asarray(cdf_values, dtype=float))))
