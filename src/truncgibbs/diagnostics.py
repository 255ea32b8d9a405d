"""Oracles and statistical verdicts.

Tensor-grid Simpson quadrature turns tiny volumes into exact reference
distributions (normalizer, marginal moments, marginal CDF tables).  The
integrand exp(-H) stays factored, one grid vector per site and one
(n_q + 1)^2 matrix per coupled site pair, contracted with the Simpson
weights, so memory grows with the coupled pairs, not as (n_q + 1)^sites.
Batch means turn equilibrium runs into estimates with honest errors, and the
remaining helpers compare sample sets against oracles or against each
other under stochastic order.

The statistical pass rule is fixed at three standard errors with
batch-means SE so that exact identities are separated from Monte Carlo
noise by a stated, reproducible criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, NotTorus, TooFewSamples, VolumeTooLarge
from .finite_spec import VolumeHamiltonian, _boundary_vector, build_matrices
from .kernel import SpinInterval
from .sampler import RunTrace, _local_means
from .truncnorm import varphi


@dataclass(frozen=True)
class StatVerdict:
    """An estimate against a target with a three-sigma pass flag."""

    name: str
    estimate: float
    se: float
    target: float
    z: float
    passed: bool
    sided: str = "two"       # "two": |z| <= 3; "upper": estimate <= target + 3 se

    def as_dict(self) -> dict:
        return {"name": self.name, "estimate": self.estimate, "se": self.se,
                "target": self.target, "z": self.z, "pass": self.passed}


def _verdict(name, estimate, se, target, sided="two") -> StatVerdict:
    diff = estimate - target
    z = 0.0 if diff == 0.0 else (diff / se if se > 0.0 else np.inf * np.sign(diff))
    passed = (abs(z) <= 3.0) if sided == "two" else (z <= 3.0)
    return StatVerdict(name, float(estimate), float(se), float(target), float(z),
                       bool(passed), sided)


def batch_means_se(series, batches: int = 32) -> float:
    """Standard error of the series mean from non-overlapping batch means;
    at least 2 samples."""
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


@dataclass(frozen=True, eq=False)
class QuadratureOracle:
    """Exact reference law of a tiny volume from composite Simpson quadrature."""

    sites: tuple
    boundary: np.ndarray
    interval: SpinInterval
    n_q: int
    grid: np.ndarray             # n_q + 1 points per axis
    normalizer: float
    means: np.ndarray
    variances: np.ndarray
    marginal_cdfs: np.ndarray    # (n_sites, n_q + 1), CDF table on the grid

    def marginal_cdf(self, site_index: int) -> np.ndarray:
        return self.marginal_cdfs[site_index]


def quadrature_marginals(volume, gamma, kernel, interval: SpinInterval,
                         n_q: int = 256) -> QuadratureOracle:
    """Integrate exp(-H) on the tensor grid over the spin box.

    ``n_q`` counts Simpson subintervals per axis (even, at least 64); the
    grid carries n_q + 1 points and doubles as the CDF table for distance
    tests.  Volumes above three sites are rejected: when every pair of four
    sites is coupled, any order of summing out the sites leaves a term in
    three grid variables, the (n_q + 1)^3 tensor the factored form avoids.
    ``volume`` is a list of sites or their already-built VolumeHamiltonian.
    """
    if n_q < 64 or n_q % 2:
        raise ValueError("n_q must be an even subinterval count of at least 64")
    vh = volume if isinstance(volume, VolumeHamiltonian) else build_matrices(volume, kernel)
    k = vh.n_sites
    if k > 3:
        raise VolumeTooLarge(f"tensor grid over {k} sites is not tractable (limit 3)")
    gamma = _boundary_vector(vh, gamma)

    grid = np.linspace(interval.a, interval.b, n_q + 1)
    wq = _simpson_weights(n_q, grid[1] - grid[0])

    # exp(-H) is a product of one factor per site (its cross pairs) and
    # one (n_q + 1)^2 factor per inside pair
    site_energy = np.zeros((k, n_q + 1))
    for i, s, w in zip(*vh.cross_pairs):
        site_energy[i] += 0.5 * w * (grid - gamma[s]) ** 2
    site_weight = np.exp(-site_energy)
    first, second, weights = vh.inside_pairs
    gap = (grid[:, None] - grid) ** 2
    links = [np.exp(-0.5 * w * gap) for w in weights]
    link_axes = [_AXES[i] + _AXES[j] for i, j in zip(first, second)]

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
    return QuadratureOracle(vh.sites, gamma, interval, n_q, grid, z,
                            means, variances, cdfs)


# ---------------------------------------------------------------------------
# Stationarity identities on the torus
# ---------------------------------------------------------------------------

def stationarity_check(trace: RunTrace, batches: int = 32):
    """Verdicts for two equilibrium identities of a translation-invariant chain.

    The time-and-space average of the mean shift evaluated at the local
    mean targets zero, and the local-mean field targets the field average
    (the kernel weights sum to one).  Standard errors come from batch
    means over the sweep series.  Requires the torus: the identities rest
    on translation invariance.

    On the torus the balance holds exactly for every field, so its series
    is rounding residue alone, often nearly constant; its standard error
    is floored at the rounding of a K-term local mean and one difference,
    (K + 2) eps max(|a|, |b|), so that residue does not fail the verdict.
    """
    table = trace.table
    if table.geometry.kind != "torus":
        raise NotTorus("stationarity identities require the torus geometry")
    fields = trace.fields                              # (T, n)
    local_means = _local_means(fields, table.idx, table.weights)
    shift_series = varphi(local_means, trace.interval).mean(axis=1)
    balance_series = (local_means - fields).mean(axis=1)
    shift = _verdict("mean_shift_zero", shift_series.mean(),
                     batch_means_se(shift_series, batches), 0.0)
    iv = trace.interval
    rounding = (table.idx.shape[1] + 2) * np.finfo(float).eps * max(abs(iv.a), abs(iv.b))
    balance = _verdict("local_mean_balance", balance_series.mean(),
                       max(batch_means_se(balance_series, batches), rounding), 0.0)
    return shift, balance


# ---------------------------------------------------------------------------
# Stochastic domination and distribution distance
# ---------------------------------------------------------------------------

def _increasing_functionals(n_sites: int):
    funcs = [("site_average", lambda s: s.mean(axis=1)),
             ("site_max", lambda s: s.max(axis=1)),
             ("sum_exp", lambda s: np.exp(s).sum(axis=1))]
    for j in range(n_sites):
        funcs.append((f"site_{j}", lambda s, j=j: s[:, j]))
    return funcs


def domination_check(samples_low, samples_high, functionals=None):
    """One-sided verdicts that every increasing functional is ordered in mean.

    Both sample sets must share a geometry (same column layout).  Each
    verdict passes when mean f(low) <= mean f(high) + 3 pooled SE; equal
    sample sets give exact zeros.
    """
    samples_low = np.asarray(samples_low, dtype=float)
    samples_high = np.asarray(samples_high, dtype=float)
    if samples_low.ndim != 2 or samples_low.shape[1] != samples_high.shape[1]:
        raise GeometryMismatch("sample sets do not share a site layout")
    if functionals is None:
        functionals = _increasing_functionals(samples_low.shape[1])
    verdicts = []
    for name, f in functionals:
        lo, hi = f(samples_low), f(samples_high)
        se = float(np.sqrt(lo.var(ddof=1) / lo.size + hi.var(ddof=1) / hi.size))
        verdicts.append(_verdict(f"dominated[{name}]", lo.mean() - hi.mean(), se,
                                 0.0, sided="upper"))
    return verdicts


def ks_distance(samples, grid, cdf_values) -> float:
    """Sup over the grid of |empirical CDF - oracle CDF|."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 100:
        raise TooFewSamples(f"need at least 100 samples, got {samples.size}")
    ecdf = np.searchsorted(np.sort(samples), grid, side="right") / samples.size
    return float(np.max(np.abs(ecdf - np.asarray(cdf_values, dtype=float))))
