"""Exact finite-volume computations.

For a finite volume of sites with frozen exterior values, this module
builds the pair Hamiltonian (half the weighted sum of squared differences
over pairs meeting the volume, each unordered pair counted once), the
precision matrix A and cross matrix B of the conditional Gaussian, the
conditional mean and covariance, and a constructive certificate that A is
positive definite assembled from shifted-difference Toeplitz blocks.

With the kernel normalized, A has the kernel norm on the diagonal and
-J(y - x) off the diagonal; this is exactly the Hessian of the pair
Hamiltonian, so the conditional law with boundary values gamma is the
multivariate normal with mean A^{-1} B gamma and covariance A^{-1},
truncated to the spin box.

A, B, the pair list and the certificate's progressions come from the
neighbour index that also gives the box shells and neighbour tables, so
matrices and dynamics see one set of pairs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import MissingSite, NotPositiveDefinite
from .kernel import (InteractionKernel, SpinInterval, _boundary_array, _neighbour_index,
                     _sorted_sites)


@dataclass(frozen=True, eq=False)
class VolumeHamiltonian:
    """Pair structure and Gaussian matrices of one finite volume."""

    sites: tuple                 # lexicographically ordered volume sites
    shell: tuple                 # exterior sites within kernel range
    kernel: InteractionKernel
    precision: np.ndarray        # A, |V| x |V| symmetric positive definite
    cross: np.ndarray            # B, |V| x |shell|, entries J(y - x) >= 0
    pairs: tuple                 # arrays (x, y, weight) into sites + shell, each pair meeting
                                 # the volume once: interior pairs (x < y), then cross (y >= |V|)

    @property
    def n_sites(self) -> int:
        return len(self.sites)


def build_matrices(volume, kernel: InteractionKernel) -> VolumeHamiltonian:
    """Populate A, B and the pair list for a finite volume of Z^d, whose
    shell is every outside site the kernel reaches; ``_sorted_sites`` checks the sites."""
    sites = _sorted_sites(volume, kernel.dimension)
    idx, shell = _neighbour_index(sites, kernel.offsets)
    n = len(sites)
    rows = np.broadcast_to(np.arange(n)[:, None], idx.shape)
    weights = np.broadcast_to(kernel.weights, idx.shape)
    inside, cross = idx < n, idx >= n
    # each entry is hit by one offset at most (the offsets are distinct), and 0.0 - w is -w
    a_mat = np.diag(np.full(n, kernel.norm))
    a_mat[rows[inside], idx[inside]] = -weights[inside]
    b_mat = np.zeros((n, len(shell)))
    b_mat[rows[cross], idx[cross] - n] = weights[cross]
    upper = inside & (idx > rows)       # each unordered interior pair once
    pairs = tuple(np.concatenate([a[upper], a[cross]]) for a in (rows, idx, weights))
    return VolumeHamiltonian(sites, shell, kernel, a_mat, b_mat, pairs)


def _sequential_sum(terms) -> float:
    """Left-to-right sum from 0.0, the rounding of a plain accumulation loop."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def _full_values(vh: VolumeHamiltonian, xi) -> np.ndarray:
    """A flat float array over volume sites then shell; any other shape, a
    site mapping included, raises MissingSite."""
    want = vh.n_sites + len(vh.shell)
    if np.shape(xi) != (want,):         # a site mapping too: its shape is ()
        raise MissingSite(f"expected {want} values (volume then shell), got shape {np.shape(xi)}")
    return np.asarray(xi, dtype=float)


def hamiltonian(vh: VolumeHamiltonian, xi) -> float:
    """Direct pair sum: half of J(y-x)(xi(x) - xi(y))^2 over pairs meeting the volume.

    Non-negative, and zero exactly when xi is constant on every coupled
    component meeting the volume.  This is the route independent of the
    matrices, kept separate so the quadratic-form identity is a real check.
    ``xi`` is one array: the values at ``vh.sites``, then at ``vh.shell``.
    """
    xi = _full_values(vh, xi)
    x, y, w = vh.pairs
    d = xi[x] - xi[y]
    return _sequential_sum(0.5 * w * d * d)


def psi_boundary(vh: VolumeHamiltonian, gamma) -> float:
    """The boundary-only term: sum over cross pairs of J(y-x) gamma(y)^2.

    ``gamma`` is a scalar, a shell-site mapping or a shell-order array, read
    as :func:`specification` reads it but with no range check.
    """
    gamma = _boundary_array(vh.shell, gamma, None)
    _, y, w = vh.pairs
    cross = y >= vh.n_sites
    return _sequential_sum(w[cross] * np.square(gamma[y[cross] - vh.n_sites]))


def quadratic_form(vh: VolumeHamiltonian, eta, gamma) -> float:
    """The matrix route: eta'A eta / 2 - eta'B gamma + psi(gamma) / 2.

    Agrees with :func:`hamiltonian` on the juxtaposed configuration; the
    pair of routes is the working identity behind the conditional law.
    ``eta`` is an array in volume-site order; ``gamma`` takes the forms of
    :func:`psi_boundary`.
    """
    if np.shape(eta) != (vh.n_sites,):      # a site mapping too: its shape is ()
        raise MissingSite(f"expected {vh.n_sites} volume values, got shape {np.shape(eta)}")
    eta = np.asarray(eta, dtype=float)
    gamma = _boundary_array(vh.shell, gamma, None)
    return float(0.5 * eta @ vh.precision @ eta - eta @ (vh.cross @ gamma)
                 + 0.5 * psi_boundary(vh, gamma))


@dataclass(frozen=True, eq=False)
class GaussianSpecification:
    """Mean and covariance of the conditional Gaussian before truncation."""

    mean: np.ndarray
    covariance: np.ndarray
    solve_residual: float        # max |A m - B gamma|, at most 1e-10


def specification(vh: VolumeHamiltonian, gamma, interval: SpinInterval) -> GaussianSpecification:
    """Solve A m = B gamma and Sigma = A^{-1} through a Cholesky factorization;
    ``gamma`` is a scalar, a shell-site mapping or a shell-order array in ``interval``."""
    gamma = _boundary_array(vh.shell, gamma, interval)
    try:
        factor = cho_factor(vh.precision, lower=True)
    except LinAlgError as err:
        raise NotPositiveDefinite(f"precision matrix is not positive definite: {err}") from None
    rhs = vh.cross @ gamma
    m = cho_solve(factor, rhs)
    residual = float(np.max(np.abs(vh.precision @ m - rhs)))
    if residual > 1e-10:
        raise NotPositiveDefinite(f"solve residual {residual:.3e} exceeds 1e-10")
    sigma = cho_solve(factor, np.eye(vh.n_sites))
    sigma = 0.5 * (sigma + sigma.T)
    return GaussianSpecification(m, sigma, residual)


# ---------------------------------------------------------------------------
# Positive-definiteness certificate
# ---------------------------------------------------------------------------

def _progressions(fwd, back, n):
    """Maximal progressions as lists of site indices, by first site: each starts
    where column ``back`` leaves the volume (index n or more), then follows ``fwd``."""
    fwd, chains = fwd.tolist(), []
    for i in np.flatnonzero(back >= n).tolist():
        chains.append([i])
        while (i := fwd[i]) < n:
            chains[-1].append(i)
    return chains


def _step_progressions(volume, z):
    """The sorted sites and their progressions of step z, from the z and -z columns:
    the one step check (z = 0 raises ValueError), sites checked in z's dimension."""
    z = tuple(map(operator.index, z))
    if not any(z):
        raise ValueError("step offset must be nonzero")
    sites = _sorted_sites(volume, len(z))
    idx, _ = _neighbour_index(sites, (z, tuple(-c for c in z)))
    return sites, _progressions(idx[:, 0], idx[:, 1], len(sites))


def z_connected_classes(volume, z):
    """Partition the volume into maximal arithmetic progressions with step z,
    walked along the neighbour-index columns of z and -z."""
    sites, chains = _step_progressions(volume, z)
    return [tuple(sites[i] for i in chain) for chain in chains]


def _add_toeplitz(out, chains, w) -> np.ndarray:
    """Add w T_z to ``out`` from the progressions of a nonzero step z (index lists):
    2w at each site and -w at each consecutive pair, both ways round, each entry once."""
    every = [i for chain in chains for i in chain]
    np.add.at(out, (every, every), 2.0 * w)
    head = [i for chain in chains for i in chain[:-1]]
    tail = [i for chain in chains for i in chain[1:]]
    np.subtract.at(out, (head + tail, tail + head), w)
    return out


def toeplitz_matrix(volume, z) -> np.ndarray:
    """Dense T_z: 2 on the diagonal, -1 where sites differ by plus or minus the nonzero
    step z, from its progressions as :meth:`PDCertificate.reassemble` builds each term."""
    sites, chains = _step_progressions(volume, z)
    return _add_toeplitz(np.zeros((len(sites), len(sites))), chains, 1.0)


def toeplitz_quadratic_form(volume, z, eta) -> float:
    """eta' T_z eta through the progression decomposition.

    Telescoping squared differences along each progression (from the
    neighbour-index columns of z and -z) plus the two endpoint squares, doubled
    for singletons; positive for any nonzero eta, which certifies T_z, and A.
    """
    _, chains = _step_progressions(volume, z)
    eta = np.asarray(eta, dtype=float)
    total = 0.0
    for chain in chains:
        vals = eta[chain]
        if len(vals) == 1:
            total += 2.0 * vals[0] ** 2
        else:
            total += float(np.sum(np.diff(vals) ** 2)) + vals[0] ** 2 + vals[-1] ** 2
    return float(total)


@dataclass(frozen=True, eq=False)
class PDCertificate:
    """Constructive decomposition A = slack I + sum J(z) T_z.

    For the gradient-form precision matrix the Toeplitz diagonals and the
    slack carry the full kernel norm, so no per-site diagonal remains.
    ``terms`` holds one (offset, weight, classes) triple per realized
    positive half-offset in the kernel support.
    """

    sites: tuple
    slack: float
    terms: tuple

    def reassemble(self) -> np.ndarray:
        """A rebuilt from the certificate's own classes: slack I, then per
        term, in term order, J(z) T_z from its classes by the construction
        :func:`toeplitz_matrix` uses: 2 J(z) at each site of a class and
        -J(z) at each consecutive pair of a class, both ways round.

        This is slack I + sum J(z) T_z bit for bit: no off-diagonal entry
        takes -J(z) from two terms (a pair of sites differs by one offset),
        and the dense T_z only adds +0.0 elsewhere.  So a certificate whose
        classes miss, repeat or split a progression does not reassemble A.
        """
        index = {site: i for i, site in enumerate(self.sites)}
        out = self.slack * np.eye(len(self.sites))
        for _z, w, classes in self.terms:
            _add_toeplitz(out, [[index[site] for site in chain] for chain in classes], w)
        return out


def pd_certificate(vh: VolumeHamiltonian) -> PDCertificate:
    """Certify positive definiteness of A constructively.

    The positive half-space is the lexicographically positive offsets.
    Support offsets realized as differences within the volume contribute a
    Toeplitz term over the progressions of its neighbour-index columns;
    unrealized ones add 2 J(z) to the slack on I.  Reassembly reproduces A entrywise.
    """
    sites, n = vh.sites, vh.n_sites
    idx = _neighbour_index(sites, vh.kernel.offsets)[0]
    slack = 0.0
    terms = []
    # the offsets are sorted and symmetric, so the k-th of K mirrors the (K - 1 - k)-th
    for k, (z, w) in enumerate(zip(vh.kernel.offsets, vh.kernel.weights)):
        if z <= (0,) * len(z):
            continue
        if (idx[:, k] < n).any():
            chains = _progressions(idx[:, k], idx[:, -1 - k], n)
            terms.append((z, float(w), tuple(tuple(sites[i] for i in c) for c in chains)))
        else:
            slack += 2.0 * float(w)
    return PDCertificate(sites, slack, tuple(terms))
