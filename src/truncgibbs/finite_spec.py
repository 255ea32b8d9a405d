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

A, B and the pair arrays come from the neighbour index that also gives
the box shells and neighbour tables, so matrices and dynamics see one set
of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import (
    EmptyVolume,
    GeometryMismatch,
    MissingSite,
    NotPositiveDefinite,
)
from .kernel import (InteractionKernel, LatticeGeometry, SpinInterval, _neighbour_index,
                     _sorted_sites, check_torus_extents)


def _as_sites(volume):
    sites = _sorted_sites(volume)
    if not sites:
        raise EmptyVolume("volume contains no sites")
    return sites


@dataclass(frozen=True, eq=False)
class VolumeHamiltonian:
    """Pair structure and Gaussian matrices of one finite volume."""

    sites: tuple                 # lexicographically ordered volume sites
    shell: tuple                 # exterior sites within kernel range
    kernel: InteractionKernel
    precision: np.ndarray        # A, |V| x |V| symmetric positive definite
    cross: np.ndarray            # B, |V| x |shell|, entries J(y - x) >= 0
    inside_pairs: tuple          # arrays (i, j, weight), each unordered interior pair once
    cross_pairs: tuple           # arrays (i, s, weight), volume site i to shell slot s
    wrapped_extents: tuple | None = None   # torus periods when the ambient wraps

    @property
    def n_sites(self) -> int:
        return len(self.sites)


def build_matrices(volume, kernel: InteractionKernel,
                   geometry: LatticeGeometry | None = None) -> VolumeHamiltonian:
    """Populate A, B and the pair lists for a finite volume.

    The ambient lattice is the infinite lattice unless a torus geometry is
    given, in which case offsets wrap; a box geometry only asserts that
    the volume lies inside it.
    """
    sites = _as_sites(volume)
    d = len(sites[0])
    if kernel.dimension != d:
        raise GeometryMismatch(f"kernel dimension {kernel.dimension} != site dimension {d}")
    wrap = None
    if geometry is not None:
        if geometry.dimension != d:
            raise GeometryMismatch("geometry dimension mismatch")
        if geometry.kind == "torus":
            check_torus_extents(kernel, geometry)
            wrap = geometry.extents
        elif not set(sites) <= set(geometry.sites):
            raise GeometryMismatch("volume is not contained in the box geometry")

    idx, shell = _neighbour_index(sites, kernel.offsets, wrap)
    n = len(sites)
    rows = np.broadcast_to(np.arange(n)[:, None], idx.shape)
    weights = np.broadcast_to(kernel.weights, idx.shape)
    inside, cross = idx < n, idx >= n
    # each entry is hit by one offset at most (the torus extent check keeps
    # wrapped offsets distinct), and 0.0 - w is -w
    a_mat = np.diag(np.full(n, kernel.norm))
    a_mat[rows[inside], idx[inside]] = -weights[inside]
    b_mat = np.zeros((n, len(shell)))
    b_mat[rows[cross], idx[cross] - n] = weights[cross]
    upper = inside & (idx > rows)       # each unordered interior pair once
    return VolumeHamiltonian(sites, shell, kernel, a_mat, b_mat,
                             (rows[upper], idx[upper], weights[upper]),
                             (rows[cross], idx[cross] - n, weights[cross]), wrap)


def _sequential_sum(terms) -> float:
    """Left-to-right sum from 0.0, the rounding of a plain accumulation loop."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def _full_values(vh: VolumeHamiltonian, xi):
    """Accept a site->value mapping or a flat array over sites then shell."""
    if isinstance(xi, dict):
        try:
            eta = np.array([xi[s] for s in vh.sites], dtype=float)
            gamma = np.array([xi[s] for s in vh.shell], dtype=float)
        except KeyError as missing:
            raise MissingSite(f"configuration does not cover site {missing.args[0]}") from None
        return eta, gamma
    xi = np.asarray(xi, dtype=float)
    want = vh.n_sites + len(vh.shell)
    if xi.shape != (want,):
        raise MissingSite(f"expected {want} values (volume then shell), got shape {xi.shape}")
    return xi[:vh.n_sites], xi[vh.n_sites:]


def _boundary_vector(vh: VolumeHamiltonian, gamma) -> np.ndarray:
    """Boundary values as a float array, one per shell site, in shell order."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (len(vh.shell),):
        raise MissingSite(f"expected {len(vh.shell)} boundary values, got shape {gamma.shape}")
    return gamma


def hamiltonian(vh: VolumeHamiltonian, xi) -> float:
    """Direct pair sum: half of J(y-x)(xi(x) - xi(y))^2 over pairs meeting the volume.

    Non-negative, and zero exactly when xi is constant on every coupled
    component meeting the volume.  This is the route independent of the
    matrices, kept separate so the quadratic-form identity is a real check.
    """
    eta, gamma = _full_values(vh, xi)
    i, j, w = vh.inside_pairs
    c, s, v = vh.cross_pairs
    inside, cross = eta[i] - eta[j], eta[c] - gamma[s]
    return _sequential_sum(np.concatenate([0.5 * w * inside * inside,
                                           0.5 * v * cross * cross]))


def psi_boundary(vh: VolumeHamiltonian, gamma) -> float:
    """The boundary-only term: sum over cross pairs of J(y-x) gamma(y)^2."""
    gamma = np.asarray(gamma, dtype=float)
    _, s, w = vh.cross_pairs
    # float_power squares through C pow, the rounding of a float's ``** 2``;
    # the array ``** 2`` multiplies, which differs in the last bit now and then
    return _sequential_sum(w * np.float_power(gamma[s], 2))


def quadratic_form(vh: VolumeHamiltonian, eta, gamma) -> float:
    """The matrix route: eta'A eta / 2 - eta'B gamma + psi(gamma) / 2.

    Agrees with :func:`hamiltonian` on the juxtaposed configuration; the
    pair of routes is the working identity behind the conditional law.
    """
    eta = np.asarray(eta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    bg = vh.cross @ gamma if len(vh.shell) else np.zeros(vh.n_sites)
    return float(0.5 * eta @ vh.precision @ eta - eta @ bg + 0.5 * psi_boundary(vh, gamma))


@dataclass(frozen=True, eq=False)
class GaussianSpecification:
    """Mean and covariance of the conditional Gaussian before truncation."""

    mean: np.ndarray
    covariance: np.ndarray
    interval: SpinInterval


def specification(vh: VolumeHamiltonian, gamma, interval: SpinInterval) -> GaussianSpecification:
    """Solve A m = B gamma and Sigma = A^{-1} through a Cholesky factorization."""
    gamma = _boundary_vector(vh, gamma)
    try:
        factor = cho_factor(vh.precision, lower=True)
    except LinAlgError as err:
        raise NotPositiveDefinite(f"precision matrix is not positive definite: {err}") from None
    rhs = vh.cross @ gamma if len(vh.shell) else np.zeros(vh.n_sites)
    m = cho_solve(factor, rhs)
    residual = np.max(np.abs(vh.precision @ m - rhs)) if m.size else 0.0
    if residual > 1e-10:
        raise NotPositiveDefinite(f"solve residual {residual:.3e} exceeds 1e-10")
    sigma = cho_solve(factor, np.eye(vh.n_sites))
    sigma = 0.5 * (sigma + sigma.T)
    return GaussianSpecification(m, sigma, interval)


# ---------------------------------------------------------------------------
# Positive-definiteness certificate
# ---------------------------------------------------------------------------

def _lex_positive(z) -> bool:
    for c in z:
        if c > 0:
            return True
        if c < 0:
            return False
    return False


def z_connected_classes(volume, z):
    """Partition the volume into maximal arithmetic progressions with step z."""
    sites = _as_sites(volume)
    z = tuple(int(c) for c in z)
    if all(c == 0 for c in z):
        raise ValueError("step offset must be nonzero")
    members = set(sites)
    classes = []
    for x in sites:
        prev = tuple(x[k] - z[k] for k in range(len(z)))
        if prev in members:
            continue                     # not a progression start
        chain = [x]
        nxt = tuple(x[k] + z[k] for k in range(len(z)))
        while nxt in members:
            chain.append(nxt)
            nxt = tuple(nxt[k] + z[k] for k in range(len(z)))
        classes.append(tuple(chain))
    return classes


def toeplitz_matrix(volume, z) -> np.ndarray:
    """Dense T_z: 2 on the diagonal, -1 where sites differ by plus or minus z."""
    sites = _as_sites(volume)
    z = tuple(int(c) for c in z)
    idx, _ = _neighbour_index(sites, (z, tuple(-c for c in z)))
    t_mat = 2.0 * np.eye(len(sites))
    rows, steps = np.nonzero(idx < len(sites))
    # subtract.at applies both steps even when they coincide (z = 0)
    np.subtract.at(t_mat, (rows, idx[rows, steps]), 1.0)
    return t_mat


def toeplitz_quadratic_form(volume, z, eta) -> float:
    """eta' T_z eta through the progression decomposition.

    Telescoping squared differences along each progression plus the two
    endpoint squares (doubled for singletons); strictly positive for any
    nonzero eta, which is what certifies T_z, and hence A, positive definite.
    """
    sites = _as_sites(volume)
    index = {s: i for i, s in enumerate(sites)}
    eta = np.asarray(eta, dtype=float)
    total = 0.0
    for chain in z_connected_classes(sites, z):
        vals = eta[[index[s] for s in chain]]
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
        n = len(self.sites)
        out = self.slack * np.eye(n)
        for z, w, _classes in self.terms:
            out += w * toeplitz_matrix(self.sites, z)
        return out


def pd_certificate(vh: VolumeHamiltonian) -> PDCertificate:
    """Certify positive definiteness of A constructively.

    The positive half-space is the lexicographically positive offsets.
    Support offsets realized as differences within the volume contribute a
    Toeplitz term; unrealized ones contribute twice their weight to the
    slack on the identity.  Reassembly reproduces A entrywise.
    """
    if vh.wrapped_extents is not None:
        raise GeometryMismatch(
            "the progression certificate is defined on the infinite lattice; "
            "wrapped volumes would turn progressions into cycles")
    sites = vh.sites
    realized = (_neighbour_index(sites, vh.kernel.offsets)[0] < vh.n_sites).any(axis=0)
    slack = 0.0
    terms = []
    for z, w, seen in zip(vh.kernel.offsets, vh.kernel.weights, realized):
        if not _lex_positive(z):
            continue
        if seen:
            terms.append((z, float(w), tuple(z_connected_classes(sites, z))))
        else:
            slack += 2.0 * float(w)
    return PDCertificate(sites, slack, tuple(terms))
