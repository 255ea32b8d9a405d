"""Bounded-spin Gaussian lattice fields.

A simulation and exact-computation engine for fields with spins in a
closed interval coupled by a symmetric, normalized pair kernel: the
attractive truncated-normal heat-bath dynamics, monotone sandwich
coupling from the extremal states, coupling-from-the-past for exact
finite-volume sampling, the exact conditional Gaussian matrices of a
finite volume, and the quadrature oracles and statistical verdicts that
check all of it at desk scale.
"""

from .kernel import (
    InteractionKernel,
    LatticeGeometry,
    NeighborTable,
    SpinInterval,
    build_kernel,
    exp_decay,
    nearest_neighbor,
    wrapped_offsets,
)
from .truncnorm import (
    TruncatedNormal,
    cdf,
    density,
    inverse_cdf,
    mean,
    varphi,
    varphi_inverse,
)
from .finite_spec import (
    GaussianSpecification,
    PDCertificate,
    VolumeHamiltonian,
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
from .sampler import (
    FieldConfiguration,
    RunTrace,
    SandwichTrace,
    cftp_samples,
    local_mean,
    run_sandwich,
    site_update,
    stationary_run,
    sweep,
)
from .diagnostics import (
    QuadratureOracle,
    StatVerdict,
    batch_means_se,
    ks_distance,
    quadrature_marginals,
    stationarity_check,
)
from .transforms import (
    ReflectionProbeReport,
    af_specification_probe,
    beta_scaling_check,
)
from .streams import UpdateStream, derive_key

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
