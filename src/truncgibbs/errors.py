"""Exception types shared across the library.

Input-contract violations subclass ValueError; conditions that indicate a
broken run (a coupling order inversion, a factorization failure, a chain
that never coalesces) subclass RuntimeError.
"""


class NegativeWeight(ValueError):
    """A kernel weight is negative."""


class NonFiniteWeight(ValueError):
    """A kernel weight, or the sum of the weights, is not a finite float."""


class AsymmetricKernel(ValueError):
    """J(z) and J(-z) were both given but differ."""


class EmptyKernel(ValueError):
    """All kernel weights vanish, violating 0 < sum J."""


class ZeroOffsetPresent(ValueError):
    """The zero offset was supplied; self-coupling is not allowed."""


class GeometryTooSmall(ValueError):
    """Torus extent does not exceed twice the kernel range on some axis."""


class GeometryMismatch(ValueError):
    """Two objects assume different geometries (or a box shell of another kernel)."""


class DegenerateInterval(ValueError):
    """The interval carries no representable normal mass for this mean."""


class ProbabilityOutOfRange(ValueError):
    """A probability argument lies outside [0, 1]."""


class OutOfRange(ValueError):
    """A value lies outside the attainable range of the function."""


class MissingSite(ValueError):
    """A configuration does not cover a required site."""


class BoundarySite(ValueError):
    """A dynamics operation was addressed to a frozen boundary site."""


class UnknownSite(ValueError):
    """A site index names neither an interior site nor a boundary site."""


class EmptyVolume(ValueError):
    """The requested volume contains no sites."""


class DuplicateSite(ValueError):
    """A volume or box lists one site more than once."""


class VolumeTooLarge(ValueError):
    """The volume exceeds what the tensor-grid oracle can enumerate."""


class NotTorus(ValueError):
    """The operation requires the translation-invariant torus geometry."""


class TooFewSamples(ValueError):
    """Not enough samples for a meaningful empirical comparison."""


class NonpositiveBeta(ValueError):
    """Inverse temperature must be a finite number > 0."""


class IncompatiblePartition(ValueError):
    """The kernel couples two sites of one parity (coordinate sum mod 2)."""


class ConfigInvalid(ValueError):
    """An experiment configuration failed validation (message carries the field path)."""


class NotPositiveDefinite(RuntimeError):
    """Symmetric factorization of the precision matrix failed."""


class OrderViolation(RuntimeError):
    """Pointwise order between coupled chains was broken; must never fire."""


class NoCoalescence(RuntimeError):
    """Coupling from the past exceeded its horizon cap without coalescing."""
