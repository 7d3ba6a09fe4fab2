"""Exception taxonomy shared by all modules.

Every failure mode the library can diagnose gets its own class so callers
(and the CLI exit-code mapping) can react without string matching.
"""


class QuantizationError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(QuantizationError):
    """Chart points, vectors or matrices with incompatible sizes."""


class SingularPair(QuantizationError):
    """Point pair too close to the zero set of the kernel pairing."""


class DerivativeFailure(QuantizationError):
    """A finite-difference stencil could not be evaluated."""


class ResourceLimit(QuantizationError):
    """A requested computation exceeds the bound on radial points (quadrature.RADIAL_CAP)."""


class NonFiniteIntegrand(QuantizationError):
    """An integrand returned NaN or Inf at a quadrature node."""


class IndexOutOfRange(QuantizationError):
    """Multi-index outside the admissible range for the given level."""


class DegenerateKernel(QuantizationError):
    """Kernel denominator below the documented scale threshold."""


class OutOfDomain(QuantizationError):
    """Parameter-domain point outside the chart's domain."""


class OddLevel(QuantizationError):
    """Holonomy bookkeeping requires an even quantization level."""


class PathTooCoarse(QuantizationError):
    """Refining a discretized path changed a line integral too much."""
