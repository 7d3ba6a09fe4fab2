"""Numerical Berezin quantization on the affine chart of complex projective space."""

from .errors import (DegenerateKernel, DerivativeFailure, DimensionMismatch,
                     IndexOutOfRange, NonFiniteIntegrand, OddLevel, OutOfDomain,
                     PathTooCoarse, QuantizationError, ResourceLimit, SingularPair)
from .geometry import (diastasis, fs_form, fs_form_inverse, fs_metric,
                       fs_metric_inverse, fs_potential, pairing, poisson_bracket,
                       volume_density, wirtinger)
from .quadrature import (IntegrationResult, QuadratureRule, build_rule, integrate,
                         level_for, m_max, moment, total_volume)
from .hilbert import (BasisSpec, basis_eval, build_basis, coherent_coeffs,
                      enumerate_indices, gram_matrix, inner_product, kernel_L,
                      load_spec, log_kernel, reproducing_residual, resolution_check,
                      save_spec, section_eval)
from .functions import REGISTRY, ChartFunction, get_function
from .operators import (CovariantSymbol, OperatorMatrix, SweepResult, commutator,
                        correspondence_sweep, identity_operator,
                        operator_from_symbol, star_product, symbol_eval)
from .toeplitz import (bracket_function, commutator_defect, operator_norm, project,
                       sup_estimate, toeplitz_matrix, toeplitz_sweep)
from .pullback import (DiffeoChart, EquivalenceReport, PulledOperator,
                       chart_to_json, circle_path, connection_integral,
                       curvature_disk_integral, equator_path, equivalence_check,
                       holonomy, identity_chart, inner_product_on_manifold,
                       measure_factor, pull_section, pulled_apply, pulled_star,
                       pulled_symbol, quarter_arc, rotation_chart, scaling_chart,
                       torus_chart, torus_holonomy)

__version__ = "0.1.0"
