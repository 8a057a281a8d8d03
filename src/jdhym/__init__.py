"""J-equation and dHYM equation laboratory on flat complex tori."""

from .errors import (BranchUndefinedError, ConeBreachError, ContinuationError,
                     DataError, DomainError, EllipticityLostError,
                     NotKahlerError, PreconditionError, UsageError)
from .fields import (FormField, ScalarField, TorusGeometry, complex_hessian,
                     constant_form, field_from_modes, form_field, integrate,
                     kahler_form, mixed_density, mollify, regularized_max)
from .functionals import (aubin_i, coercivity_probe, compute_c0, j_chi_functional,
                          j_omega0_functional)
from .hermitian import (ConeSpec, SpectrumRel, cone_test_dhym, cone_test_j,
                        f_gradient, f_value, p_level, q_level,
                        relative_spectrum, schur_complement, trace_relative,
                        truncate_spectrum)
from .solver import (SolveReport, SolverConfig, continuity_path_dhym,
                     continuity_path_j, dhym_residual, j_residual,
                     make_dhym_problem, make_j_problem, newton_solve)
from .stability import (AngleBranch, IntersectionData, angle_branch,
                        coordinate_subtorus_data, dhym_hypothesis_check,
                        max_uniform_epsilon, slope_test)

__version__ = "0.1.0"
