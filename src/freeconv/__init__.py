"""Explicit Cauchy transforms for a two-parameter deformation of the free
stable laws, with density recovery, transform calculus, and free
infinite-divisibility certificates."""

__version__ = "0.1.0"

from .branches import (binom_coeff, binom_series, log_principal, log_upper,
                       pow_principal, pow_upper)
from .errors import (AdmissibilityError, BracketingError, BranchCutError,
                     ConvergenceError, DomainError, FreeconvError,
                     HypothesisError, QuadratureError)
from .family import (FamilyParams, TruncatedCone, cauchy_G, default_cone,
                     inverse_F, is_admissible, reciprocal_F,
                     series_coefficients, series_G, verification_cone,
                     verify_composition, verify_self_similarity,
                     voiculescu_phi)
from .fid import (FidReport, LevyTriplet, check_fid_grid, collision_search,
                  e_function, find_E_zero, im_phi_cubic_pi2,
                  levy_beta_closed, levy_cubic_closed, levy_density_numeric,
                  levy_table, levy_triplet, phi_cubic, r0_threshold,
                  tau_atom, tau_interval_mass, tau_total_mass,
                  theory_verdict, ui_counterexample_map, ui_heuristic)
from .stable_poisson import (StableParams, is_positive_supported,
                             is_symmetric, mp_cauchy, mp_density,
                             stable_F, stable_G, stable_density,
                             stable_fid_predicate)
from .stieltjes import (DensityTable, atom_mass, build_density_table,
                        closed_beta_density, closed_symmetric_beta_density,
                        density_from_G, example_density_cauchy_mix,
                        example_density_halfstable, quadrature,
                        tail_density_series)
from .transforms import (ResidualReport, chi_numeric,
                         mp_r_transform, mp_s_transform, psi_from_G,
                         psi_symmetric_from_G, r_transform, s_mu2_closed,
                         s_stable_closed, s_transform_numeric,
                         verify_boxtimes, verify_compound_poisson)

__all__ = [
    "binom_coeff", "binom_series", "log_principal", "log_upper",
    "pow_principal", "pow_upper",
    "AdmissibilityError", "BracketingError", "BranchCutError",
    "ConvergenceError", "DomainError", "FreeconvError", "HypothesisError",
    "QuadratureError",
    "FamilyParams", "TruncatedCone", "cauchy_G", "default_cone", "inverse_F",
    "is_admissible", "reciprocal_F", "series_coefficients", "series_G",
    "verification_cone", "verify_composition", "verify_self_similarity",
    "voiculescu_phi",
    "FidReport", "LevyTriplet", "check_fid_grid", "collision_search",
    "e_function", "find_E_zero", "im_phi_cubic_pi2", "levy_beta_closed",
    "levy_cubic_closed", "levy_density_numeric", "levy_table", "levy_triplet",
    "phi_cubic", "r0_threshold", "tau_atom", "tau_interval_mass",
    "tau_total_mass", "theory_verdict", "ui_counterexample_map",
    "ui_heuristic",
    "StableParams", "is_positive_supported", "is_symmetric", "mp_cauchy",
    "mp_density", "stable_F", "stable_G", "stable_density",
    "stable_fid_predicate",
    "DensityTable", "atom_mass", "build_density_table", "closed_beta_density",
    "closed_symmetric_beta_density", "density_from_G",
    "example_density_cauchy_mix", "example_density_halfstable", "quadrature",
    "tail_density_series",
    "ResidualReport", "chi_numeric", "mp_r_transform", "mp_s_transform",
    "psi_from_G", "psi_symmetric_from_G", "r_transform", "s_mu2_closed",
    "s_stable_closed", "s_transform_numeric", "verify_boxtimes",
    "verify_compound_poisson",
]
