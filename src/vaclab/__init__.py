"""vaclab: numerical laboratory for damped compressible Euler flows with a
physical vacuum free boundary.

Builds the compactly supported self-similar background profiles, solves the
dilation-correction ODE, evolves Lagrangian perturbations (nonlinear radial
and linearized angular modes) on the degenerate-weight domain, and verifies
the proved decay envelopes, energy boundedness, and curl-decay structure at
desk scale.
"""

from .angular import (CurlEnvelopeReport, ModeTrajectory, PlanarModeState,
                      ToroidalModeState, curl_decay_fit, curl_envelope,
                      default_planar_state, evolve_mode)
from .config import ConfigError, RunConfig, load_config, parse_config
from .correction import (CorrectionPath, HEnvelopeFit, ThetaPropertyReport,
                         correction_path, fit_h_envelope,
                         integrating_factor_bound_check, lyapunov_violations,
                         ode_residual, rk4_reference, solve_correction,
                         verify_theta_properties)
from .diagnostics import (BoundednessReport, GapSeries, RateReport,
                          boundedness_report, closed_form_gaps, gap_series,
                          theorem_rate_report)
from .energy import (EnergyReport, ModeEnergies, RadialEnergies,
                     UnsupportedOrderError, energy_indices)
from .fitting import DecayFit, FitWindowError, decay_fit
from .kinematics import (BoxGrid, DeformationDegenerateError, DeformationField,
                         IdentityReport, adjugate_residual, box_grid,
                         build_deformation, check_identities, curl_eta, div_eta,
                         grad_eta, jacobian_expansion_residuals,
                         radial_vector_field, random_smooth_field)
from .params import (ParameterError, PhysParams, SelfSimilarProfile,
                     barenblatt_fields, derive_constants, mass_integral)
from .quadrature import sigma_moment, unit_sphere_area
from .radial import (RadialInvariantError, RadialOperator, RadialState,
                     RadialTrajectory, Reconstruction, evolve, output_schedule,
                     radial_oracle_check, reconstruct_physical,
                     reconstructed_mass, seed_profile)
from .runio import RunResult, refit, resume, run
from .suite import CHECKS, SuiteReport, verify
from .sweep import sweep
from .weighted import WeightedGrid, hardy_check, weighted_norm

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
