"""breather_forge: spectral fixed-point computation and verification of
exponentially localised, time-periodic lattice breathers."""

from .lattice_model import (MixedPotentialError, PotentialSpec, dispersion,
                            eval_potential, growth_bound)
from .operators import (Multiplier, ResonanceError, apply_M, apply_M_inverse,
                        apply_M_via_multiplier, apply_N, apply_S, band_gap, linearize_S,
                        probe_operator_norm)
from .solver import (BreatherResult, SolverConfig, UnsupportedPotentialError,
                     continuation_sweep, hybrid_solve, newton_solve, picard_solve,
                     refine, solve)
from .spectral_field import (GridSpec, SpectralField, WeightOverflowError,
                             WeightSpec, analyze, max_amplitude_profile,
                             parity_projector, project_even, project_odd,
                             random_field, seed_field, synthesize, time_means,
                             weighted_profile_norm, weights, x0_norm, x2_norm,
                             zero_field)
from .validation import (BlowUpError, BoundsReport, InsufficientTailError,
                         TrajectoryReport, boundary_floor, bounds_report,
                         decay_rate_fit, fit_decay_profile, initial_conditions,
                         integrate_trajectory, lattice_energy, strong_residual)

__version__ = "0.1.0"
