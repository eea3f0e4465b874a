"""Numerical kernels for stable-type evolution families with fractional drift.

Builds transition kernels of alpha-stable-type generators from their Fourier
symbols, perturbs the generator by a drift-weighted pseudo-gradient of order
beta through a Volterra series, realizes the resulting (signed) evolution
operator family, and ships a verification harness for the family's proven
properties.
"""

from .grid import (SpaceTimeGrid, GridError, ImaginaryResidueError, synthesize,
                   analyze, convolve, interior_mask)
from .symbols import (SymbolSpec, PseudoGradientSpec, SymbolError,
                      isotropic_symbol, pseudo_gradient_normalizer,
                      pseudo_gradient_normalizer_neg_gamma, gamma_extended)
from .fields import (KernelField, FieldError, write_snapshot, read_snapshot,
                     write_csv, snapshot_field, read_snapshot_fields)
from .spectral import (synthesize_g0, g0_values, base_kernel_field,
                       constant_drift_kernel, constant_drift_values,
                       apply_pseudo_gradient, pseudo_gradient_g0,
                       singular_gradient_at, check_resolution,
                       ResolutionError, ResolutionReport,
                       UnsupportedConfiguration, chapman_defect,
                       drift_multiplier, exact_spectra)
from .drift import (DriftField, DriftError, constant_drift, zero_drift,
                    mollified_time_drift, min_p_exponent, series_exponent)
from .volterra import (ConvergenceMonitor, ConvergenceError,
                       PerturbationProblem, KernelRows, beta_rate_factor,
                       kernel_convolution_scaling)
from .evolution import (TestFunction, EvolutionOperator, GeneratorAction,
                        TerminalValueProblem, apply_stack,
                        operator_bound_constant, check_evolution_property,
                        check_identity_limit, identity_limit_floor,
                        cauchy_residual, generalized_solution_stability,
                        check_w_lipschitz, terminal_average_of_ones,
                        constant_one, fourier_mode, compact_bump, steep_step)

__version__ = "0.1.0"
