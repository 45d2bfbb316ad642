"""Monte Carlo verification suite for a stochastic least-action description
of incompressible viscous flow.

A velocity field u on [0, 1] x R^3 is attached to a path-space law whose
canonical process has drift -u(1 - t, x) and unit dispersion.  This package
simulates that law, evaluates the stochastic action and its relative-entropy
counterpart, checks the weak Euler-Lagrange characterization by martingale
hypothesis tests, and verifies the invariant processes attached to
translation and rotation symmetries, for a catalog of exact solutions and
deliberately broken controls.
"""

from .catalog import (UnknownCaseError, case_names, fd_residual_oracle,
                      get_case, make_frozen_taylor_green, make_lamb_oseen,
                      make_taylor_green, make_taylor_green_rotated,
                      make_zero_flow, ns_residual, probe_grid, probe_residuals)
from .engine import (CapacityError, GridMismatchError, PathEnsemble,
                     ProcessSample, TagMismatchError, TimeGrid,
                     drift_process, dump_ensemble, dump_process,
                     load_ensemble, load_process, process_to_csv,
                     simulate_pu, simulate_wiener, worker_count)
from .fields import FlowCase, PressureField, VelocityField, rotated_case
from .girsanov import (EstimateWithError, action_entropy_identity,
                       estimate_Zp, log_density_pu, mean_with_error,
                       relative_entropy)
from .action import (PerturbationField, action_derivative_analytic,
                     action_derivative_fd, action_derivatives_fd,
                     bump_perturbation,
                     default_dictionary, gated_tanh_perturbation,
                     least_action_check, sine_perturbation,
                     stochastic_action)
from .martingale import (MartingaleTestReport, covariation, martingale_test,
                         richardson_bias_probe)
from .noether import (GeneratorField, ROTATION_E3, TRANSLATION_E3,
                      SymmetryCheckReport, UnknownGeneratorError, el_process,
                      get_generator, kappa, noether_process_general,
                      noether_rotation_closed_form, symmetry_check)
from .suite import SuiteScale, run_criterion, run_suite

__version__ = "0.1.0"
