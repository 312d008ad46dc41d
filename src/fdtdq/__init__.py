"""Staggered-grid leap-frog solver for the time-dependent Schrödinger
equation with boundary hanging variables, conservation diagnostics,
stability analysis and multi-region coupling."""

from .constants import (BOLTZMANN, DALTON, ELECTRON, ELECTRON_MASS, EV,
                        HBAR, PROTON_1DA, PhysicalConstants, to_si)
from .grid import (FACES, FACE_AXIS, FACE_SIGN, OPPOSITE_FACE,
                   MetricDiagonals, PotentialField, RegionGrid,
                   metric_diagonals)
from .operators import DiscreteOperators
from .stepper import (BoundaryCondition, DivergenceError, Region,
                      StaggeredState, StepWindow, load_checkpoint, run,
                      save_checkpoint, step)
from .diagnostics import (CSV_COLUMNS, DiagnosticsSeries, SeriesBuilder,
                          probability_current_by_face, probability_simple,
                          supplied_power, total_probability)
from .stability import (StabilityError, StabilityReport, cfl_gen_limit,
                        cfl_limit, check_theorems, kappa_P, lambda_min_P,
                        per_cell_cfl_gen, single_cell_sigma_eigvals,
                        spectral_radius)
from .coupling import (Interface, RegionGraph, UnstableTimeStep,
                       coupled_step, cross_region_conservation,
                       interface_current_mismatch, run_coupled)

__version__ = "1.0.0"
