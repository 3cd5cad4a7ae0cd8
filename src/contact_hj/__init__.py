"""Numerics for contact-type Hamilton-Jacobi equations.

Fundamental solutions via the generalized variational principle (direct
curve minimization and characteristic shooting), viscosity solutions of
the Cauchy problem via the inf-representation with certified argmin
localization, and vanishing contact-structure limit experiments.
"""

__version__ = "0.1.0"

from .cost_ode import (CostTrajectory, Curve, OrderingWitness, cost_comparison,
                       integrate_cost, integrate_cost_backward,
                       integrate_cost_many)
from .errors import (BoundViolation, ConfigError, ContactHJError,
                     MonotonicityViolation, NoRootFound, NonConvergence,
                     Overflow, PreconditionError)
from .fundamental import (CharacteristicState, FundamentalResult,
                          OptimizerParams, fundamental_direct,
                          fundamental_exponential, fundamental_shooting,
                          herglotz_residual, lie_step_field, shoot,
                          speed_envelope_check)
from .systems import (ConditionReport, ContactSystem, HamiltonianSystem,
                      SampleBox, builtin_hamiltonian, builtin_system,
                      discounted_quadratic_hamiltonian,
                      discounted_quadratic_system, hamiltonian_from_contact,
                      legendre_to_hamiltonian, legendre_to_lagrangian,
                      perturbed_system, quadratic_hamiltonian, quadratic_system,
                      quartic_hamiltonian, quartic_system,
                      trig_contact_hamiltonian, trig_contact_system,
                      verify_conditions, with_overrides)
from .value import (InitialDatum, InitialGapReport, ResidualReport,
                    SearchParams, ValueGrid, builtin_datum, datum_abs_window,
                    datum_constant, datum_cos_bump, datum_linear_window,
                    datum_quadratic_window, datum_sin, initial_condition_check,
                    lax_oleinik_classical, mu_radius, pde_residual,
                    solve_value, solve_value_grid)
from .vanishing import (ContactBoundResult, ConvergenceReport, LambdaFamily,
                        builtin_family, contact_bound, family_discounted,
                        family_perturbed, run_vanishing)

__all__ = [name for name in dir() if not name.startswith("_")]
