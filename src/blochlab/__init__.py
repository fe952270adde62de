"""Numerical laboratory for periodic (crystal) semiclassical dynamics.

Bloch-fibered periodic states, Gaussian packet quantization and Husimi
transforms, fiberwise quantum/classical dynamics, transport-cost coupling
energies with their exponential stability envelope, and an end-to-end
verifier for the quantitative observability inequalities they imply.
"""

__version__ = "0.1.0"

from .bloch import (KGrid, FiberedState, PeriodicField, bloch_transform, fiber_average,
                    inverse_bloch, position_grid)
from .classical_dynamics import (GCEstimate, PhasePoint, TrigPotential, flow, gc_constant,
                                 hamiltonian, k_flow, transport_density)
from .errors import AccuracyError, ConfigParseError, ConfigValidationError
from .lattice import (CellGeometry, LatticeSpec, Region, gamma_bounds, project_to_cell,
                      reduce_to_cell, theta)
from .observability import (Discretization, ObservabilityScenario, TheoremReport, chi_cutoff,
                            constant_pure, constant_toeplitz, hbar_threshold,
                            observed_time_integral, verify_pure_theorem, verify_toeplitz_theorem)
from .quantization import (FiberedDensity, PhaseBoxSet, PhaseSpaceDensity, coherent_family,
                           husimi, husimi_mass_on_boxes, observe, periodic_trace,
                           toeplitz_quantize)
from .quantum_dynamics import (CommutatorResiduals, FiberHamiltonian, commutator_residual,
                               evolve_density, propagate_fiber)
from .states import (CoherentParams, coherent_planewave_coeffs, coherent_state,
                     periodized_coherent)
from .transport_metric import (CostParams, CouplingEnergy, StabilityEnvelope, apply_cost, c_bold,
                               coupling_energy_husimi, coupling_energy_toeplitz,
                               gronwall_rate, stability_envelope, std_dev)
