"""Numerical laboratory for periodic (crystal) semiclassical dynamics.

Bloch-fibered periodic states, Gaussian packet quantization and Husimi
transforms, fiberwise quantum/classical dynamics, transport-cost coupling
energies with their exponential stability envelope, and an end-to-end
verifier for the quantitative observability inequalities they imply.
"""

__version__ = "0.1.0"

from .bloch import KGrid, position_grid
from .classical_dynamics import GCEstimate, PhasePoint, TrigPotential, flow, gc_constant
from .errors import ConfigParseError, ConfigValidationError
from .lattice import CellGeometry, LatticeSpec, Region, gamma_bounds, reduce_to_cell, theta
from .observability import (Discretization, ObservabilityScenario, TheoremReport,
                            constant_pure, hbar_threshold, initial_state,
                            minimize_toeplitz_penalty, observed_time_integral, verify_theorem)
from .quantization import (FiberedDensity, PhaseBoxSet, PhaseSpaceDensity, husimi,
                           husimi_mass_on_boxes, periodic_trace, toeplitz_quantize)
from .quantum_dynamics import FiberHamiltonian, evolution
from .transport_metric import (CostParams, CouplingEnergy, StabilityEnvelope,
                               coupling_energy_husimi, coupling_energy_toeplitz,
                               gronwall_rate, stability_envelope)
