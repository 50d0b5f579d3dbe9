"""Hybrid quantum-classical ground-state estimation for Heisenberg star
plaquettes: statevector simulation, mirror-circuit overlap measurement,
Krylov post-processing (Toeplitz GEVP and Hankel least squares), and
magnetization-curve assembly.  All energies are in units of eps = J/2."""

from .hamiltonian import SpinHamiltonian, SpectrumResult
from .krylov import KrylovEstimate, OverlapSeries, odmd, step_bounds, uvqpe
from .lattice import KagomePatch, StarPlaquette, build_patch, build_star
from .magnet import MagnetizationCurve, build_curve, estimate_sector_energies
from .mirror import (
    ExactEvolver,
    FloquetEvolver,
    OverlapEstimate,
    ShotPlan,
    TrotterEvolver,
    estimate_overlap,
    reconstruct,
)
from .noise import NoiseSpec, postselect_f1, twirl_layer
from .prep import (
    PrepCircuit,
    dressed_initial,
    invert,
    pinwheel,
    reference_superposition,
    sector_initial,
)
from .statevec import GateOp, StateVector, apply_gate, evolve_exact, inner, sample_bitstrings, zero_state
from .trotter import TrotterScheme, bond_scheme, cnot_count, triangle_scheme

__all__ = [
    "SpinHamiltonian", "SpectrumResult",
    "KrylovEstimate", "OverlapSeries", "odmd", "step_bounds", "uvqpe",
    "KagomePatch", "StarPlaquette", "build_patch", "build_star",
    "MagnetizationCurve", "build_curve", "estimate_sector_energies",
    "ExactEvolver", "FloquetEvolver", "OverlapEstimate", "ShotPlan", "TrotterEvolver",
    "estimate_overlap", "reconstruct",
    "NoiseSpec", "postselect_f1", "twirl_layer",
    "PrepCircuit", "dressed_initial", "invert", "pinwheel",
    "reference_superposition", "sector_initial",
    "GateOp", "StateVector", "apply_gate", "evolve_exact", "inner",
    "sample_bitstrings", "zero_state",
    "TrotterScheme", "bond_scheme", "cnot_count", "triangle_scheme",
]
