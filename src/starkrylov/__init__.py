"""Hybrid quantum-classical ground-state estimation for Heisenberg star
plaquettes: statevector simulation, mirror-circuit overlap measurement,
Krylov post-processing (Toeplitz GEVP and Hankel least squares), and
magnetization-curve assembly.  All energies are in units of eps = J/2."""
