"""Stochastic Pauli noise trajectories and symmetry-based mitigation.

Noise model: after every applied multi-qubit gate, each touched qubit
independently suffers a uniform X/Y/Z error with probability p.  This is a
trajectory (pure-state) channel; ensemble quantities are averages over
trajectories with independent streams.

Stream contract of one trajectory: one uniform per error slot (each site of
each gate with two or more sites, in gate order), compared against p; after
a slot's uniform falls below p, one integer ``integers(3)`` picks its Pauli
from ``PAULI_NAMES``, applied after the slot's gate.  The mirror estimator
then draws one more uniform to sample the final state.  A shot whose slot
uniforms all reach p runs no circuit: its last uniform is counted against
the noiseless all-zero probability (``mirror._noisy_pool``).  A shot with an
error runs as one row from its first erring gate, to its last error if read
only for |0..0> (``mirror._sample_erring``).  At p = 0 no shot is drawn: a
circuit's zero count is one binomial (``mirror.noiseless_fractions``).
The draws are the same, in the same order, as a per-shot loop that applies
the gates and draws ``rng.random()`` after each slot; ``tests/oracles.py``
keeps that loop as the reference.  ``NoiseSpec`` is the ``noise`` section
of the run configuration, ``twirl_angle`` the one place that resolves
its twirl angle, and ``twirl_layer`` the one place that checks it against
the reference branch: a multiple of pi over its down-spin count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevec import GateOp, rz_gate

PAULI_NAMES = ("X", "Y", "Z")  # the Pauli of an error, by its integer draw


@dataclass(frozen=True)
class NoiseSpec:
    """The error rate p and the mitigations: F1 post-selection and the twirl layer."""

    p_pauli: float = 0.0
    enable_postselect: bool = False
    enable_twirl: bool = False
    twirl_angle: float | None = None  # None = pi/2

    def __post_init__(self):
        if not 0.0 <= self.p_pauli <= 1.0:
            raise ValueError("p_pauli must lie in [0, 1]")


def twirl_angle(noise: NoiseSpec | None) -> float | None:
    """The angle of the twirl layer ``noise`` asks for, pi/2 when it names
    none, or None when it asks for no twirling."""
    if noise is None or not noise.enable_twirl:
        return None
    return np.pi / 2 if noise.twirl_angle is None else noise.twirl_angle


def postselect_f1(samples: np.ndarray, pairing, n_sites: int):
    """Filter sampled basis indices by the pair-parity rule: keep a string
    when an even number of dimer pairs show their second qubit set (pair
    states 01 or 11).

    Returns (kept samples, discard count).  The pairing must cover every
    site, as produced by the full dimer preparations.
    """
    covered = {q for pair in pairing for q in pair}
    if covered != set(range(n_sites)):
        raise ValueError("pairing must cover all sites")
    mask = 0
    for (_a, b) in pairing:
        mask |= 1 << b
    samples = np.asarray(samples)
    masked = samples & mask
    parity = np.zeros(len(samples), dtype=np.int64)
    for q in range(n_sites):
        parity += (masked >> q) & 1
    keep = parity % 2 == 0
    return samples[keep], int(np.sum(~keep))


def twirl_layer(n_qubits: int, theta: float, n_down: int) -> list[GateOp]:
    """R_z(theta) = diag(e^{i theta}, e^{-i theta}) on every qubit.

    It turns the psi0 branch of a reference superposition, of ``n_down`` down
    spins, by e^{2 i theta n_down} against the all-up branch, so theta must
    be a multiple of pi/n_down (2*pi/n at S^z = 0); any other angle raises
    ValueError.
    """
    ratio = float(theta) * n_down / np.pi
    if not (np.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9):
        raise ValueError(f"twirl angle {theta:g} is not a multiple of pi/{n_down} and "
                         f"would dephase the reference branch of {n_down} down spins")
    return [rz_gate(q, theta) for q in range(n_qubits)]
