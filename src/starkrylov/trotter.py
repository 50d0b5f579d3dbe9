"""The triangle-by-triangle Suzuki-Trotter scheme (two parity groups of exact
3-qubit exponentials) and the gates of one step of a scheme.

Gate lists are in application order.  A triangle step therefore returns the
odd-parity group first so that the step operator, as a matrix product, is
exp(-i dt H_even) exp(-i dt H_odd): the even group is the left factor, the
convention used by the single-step solver variant.  ``step_unitaries`` takes
any scheme of 2- and 3-site terms; the bond-by-bond scheme of the CNOT-count
comparison lives in ``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .statevec import PAULIS, GateOp, rz_gate


@dataclass(frozen=True)
class TrotterScheme:
    kind: str  # "triangle_by_triangle" ("bond_by_bond" in tests/oracles.py)
    groups: tuple[tuple[tuple[int, ...], ...], ...]  # site tuples per commuting group


def triangle_scheme(lattice) -> TrotterScheme:
    even, odd = lattice.triangle_groups()
    return TrotterScheme(kind="triangle_by_triangle", groups=(even, odd))


@lru_cache(maxsize=None)
def _coupling_matrix(k: int) -> np.ndarray:
    """sum of sigma.sigma over all bonds of a k-site term (k = 2 or 3)."""
    bonds = [(0, 1)] if k == 2 else [(0, 1), (0, 2), (1, 2)]
    dim = 1 << k
    out = np.zeros((dim, dim), dtype=complex)
    for (a, b) in bonds:
        for P in PAULIS.values():  # X, Y, Z
            mats = [np.eye(2, dtype=complex)] * k
            mats[a] = P
            mats[b] = P
            m = mats[0]
            for extra in mats[1:]:
                m = np.kron(m, extra)
            out += m
    return out


@lru_cache(maxsize=None)
def _term_eig(k: int):
    return np.linalg.eigh(_coupling_matrix(k))


def term_unitary(n_term_sites: int, dt: float) -> np.ndarray:
    """exp(-i dt sum sigma.sigma) on a 2- or 3-site term."""
    w, v = _term_eig(n_term_sites)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def step_unitaries(scheme: TrotterScheme, ham, dt: float,
                   reverse_groups: bool = False) -> list[GateOp]:
    """Gates of one Trotter step of size dt, in application order.

    Groups are applied last-to-first so the first listed group is the left
    factor of the step operator; ``reverse_groups`` flips that choice.  A
    nonzero field adds a final layer of single-site z rotations.
    """
    groups = scheme.groups if reverse_groups else tuple(reversed(scheme.groups))
    gates: list[GateOp] = []
    for group in groups:
        for sites in group:
            gates.append(GateOp(tuple(sites), term_unitary(len(sites), dt),
                                f"{scheme.kind}[{len(sites)}]"))
    if ham.h_field != 0.0:
        # evolution under -h * S^z over dt: diag(e^{+i h dt/2}, e^{-i h dt/2})
        gates += [rz_gate(q, ham.h_field * dt / 2.0) for q in range(ham.n_sites)]
    return gates

