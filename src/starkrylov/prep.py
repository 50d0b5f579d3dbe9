"""State-preparation circuits: pinwheels, CZ-dressed states, sector states,
and the superpositions with the fully polarized reference state.

Every singlet dimer on an ordered pair (a, b) is prepared from |00> by the
template X(a), H(a), CNOT(a,b), X(b), which yields (|01> - |10>)/sqrt(2).
The reference superpositions chain a GHZ ladder over the dimer-covered
sites with a local two-qubit mapper sending |00> -> |00> and
|11> -> (|01> - |10>)/sqrt(2) on each dimer pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import StarPlaquette
from .statevec import (
    GateOp,
    apply_circuit,
    cnot_gate,
    cz_gate,
    h_gate,
    phase_gate,
    x_gate,
    zero_amps,
)

_SQ2 = 1.0 / np.sqrt(2.0)

# |00> -> |00>, |11> -> (|01> - |10>)/sqrt(2); images of |01>, |10> are free.
MAPPER_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, _SQ2, 0, _SQ2],
        [0, _SQ2, 0, -_SQ2],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

# Partial dimer coverings for the S^z > 0 sectors, keyed by triangle count.
# Remaining sites stay |up>; patterns fix the published sector overlaps.
SECTOR_DIMERS = {
    4: {
        1: ((0, 1), (2, 5), (3, 7)),
        2: ((0, 1), (2, 3)),
        3: ((0, 1),),
        4: (),
    },
    6: {
        1: ((0, 1), (2, 7), (3, 8), (4, 10), (5, 11)),
        2: ((1, 7), (3, 8), (4, 10), (0, 11)),
        3: ((0, 1), (2, 3), (4, 5)),
        4: ((0, 1), (3, 4)),
        5: ((0, 1),),
        6: (),
    },
}


@dataclass(frozen=True)
class PrepCircuit:
    n_sites: int
    gates: tuple[GateOp, ...]
    dimer_pairs: tuple[tuple[int, int], ...] = ()
    cz_bonds: tuple[tuple[int, int], ...] = ()

    def state(self) -> np.ndarray:
        """The amplitudes this circuit prepares from |0..0>."""
        return apply_circuit(zero_amps(self.n_sites), self.gates)


def _dimer_gates(pairs) -> list[GateOp]:
    gates = []
    for (a, b) in pairs:
        gates += [x_gate(a), h_gate(a), cnot_gate(a, b), x_gate(b)]
    return gates


def pinwheel(star: StarPlaquette, orientation: str = "cw") -> PrepCircuit:
    """Singlet dimer product with one dimer per triangle (exact ground state)."""
    pairs = star.dimer_bonds(orientation)
    return PrepCircuit(
        n_sites=star.n_sites,
        gates=tuple(_dimer_gates(pairs)),
        dimer_pairs=pairs,
    )


def dressed_initial(star: StarPlaquette, cz_bonds=None) -> PrepCircuit:
    """Pinwheel followed by a layer of CZ gates on dimer-free outer bonds."""
    free = set(map(frozenset, star.free_outer_bonds("cw")))
    if cz_bonds is None:
        cz_bonds = star.free_outer_bonds("cw")
    cz_bonds = tuple(tuple(b) for b in cz_bonds)
    for b in cz_bonds:
        if max(b) >= star.n_sites or min(b) < 0:
            raise ValueError(f"CZ bond {b} touches a non-existent site")
        if frozenset(b) not in free:
            raise ValueError(f"CZ bond {b} is not a dimer-free outer bond")
    base = pinwheel(star, "cw")
    gates = list(base.gates) + [cz_gate(a, b) for (a, b) in cz_bonds]
    return PrepCircuit(
        n_sites=star.n_sites,
        gates=tuple(gates),
        dimer_pairs=base.dimer_pairs,
        cz_bonds=cz_bonds,
    )


def sector_initial(star: StarPlaquette, sz: int) -> PrepCircuit:
    """Partial dimer covering with total S^z = sz (n/2 - sz dimers)."""
    if star.n_triangles not in SECTOR_DIMERS:
        raise ValueError(
            f"sector states are defined for the {sorted(SECTOR_DIMERS)}-triangle stars"
        )
    table = SECTOR_DIMERS[star.n_triangles]
    if sz not in table:
        raise ValueError(f"no sector state for S^z={sz} on {star.n_sites} sites")
    pairs = table[sz]
    return PrepCircuit(
        n_sites=star.n_sites,
        gates=tuple(_dimer_gates(pairs)),
        dimer_pairs=pairs,
    )


def reference_superposition(psi0_prep: PrepCircuit, phase=1) -> PrepCircuit:
    """Circuit preparing (phase * |psi0> + |all-up>)/sqrt(2), phase in {1, i}.

    GHZ ladder over the dimer-covered sites, an optional S gate for phase=i,
    the dimer mapper on each pair, then the original CZ dressing.
    """
    if phase not in (1, 1j):
        raise ValueError("phase must be 1 or 1j")
    if not psi0_prep.dimer_pairs:
        raise ValueError("reference superposition needs a dimer-product psi0 preparation")
    if abs(psi0_prep.state()[0]) > 1e-10:
        raise ValueError("psi0 is not orthogonal to the all-up reference state")

    covered = sorted({q for pair in psi0_prep.dimer_pairs for q in pair})
    gates: list[GateOp] = [h_gate(covered[0])]
    for a, b in zip(covered, covered[1:]):
        gates.append(cnot_gate(a, b))
    if phase == 1j:
        gates.append(phase_gate(covered[0], np.pi / 2))
    for (a, b) in psi0_prep.dimer_pairs:
        gates.append(GateOp((a, b), MAPPER_MATRIX, "DIMER_MAP"))
    gates += [cz_gate(a, b) for (a, b) in psi0_prep.cz_bonds]
    return PrepCircuit(
        n_sites=psi0_prep.n_sites,
        gates=tuple(gates),
        dimer_pairs=psi0_prep.dimer_pairs,
        cz_bonds=psi0_prep.cz_bonds,
    )


def invert(prep: PrepCircuit) -> PrepCircuit:
    return PrepCircuit(
        n_sites=prep.n_sites,
        gates=tuple(g.inverse for g in reversed(prep.gates)),
        dimer_pairs=prep.dimer_pairs,
        cz_bonds=prep.cz_bonds,
    )
