"""Magnetization curves from per-sector ground energies at h = 0.

Each S^z sector's ground energy varies linearly with the field,
E_S(h) = E_S - h S, so the curve is the lower envelope of those lines over
h >= 0: plateaus of constant magnetization separated by crossing fields
h = (E_S' - E_S)/(S' - S).  ``estimate_sector_energies`` reads every sector
from one h = 0 Hamiltonian; ``cli`` writes the curves and sector energies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import krylov
from .hamiltonian import SpinHamiltonian, check_time_step
from .mirror import ExactEvolver, overlap_series_exact
from .prep import dressed_initial, sector_initial


@dataclass(frozen=True)
class Plateau:
    h_start: float
    h_end: float  # math.inf for the saturated plateau
    sz: int
    energy_at_h_start: float


@dataclass
class MagnetizationCurve:
    plateaus: tuple[Plateau, ...]  # half-open intervals [h_start, h_end) from h = 0

    @property
    def crossing_fields(self) -> tuple[float, ...]:
        return tuple(p.h_start for p in self.plateaus[1:])


def build_curve(sector_energies: dict[int, float], n_sites: int) -> MagnetizationCurve:
    """Lower envelope of the sector lines E_S - h S over h >= 0."""
    needed = set(range(n_sites // 2 + 1))
    present = {int(s) for s in sector_energies}
    if not needed <= present:
        raise ValueError(f"missing sectors: {sorted(needed - present)}")
    energies = {int(s): float(e) for s, e in sector_energies.items() if int(s) in needed}
    if min(energies, key=energies.get) != 0:
        raise ValueError("S^z = 0 is not the minimal sector at h = 0")

    plateaus = []
    sz, h = 0, 0.0
    smax = n_sites // 2
    while sz < smax:
        candidates = [
            ((energies[s2] - energies[sz]) / (s2 - sz), s2)
            for s2 in range(sz + 1, smax + 1)
        ]
        h_next = min(c[0] for c in candidates)
        # at a tie the larger jump wins immediately beyond the crossing
        s_next = max(s2 for c, s2 in candidates if abs(c - h_next) < 1e-12)
        plateaus.append(Plateau(h, h_next, sz, energies[sz] - h * sz))
        sz, h = s_next, h_next
    plateaus.append(Plateau(h, math.inf, smax, energies[smax] - h * smax))
    return MagnetizationCurve(tuple(plateaus))


def sector_solver_settings(lattice, method: str = "uvqpe", delta: float | None = None,
                           n_steps: int | None = None, dt: float | None = None) -> dict:
    """The settings {dt, n_steps, delta} of a ``method`` pass on ``lattice``,
    each None taking its per-lattice default, checked before any ED: ValueError
    for an unknown or Floquet-only ``method``, ``delta`` outside [DELTA_FLOOR, 1],
    ``n_steps`` below the solver's first step or ``dt`` past the h = 0 bound.

    Both stars use a time step near their admissibility bound: the 8-spin
    star then reaches machine precision in every sector within 20 steps,
    while the 12-spin star still needs a long horizon for its slow
    S^z = 1, 2 sectors (near-degenerate low-lying levels).
    """
    first = krylov.solver_spec(method).first_step
    # 12 spins: delta below 1e-6 keeps the near-degenerate S^z=1 estimate from
    # jittering between the ground level and its 0.016-gap neighbors
    defaults = (0.17, 150, 1e-8) if lattice.n_triangles == 6 else (0.2, 40, 1e-6)
    settings = {key: default if value is None else value for key, value, default
                in zip(("dt", "n_steps", "delta"), (dt, n_steps, delta), defaults)}
    krylov.check_deltas([settings["delta"]], "delta")
    if settings["n_steps"] < first:
        raise ValueError(f"n_steps must be >= {first} for {method}")
    check_time_step(lattice, settings["dt"])
    return settings


def sector_series(ham, sz: int, dt: float, n_steps: int, sz0_cz_bonds=None):
    """Exact series s_0 .. s_{n_steps} of sector ``sz``'s initial state on the
    h = 0 Hamiltonian ``ham``: ``sector_initial`` for S^z != 0, and for S^z = 0
    the pinwheel dressed with CZ gates on ``sz0_cz_bonds`` (default: every
    free outer bond of the 8-spin star, every other one of the 12-spin star,
    the higher-overlap variant)."""
    star = ham.lattice
    if sz0_cz_bonds is None:
        free = star.free_outer_bonds("cw")
        sz0_cz_bonds = free[::2] if star.n_triangles == 6 else free
    prep = dressed_initial(star, sz0_cz_bonds) if sz == 0 else sector_initial(star, sz)
    return overlap_series_exact(prep.state(), ExactEvolver(ham), dt, n_steps)


def estimate_sector_energies(lattice, method: str = "uvqpe", delta: float | None = None,
                             n_steps: int | None = None, dt: float | None = None):
    """One ``method`` solve of every S^z sector's ``sector_series`` (its
    default S^z = 0 state) at ``n_steps`` on ``lattice``.

    ``sector_solver_settings`` resolves and checks ``method``, ``delta``,
    ``n_steps`` and ``dt`` before any Hamiltonian is built.  One h = 0
    Hamiltonian serves every sector, series before ED energy: the series
    decomposes the sector once, and its eigenvectors die within it, so one
    sector's are alive at a time and none at a sweep; the ED energy reads the
    energies it kept.  Returns (energies, meta); ``meta[sz]`` holds
    ``exact``, the sector's ED ground energy (the one ``cli`` writes), the
    estimate's error against it, its retained rank and flags, and
    ``converged``: an error above 1e-3 marks the sector unconverged, whether
    the solver settled on an excited level or is still drifting.
    """
    dt, n_steps, delta = sector_solver_settings(lattice, method, delta, n_steps, dt).values()
    ham = SpinHamiltonian(lattice)
    energies, meta = {}, {}
    for sz in range(lattice.n_triangles + 1):
        series = sector_series(ham, sz, dt, n_steps)
        e_exact = ham.ground_state_energy(sector=float(sz))
        estimate, = krylov.sweep(method, [series], [n_steps], [delta])[n_steps, delta]
        error = abs(estimate.energy - e_exact)
        energies[sz] = estimate.energy
        meta[sz] = {"converged": error <= 1e-3, "exact": e_exact, "final_error": error,
                    "retained_rank": estimate.retained_rank, "flags": estimate.flags}
    return energies, meta
