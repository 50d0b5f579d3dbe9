"""Heisenberg Hamiltonian, exact diagonalization, and spectral bounds.

Convention: H = eps * sum_bonds sigma_i . sigma_j  -  h * sum_i S_i^z with
S^z = sigma^z / 2 and eps = J/2.  All energies, fields, and times are in
units of eps, which makes the bond term eigenvalues {-3, +1} and each
triangle term exactly {-3 (x4), +3 (x4)}.

H commutes with total S^z, so it is block diagonal over magnetization
sectors; diagonalization, evolution, and the full spectrum all go through
the sector blocks (dimension C(n, n/2 - Sz)) rather than the 2^n matrix.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .statevec import MAX_QUBITS as QUBIT_CAP

DEGENERACY_RTOL = 1e-9


def _sector_indices(n: int) -> list[np.ndarray]:
    """Basis indices grouped by number of down spins (popcount)."""
    idx = np.arange(1 << n, dtype=np.int64)
    pop = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        pop += (idx >> q) & 1
    return [idx[pop == k] for k in range(n + 1)]


@dataclass
class SpectralBounds:
    e_min: float
    e_max: float
    dt_max: float


class SpectrumResult:
    """Eigen-decomposition of H restricted to one S^z sector; ``vectors``
    columns live on ``basis`` (basis-state indices)."""

    def __init__(self, energies, vectors, basis, sector):
        order = np.argsort(energies, kind="stable")
        self.energies = np.asarray(energies)[order]
        self.vectors = np.asarray(vectors)[:, order]
        self.basis = np.asarray(basis, dtype=np.int64)
        self.sector = sector

    @property
    def ground_subspace(self) -> np.ndarray:
        e0 = self.energies[0]
        tol = DEGENERACY_RTOL * max(1.0, abs(e0)) + 1e-12
        return np.nonzero(self.energies <= e0 + tol)[0]

    def overlaps(self, psi: np.ndarray) -> np.ndarray:
        """|<v_i|psi>|^2 for every eigenvector."""
        return np.abs(self.vectors.conj().T @ psi[self.basis]) ** 2


class SpinHamiltonian:
    """Heisenberg model on a star plaquette or kagome patch."""

    def __init__(self, lattice, h_field: float = 0.0):
        if lattice.n_sites > QUBIT_CAP:
            raise ValueError(f"{lattice.n_sites} sites exceeds the qubit cap of {QUBIT_CAP}")
        self.lattice = lattice
        self.h_field = float(h_field)
        self.n_sites = lattice.n_sites
        self.dim = 1 << self.n_sites
        self._sectors = _sector_indices(self.n_sites)
        self._blocks: dict[int, np.ndarray] = {}
        self._eigs: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- construction ------------------------------------------------------

    def _sz_of_ndown(self, n_down: int) -> float:
        return (self.n_sites - 2 * n_down) / 2

    def _ndown_of_sz(self, sz: float) -> int:
        n_down = self.n_sites / 2 - sz
        if n_down != int(n_down) or not 0 <= n_down <= self.n_sites:
            raise ValueError(f"empty S^z sector {sz} for {self.n_sites} sites")
        return int(n_down)

    def sector_basis(self, sz: float) -> np.ndarray:
        return self._sectors[self._ndown_of_sz(sz)]

    def _block(self, n_down: int) -> np.ndarray:
        """Dense sector block, built by bitwise accumulation."""
        if n_down in self._blocks:
            return self._blocks[n_down]
        basis = self._sectors[n_down]
        pos = {int(b): i for i, b in enumerate(basis)}
        d = len(basis)
        H = np.zeros((d, d))
        bits = [(basis >> q) & 1 for q in range(self.n_sites)]
        diag = np.zeros(d)
        for (i, j) in self.lattice.bonds:
            zi = 1 - 2 * bits[i]
            zj = 1 - 2 * bits[j]
            diag += (zi * zj).astype(float)
            differ = np.nonzero(bits[i] != bits[j])[0]
            mask = (1 << i) | (1 << j)
            for row in differ:
                H[pos[int(basis[row]) ^ mask], row] += 2.0
        sz = self._sz_of_ndown(n_down)
        np.fill_diagonal(H, diag - self.h_field * sz)
        self._blocks[n_down] = H
        return H

    def dense_matrix(self) -> np.ndarray:
        """Full 2^n x 2^n matrix (real symmetric in this basis)."""
        H = np.zeros((self.dim, self.dim))
        for n_down, basis in enumerate(self._sectors):
            H[np.ix_(basis, basis)] = self._block(n_down)
        return H

    # -- spectra -----------------------------------------------------------

    def _sector_eig(self, n_down: int):
        if n_down not in self._eigs:
            w, v = np.linalg.eigh(self._block(n_down))
            self._eigs[n_down] = (w, v)
        return self._eigs[n_down]

    def diagonalize(self, sector: float) -> SpectrumResult:
        n_down = self._ndown_of_sz(sector)
        w, v = self._sector_eig(n_down)
        return SpectrumResult(w, v, self._sectors[n_down], sector)

    def ground_state_energy(self, sector: float | None = None) -> float:
        if sector is not None:
            return float(self._sector_eig(self._ndown_of_sz(sector))[0][0])
        return min(float(self._sector_eig(k)[0][0]) for k in range(self.n_sites + 1))

    def sector_ground_energies(self) -> dict[float, float]:
        return {
            self._sz_of_ndown(k): float(self._sector_eig(k)[0][0])
            for k in range(self.n_sites + 1)
        }

    # -- operators on vectors ----------------------------------------------

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec, dtype=complex)
        for n_down, basis in enumerate(self._sectors):
            part = vec[basis]
            if np.any(part):
                out[basis] = self._block(n_down) @ part
        return out

    def expectation(self, vec: np.ndarray) -> float:
        return float(np.real(np.vdot(vec, self.matvec(vec))))

    def evolve(self, vec: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) applied blockwise over S^z sectors."""
        out = np.zeros_like(vec, dtype=complex)
        for n_down, basis in enumerate(self._sectors):
            part = vec[basis]
            if np.any(part):
                w, v = self._sector_eig(n_down)
                out[basis] = v @ (np.exp(-1j * w * t) * (v.conj().T @ part))
        return out

    def autocorrelation(self, vec: np.ndarray, times) -> np.ndarray:
        """<vec| exp(-i H t) |vec> for every t in ``times``.

        Summed from the sector spectra as sum_i |<E_i|vec>|^2 exp(-i E_i t),
        one matrix product per S^z sector that ``vec`` touches, so no state
        is evolved.
        """
        if len(vec) != self.dim:
            raise ValueError("state dimension does not match Hamiltonian")
        times = np.asarray(times, dtype=float)
        out = np.zeros(times.shape, dtype=complex)
        for n_down, basis in enumerate(self._sectors):
            part = vec[basis]
            if np.any(part):
                w, v = self._sector_eig(n_down)
                out += np.exp(-1j * np.outer(times, w)) @ np.abs(v.conj().T @ part) ** 2
        return out

    # -- analytic quantities -------------------------------------------------

    def spectral_bounds(self) -> SpectralBounds:
        """||H|| bound 3*N_tri + |h|*n/2 and the admissible time step."""
        n_tri = self.lattice.n_triangles
        bound = 3.0 * n_tri + abs(self.h_field) * self.n_sites / 2.0
        return SpectralBounds(e_min=-bound, e_max=bound, dt_max=np.pi / bound)

    def check_time_step(self, dt: float) -> None:
        """Raise ValueError unless 0 < dt < pi/||H||, the admissibility bound
        that keeps every eigenphase E dt inside (-pi, pi)."""
        dt_max = self.spectral_bounds().dt_max
        if not 0 < dt < dt_max:
            raise ValueError(f"dt={dt:g} violates the admissibility bound 0 < dt < "
                             f"{dt_max:.6g} (the spectral bound for {self.n_sites} "
                             f"sites at h={self.h_field:g})")

    def reference_energy(self) -> float:
        """Energy of the fully polarized all-up state (the all-zero bitstring)."""
        return float(len(self.lattice.bonds) - self.h_field * self.n_sites / 2.0)


def subspace_overlap(psi: np.ndarray, spectrum: SpectrumResult) -> float:
    """Total weight of psi on the (degenerate) ground subspace."""
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("state must be normalized")
    ov = spectrum.overlaps(psi)
    return float(np.sum(ov[spectrum.ground_subspace]))


def write_spectrum_csv(path, ham: SpinHamiltonian) -> None:
    """Per-sector spectrum as ``sector,index,energy`` (energies in eps units)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sector", "index", "energy"])
        for n_down in range(ham.n_sites + 1):
            sz = ham._sz_of_ndown(n_down)
            res = ham.diagonalize(sz)
            for i, e in enumerate(res.energies):
                writer.writerow([f"{sz:g}", i, f"{e:.12f}"])
