"""Heisenberg Hamiltonian, exact diagonalization, and spectral bounds.

Convention: H = eps * sum_bonds sigma_i . sigma_j  -  h * sum_i S_i^z with
S^z = sigma^z / 2 and eps = J/2.  All energies, fields, and times are in
units of eps, which makes the bond term eigenvalues {-3, +1} and each
triangle term exactly {-3 (x4), +3 (x4)}.

H commutes with total S^z and with the lattice's site permutation
``rotation`` T (the star's turn by one triangle; T is the identity for a
lattice without one).  Each S^z sector, of dimension C(n, n/2 - Sz), splits
into momentum blocks m < N, N the order of T on the sector.  Block m acts on
the T-orbit representatives r (smallest basis index of an orbit of length
L_r) with m L_r divisible by N, in the states
|r, m> = L_r^(-1/2) sum_{j < L_r} w^(-m j) T^j |r>, w = exp(2 pi i / N); it is
built from the representatives' bond flips as
H_m[r', r] = sum over flips of r onto T^j r' of 2 w^(m j) sqrt(L_r / L_r'),
and is real for m = 0 and m = N/2; H_{N-m} = conj(H_m) on the same
representatives, so one ``eigh`` of H_m serves the conjugate pair: block N-m
stores block m's eigenvalues w and eigenvector array v itself, and reads its
eigenvectors conj(v) through v (its projection is v^T, its evolution conj(v)
applied where it is used).  Spectra, evolution and overlap series all go
through the blocks, whose eigenvectors stay in block form.  The exact overlap
series releases each sector's eigenvector arrays before it builds the
sector's phase matrix, the exact path's one memory bound; a released sector
keeps its eigenvalues and index arrays and is decomposed again, by the same
``eigh`` calls, when its eigenvectors are next read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .statevec import MAX_QUBITS as QUBIT_CAP


@lru_cache(maxsize=None)
def _sector_indices(n: int) -> tuple[np.ndarray, ...]:
    """Basis indices grouped by number of down spins (popcount), computed
    once per site count and shared, read-only, by every Hamiltonian."""
    idx = np.arange(1 << n, dtype=np.int64)
    pop = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        pop += (idx >> q) & 1
    sectors = tuple(idx[pop == k] for k in range(n + 1))
    for basis in sectors:
        basis.flags.writeable = False
    return sectors


def norm_bound(lattice, h_field: float = 0.0) -> float:
    """The bound 3*N_tri + |h|*n/2 on ||H|| at ``h_field``: every eigenvalue lies within it."""
    return 3.0 * lattice.n_triangles + abs(float(h_field)) * lattice.n_sites / 2.0


def check_time_step(lattice, dt: float, h_field: float = 0.0) -> None:
    """Raise ValueError unless 0 < dt < pi/||H||, the admissibility bound
    that keeps every eigenphase E dt inside (-pi, pi)."""
    dt_max = np.pi / norm_bound(lattice, h_field)
    if not 0 < dt < dt_max:
        raise ValueError(f"dt={dt:g} violates the admissibility bound 0 < dt < "
                         f"{dt_max:.6g} (the spectral bound for {lattice.n_sites} "
                         f"sites at h={float(h_field):g})")


@dataclass
class _SectorBlocks:
    """Momentum blocks (m, representatives admitting m, eigenvalues w,
    eigenvector array v, conj) of one S^z sector: block m's eigenvectors are
    v, or conj(v) when ``conj`` is set, and then v is the array of its
    conjugate partner N - m, shared rather than copied.  Sector basis state b
    is T^shift[b] of representative orbit[b]; scale[r] = L_r^(-1/2);
    omega[j, m] = w^(j m).  ``release`` sets every v to None."""

    orbit: np.ndarray
    shift: np.ndarray
    scale: np.ndarray
    omega: np.ndarray
    blocks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray | None, bool]]
    energies: np.ndarray  # every eigenvalue of the sector, ascending

    def release(self) -> None:
        """Drop the eigenvector arrays; energies and block eigenvalues stay."""
        self.blocks = [(m, keep, w, None, conj) for m, keep, w, _, conj in self.blocks]

    def fold(self, part: np.ndarray) -> np.ndarray:
        """<r, m|part> as an (orbits, N) array, for amplitudes on the sector basis."""
        a = np.zeros((len(self.scale), len(self.omega)), dtype=complex)
        a[self.orbit, self.shift] = part
        return (a @ self.omega) * self.scale[:, None]

    def unfold(self, c: np.ndarray) -> np.ndarray:
        """Amplitudes on the sector basis of sum_{r, m} c[r, m] |r, m>."""
        return ((c * self.scale[:, None]) @ self.omega.conj())[self.orbit, self.shift]


class SpinHamiltonian:
    """Heisenberg model on a star plaquette (or any lattice with sites and bonds)."""

    def __init__(self, lattice, h_field: float = 0.0):
        if lattice.n_sites > QUBIT_CAP:
            raise ValueError(f"{lattice.n_sites} sites exceeds the qubit cap of {QUBIT_CAP}")
        self.lattice = lattice
        self.h_field = float(h_field)
        self.n_sites = lattice.n_sites
        self.dim = 1 << self.n_sites
        self._sectors = _sector_indices(self.n_sites)
        self._eigs: dict[int, _SectorBlocks] = {}
        rot = tuple(getattr(lattice, "rotation", None) or range(self.n_sites))
        if (sorted(rot) != list(range(self.n_sites)) or set(map(frozenset, lattice.bonds))
                != {frozenset((rot[i], rot[j])) for i, j in lattice.bonds}):
            raise ValueError("lattice rotation is not a site permutation that maps "
                             "the bonds onto themselves")
        self._rotation = rot

    # -- construction ------------------------------------------------------

    def _sz_of_ndown(self, n_down: int) -> float:
        return (self.n_sites - 2 * n_down) / 2

    def _ndown_of_sz(self, sz: float) -> int:
        n_down = self.n_sites / 2 - sz
        if n_down != int(n_down) or not 0 <= n_down <= self.n_sites:
            raise ValueError(f"empty S^z sector {sz} for {self.n_sites} sites")
        return int(n_down)

    # -- spectra -----------------------------------------------------------

    def _sector_eig(self, n_down: int, vectors: bool = True) -> _SectorBlocks:
        """One ``eigh`` per conjugate pair of momentum blocks of the sector,
        cached; a sector whose eigenvectors were released is decomposed again
        only when ``vectors`` asks for them."""
        sec = self._eigs.get(n_down)
        # block m = 0 never shares its partner's array: its v tells a released sector
        if sec is not None and (not vectors or sec.blocks[0][3] is not None):
            return sec
        basis = self._sectors[n_down]
        images = [basis]
        while True:
            nxt = sum(((images[-1] >> s) & 1) << t for s, t in enumerate(self._rotation))
            if np.array_equal(nxt, basis):
                break
            images.append(nxt)
        images, n_rot = np.array(images), len(images)
        reps, orbit = np.unique(images.min(axis=0), return_inverse=True)
        shift = -images.argmin(axis=0) % n_rot  # basis[b] = T^shift[b] reps[orbit[b]]
        length = np.bincount(orbit)
        scale = 1.0 / np.sqrt(length)
        root = np.exp(2j * np.pi * np.arange(n_rot) / n_rot)
        if n_rot % 2 == 0:
            root[n_rot // 2] = -1.0  # exact, so the m = N/2 block is real
        omega = root[np.outer(np.arange(n_rot), np.arange(n_rot)) % n_rot]

        zz, src, dst, hop = np.zeros(len(reps), dtype=np.int64), [], [], []
        for (i, j) in self.lattice.bonds:
            differ = ((reps >> i) ^ (reps >> j)) & 1
            zz += 1 - 2 * differ
            flip = np.nonzero(differ)[0]
            b = np.searchsorted(basis, reps[flip] ^ ((1 << i) | (1 << j)))
            src.append(flip)
            dst.append(orbit[b])
            hop.append(shift[b])
        src, dst, hop = (np.concatenate(x) for x in (src, dst, hop))
        amp = 2.0 * scale[dst] / scale[src]
        diag = zz - self.h_field * self._sz_of_ndown(n_down)
        blocks = []
        for m in range(n_rot):
            if 2 * m > n_rot:  # H_{N-m} = conj(H_m) on the same keep: same w, conjugate v
                blocks.append((m, *blocks[n_rot - m][1:4], True))
                continue
            keep = np.nonzero(m * length % n_rot == 0)[0]
            h = np.zeros((len(reps), len(reps)), dtype=complex)
            np.add.at(h, (dst, src), amp * omega[hop, m])
            h = h[np.ix_(keep, keep)] + np.diag(diag[keep])
            blocks.append((m, keep, *np.linalg.eigh(h.real if 2 * m % n_rot == 0 else h), False))
        energies = np.sort(np.concatenate([w for _, _, w, _, _ in blocks]))
        self._eigs[n_down] = _SectorBlocks(orbit, shift, scale, omega, blocks, energies)
        return self._eigs[n_down]

    def ground_state_energy(self, sector: float | None = None) -> float:
        if sector is not None:
            return float(self._sector_eig(self._ndown_of_sz(sector), False).energies[0])
        return min(float(self._sector_eig(k, False).energies[0])
                   for k in range(self.n_sites + 1))

    def sector_spectra(self) -> dict[float, np.ndarray]:
        """{S^z: every eigenvalue of the sector, ascending}, from S^z = n/2 down."""
        return {self._sz_of_ndown(k): self._sector_eig(k, False).energies
                for k in range(self.n_sites + 1)}

    def sector_ground_energies(self) -> dict[float, float]:
        return {sz: float(energies[0]) for sz, energies in self.sector_spectra().items()}

    # -- operators on vectors ----------------------------------------------

    def _projections(self, vec: np.ndarray):
        """(basis, blocks, V^H <r, m|vec> per block) for each S^z sector that
        ``vec`` touches."""
        if len(vec) != self.dim:
            raise ValueError("state dimension does not match Hamiltonian")
        for n_down, basis in enumerate(self._sectors):
            part = vec[basis]
            if np.any(part):
                sec = self._sector_eig(n_down)
                c = sec.fold(part)
                # (conj v)^H = v^T: a conjugated block projects with its partner's v
                yield basis, sec, [(v if conj else v.conj()).T @ c[keep, m]
                                   for m, keep, _, v, conj in sec.blocks]

    def evolve(self, vec: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) applied blockwise over S^z sectors and momenta."""
        out = np.zeros_like(vec, dtype=complex)
        for basis, sec, coeffs in self._projections(vec):
            c = np.zeros((len(sec.scale), len(sec.omega)), dtype=complex)
            for (m, keep, w, v, conj), a in zip(sec.blocks, coeffs):
                c[keep, m] = (v.conj() if conj else v) @ (np.exp(-1j * w * t) * a)
            out[basis] = sec.unfold(c)
        return out

    def autocorrelation(self, vec: np.ndarray, times) -> np.ndarray:
        """<vec| exp(-i H t) |vec> for every t in ``times``.

        Summed from the block spectra as sum_i |<E_i|vec>|^2 exp(-i E_i t),
        one matrix product per S^z sector that ``vec`` touches, so no state
        is evolved.  Each sector is first reduced to its eigenvalues and
        weights, and its eigenvector arrays are released; only then is each
        sector's (times x eigenvalues) phase matrix written, once, as -t E_i
        into the imaginary view of a complex zero array and exponentiated in
        place.  The product stays one call, since a product split into row
        blocks need not round the same.
        """
        times = np.asarray(times, dtype=float)
        spectra = []
        for _, sec, coeffs in self._projections(vec):
            spectra.append((np.concatenate([w for _, _, w, _, _ in sec.blocks]),
                            np.abs(np.concatenate(coeffs)) ** 2))
            sec.release()
        out = np.zeros(times.shape, dtype=complex)
        for w, weights in spectra:
            phases = np.zeros((len(times), len(w)), dtype=complex)
            np.outer(-times, w, out=phases.imag)
            out += np.exp(phases, out=phases) @ weights
        return out

    # -- analytic quantities -------------------------------------------------

    def reference_energy(self) -> float:
        """Energy of the fully polarized all-up state (the all-zero bitstring)."""
        return float(len(self.lattice.bonds) - self.h_field * self.n_sites / 2.0)
