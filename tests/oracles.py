"""Reference constructions and diagnostics that only the tests use: a sector's
spectrum with its eigenvectors unfolded from the momentum blocks, the
momentum blocks with an eigenvector array of their own each and the block
projections, evolution and one-shot spectral sum on them (the former block
storage and spectral sum of ``SpinHamiltonian``), the spectral sum that
keeps each sector's eigenvectors beside its phase matrix, filled
``_PHASE_ROWS`` rows at a time (the former ``autocorrelation``), the full
S^z sector blocks of a ``SpinHamiltonian`` built by bitwise accumulation, the
2^n matrix, products with it, the ground-subspace weight of a state, the
single-cell Krylov solvers that keep each estimate's eigenvalue and Ritz
vector (``krylov.sweep``'s former path: SVD and ``eig``, and odmd's d x d
propagator) on the Toeplitz and Hankel pairs as arrays of their own, one
sweep cell solved on its own with the sweep's decompositions and one pencil
(``sweep_eigenvalues``, ``sweep_cell``) and its estimate
picked from one eigenvalue row (the sweep's former per-row pick), the overlaps of
that Ritz vector with the exact eigenstates, kagome patches, the
bond-by-bond Trotter scheme, analytic CNOT counts per Trotter step,
predicted step counts, the magnetization M(h) read off a curve, the sector
energies from one shared Hamiltonian with every ED first (the flow the
one-pass estimate replaced) and from one Hamiltonian per sector (the former
one-pass estimate), and the
mirror-circuit quantities: W(t) applied to one state (``evolve``), the exact
overlap <psi0|W(t)|psi0> (``exact_overlap``), mirrored states built one state
at a time, their all-zero probabilities, the all-zero share of samples
(``all_zero_fraction``), exact F1/F2/F3, one sampled
estimation cell, the former scalar overlap reconstruction
(``reconstruct``), the series reconstructed from exact fractions, the
shot-noise reference curve and the former shot split (``former_allocate``);
and the freshly keyed stream generator, the
noiseless pool's former draw, and the one-trajectory-at-a-time noise channel
that the batched sampler replaces."""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from starkrylov import krylov, mirror
from starkrylov.hamiltonian import SpinHamiltonian, check_time_step
from starkrylov.magnet import sector_series, sector_solver_settings
from starkrylov.mirror import _estimate_cells, _MirrorCircuits
from starkrylov.noise import PAULI_NAMES, twirl_layer
from starkrylov.prep import invert, reference_superposition
from starkrylov.statevec import _StreamOpener, apply_circuit, apply_gate_amps, pauli_gate
from starkrylov.trotter import TrotterScheme

DEGENERACY_RTOL = 1e-9


class SpectrumResult:
    """Eigen-decomposition of H restricted to one S^z sector; ``vectors``
    columns live on ``basis`` (basis-state indices)."""

    def __init__(self, energies, vectors, basis):
        order = np.argsort(energies, kind="stable")
        self.energies = np.asarray(energies)[order]
        self.vectors = np.asarray(vectors)[:, order]
        self.basis = np.asarray(basis, dtype=np.int64)

    @property
    def ground_subspace(self) -> np.ndarray:
        e0 = self.energies[0]
        tol = DEGENERACY_RTOL * max(1.0, abs(e0)) + 1e-12
        return np.nonzero(self.energies <= e0 + tol)[0]

    def overlaps(self, psi: np.ndarray) -> np.ndarray:
        """|<v_i|psi>|^2 for every eigenvector."""
        return np.abs(self.vectors.conj().T @ psi[self.basis]) ** 2


def diagonalize(ham, sz: float) -> SpectrumResult:
    """Sector sz's spectrum with the momentum-block eigenvectors of
    ``ham._sector_eig`` unfolded onto the sector basis (complex, d x d)."""
    n_down = ham._ndown_of_sz(sz)
    sec = ham._sector_eig(n_down)
    energies, vectors = [], []
    for m, keep, w, v in explicit_blocks(sec):
        padded = np.zeros((len(sec.scale), len(w)), dtype=complex)
        padded[keep] = v * sec.scale[keep, None]
        vectors.append(sec.omega[sec.shift, m].conj()[:, None] * padded[sec.orbit])
        energies.append(w)
    return SpectrumResult(np.concatenate(energies), np.hstack(vectors), ham._sectors[n_down])


def explicit_blocks(sec) -> list:
    """(m, keep, w, v) of every momentum block of ``sec`` with the block's
    own eigenvectors: an explicit ``v.conj()`` copy for a block that shares
    its conjugate partner's array."""
    return [(m, keep, w, v.conj() if conj else v) for m, keep, w, v, conj in sec.blocks]


def block_projections(ham, vec: np.ndarray):
    """(basis, sector, blocks, V^H <r, m|vec> per block) for each S^z sector
    that ``vec`` touches, over ``explicit_blocks``."""
    for n_down, basis in enumerate(ham._sectors):
        part = vec[basis]
        if np.any(part):
            sec = ham._sector_eig(n_down)
            blocks, c = explicit_blocks(sec), sec.fold(part)
            yield basis, sec, blocks, [v.conj().T @ c[keep, m] for m, keep, _, v in blocks]


def block_evolve(ham, vec: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) vec over ``explicit_blocks``."""
    out = np.zeros_like(vec, dtype=complex)
    for basis, sec, blocks, coeffs in block_projections(ham, vec):
        c = np.zeros((len(sec.scale), len(sec.omega)), dtype=complex)
        for (m, keep, w, v), a in zip(blocks, coeffs):
            c[keep, m] = v @ (np.exp(-1j * w * t) * a)
        out[basis] = sec.unfold(c)
    return out


def spectral_sum(ham, vec: np.ndarray, times) -> np.ndarray:
    """<vec| exp(-i H t) |vec> per time as the one-shot sum
    exp(-i outer(times, w)) @ weights of each sector over ``explicit_blocks``."""
    times = np.asarray(times, dtype=float)
    out = np.zeros(times.shape, dtype=complex)
    for _, _, blocks, coeffs in block_projections(ham, vec):
        w = np.concatenate([w for _, _, w, _ in blocks])
        weights = np.abs(np.concatenate(coeffs)) ** 2
        out += np.exp(-1j * np.outer(times, w)) @ weights
    return out


_PHASE_ROWS = 64  # rows of the former phase-matrix fill per float outer product


def held_autocorrelation(ham, vec: np.ndarray, times) -> np.ndarray:
    """<vec| exp(-i H t) |vec> per time by the former path of
    ``SpinHamiltonian.autocorrelation``: each sector's phase matrix is filled
    ``_PHASE_ROWS`` rows at a time, exponentiated in place and summed while
    the sector's eigenvectors stay cached beside it."""
    times = np.asarray(times, dtype=float)
    out = np.zeros(times.shape, dtype=complex)
    for _, sec, coeffs in ham._projections(vec):
        w = np.concatenate([w for _, _, w, _, _ in sec.blocks])
        phases = np.empty((len(times), len(w)), dtype=complex)
        for i in range(0, len(times), _PHASE_ROWS):
            rows = slice(i, i + _PHASE_ROWS)
            np.multiply(-1j, np.outer(times[rows], w), out=phases[rows])
        out += np.exp(phases, out=phases) @ (np.abs(np.concatenate(coeffs)) ** 2)
    return out


def sector_basis(ham, sz: float) -> np.ndarray:
    return ham._sectors[ham._ndown_of_sz(sz)]


def sector_block(ham, n_down: int) -> np.ndarray:
    """Dense sector block, built by bitwise accumulation."""
    basis = ham._sectors[n_down]
    pos = {int(b): i for i, b in enumerate(basis)}
    d = len(basis)
    H = np.zeros((d, d))
    bits = [(basis >> q) & 1 for q in range(ham.n_sites)]
    diag = np.zeros(d)
    for (i, j) in ham.lattice.bonds:
        zi = 1 - 2 * bits[i]
        zj = 1 - 2 * bits[j]
        diag += (zi * zj).astype(float)
        differ = np.nonzero(bits[i] != bits[j])[0]
        mask = (1 << i) | (1 << j)
        for row in differ:
            H[pos[int(basis[row]) ^ mask], row] += 2.0
    sz = ham._sz_of_ndown(n_down)
    np.fill_diagonal(H, diag - ham.h_field * sz)
    return H


def dense_matrix(ham) -> np.ndarray:
    """Full 2^n x 2^n matrix (real symmetric in this basis)."""
    H = np.zeros((ham.dim, ham.dim))
    for n_down, basis in enumerate(ham._sectors):
        H[np.ix_(basis, basis)] = sector_block(ham, n_down)
    return H


def matvec(ham, vec: np.ndarray) -> np.ndarray:
    out = np.zeros_like(vec, dtype=complex)
    for n_down, basis in enumerate(ham._sectors):
        part = vec[basis]
        if np.any(part):
            out[basis] = sector_block(ham, n_down) @ part
    return out


def expectation(ham, vec: np.ndarray) -> float:
    return float(np.real(np.vdot(vec, matvec(ham, vec))))


def subspace_overlap(psi: np.ndarray, spectrum) -> float:
    """Total weight of psi on the (degenerate) ground subspace."""
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("state must be normalized")
    ov = spectrum.overlaps(psi)
    return float(np.sum(ov[spectrum.ground_subspace]))


# -- single-cell Krylov solvers ----------------------------------------------

def toeplitz_pair(series, d: int):
    """(T, S), T_{jk} = s_{1+k-j} and S_{jk} = s_{k-j} for j, k < d, as arrays
    of their own: rows 0 .. d-1 and 1 .. d of ``krylov._toeplitz_rows``."""
    rows = krylov._toeplitz_rows(series, d)
    return rows[:-1].copy(), rows[1:].copy()


def hankel_pair(series, n_steps: int, window: int | None = None, real_part: bool = False):
    """(X, X'), X_{rc} = s_{r+c} and X'_{rc} = s_{r+c+1}, as arrays of their
    own: rows 0 .. d-1 and 1 .. d of ``krylov._hankel_rows``."""
    rows = krylov._hankel_rows(series, n_steps, window, real_part)
    return rows[:-1].copy(), rows[1:].copy()


@dataclass
class RitzEstimate:
    """One cell's estimate with the eigenvalue it came from and its Ritz
    coefficients over the Krylov basis states."""

    algorithm: str
    n_steps: int
    delta: float
    energy: float | None
    eigenvalue: complex | None
    ritz: np.ndarray | None
    retained_rank: int
    flags: tuple[str, ...] = ()


def _admissible_minimum(lam: np.ndarray, dt: float, band):
    """(index, energy, flags) of the minimum energy -arg(lambda)/dt over the
    eigenvalues with |lambda| inside ``band``, or over all of them, flagged,
    when none is."""
    energies = -np.angle(lam) / dt
    ok = (np.abs(lam) >= band[0]) & (np.abs(lam) <= band[1])
    flags: tuple[str, ...] = ()
    if not np.any(ok):
        ok = np.ones_like(energies, dtype=bool)
        flags = ("no_admissible_eigenvalue",)
    i = int(np.argmin(np.where(ok, energies, np.inf)))
    return i, float(energies[i]), flags


def pick_minimum(lam: np.ndarray, dt: float, band, rank: int) -> krylov.KrylovEstimate:
    """One eigenvalue row's estimate, picked on its own: the per-row pick
    that ``krylov.sweep`` replaced by one array pass over each rank group."""
    _, energy, flags = _admissible_minimum(lam, dt, band)
    return krylov.KrylovEstimate(energy, rank, flags)


def _pick_minimum(lam: np.ndarray, vecs: np.ndarray, dt: float, band):
    i, energy, flags = _admissible_minimum(lam, dt, band)
    return energy, complex(lam[i]), vecs[:, i], flags


def truncated_svd(M: np.ndarray, delta: float):
    """Thin SVD (U_r, sigma_r, V_r, flags) of M ~ U_r diag(sigma_r) V_r^H without
    the singular values below delta * sigma_max; flags the case where none stay."""
    U, sig, Vh = np.linalg.svd(M, full_matrices=False)
    keep = sig >= delta * sig[0]
    flags = () if keep.any() else ("all_singular_values_filtered",)
    return U[:, keep], sig[keep], Vh.conj().T[:, keep], flags


def _check_steps(algorithm: str, series, n_steps: int) -> None:
    first = krylov.SOLVERS[algorithm].first_step
    if n_steps < first or n_steps > series.n_max:
        raise ValueError(f"n_steps must be in [{first}, {series.n_max}]")


def uvqpe(series, n_steps: int, delta: float, band=krylov.DEFAULT_BAND) -> RitzEstimate:
    """Toeplitz GEVP T c = lambda S c over the first ``n_steps`` Krylov states,
    solved as (W_r^H S V_r)^{-1} W_r^H T V_r y = lambda y on the retained
    singular subspaces of S (``krylov.sweep``'s former path); the Ritz
    coefficients are c = V_r y."""
    _check_steps("uvqpe", series, n_steps)
    T, S = toeplitz_pair(series, n_steps)
    W, _, V, flags = truncated_svd(S, delta)
    if flags:
        return RitzEstimate("uvqpe", n_steps, delta, None, None, None, 0, flags)
    Wh = W.conj().T
    lam, vec = np.linalg.eig(np.linalg.solve(Wh @ S @ V, Wh @ T @ V))
    energy, eigenvalue, reduced, flags = _pick_minimum(lam, vec, series.dt, band)
    return RitzEstimate("uvqpe", n_steps, delta, energy, eigenvalue, V @ reduced,
                        V.shape[1], flags)


def odmd_propagator(series, n_steps: int, delta: float, window: int | None = None,
                    real_part: bool = False):
    """(A, r): the d x d one-step propagator A = X' V_r Sigma_r^{-1} U_r^H of
    ``krylov.sweep``'s former odmd path, whose rank is the retained rank r,
    or (None, 0) when no singular value of X passes delta."""
    _check_steps("odmd", series, n_steps)
    X, Xp = hankel_pair(series, n_steps, window, real_part)
    U, sig, V, flags = truncated_svd(X, delta)
    return (None, 0) if flags else (Xp @ (V @ np.diag(1.0 / sig) @ U.conj().T), len(sig))


def odmd(series, n_steps: int, delta: float, band=krylov.DEFAULT_BAND,
         window: int | None = None, real_part: bool = False) -> RitzEstimate:
    """Hankel least-squares fit of the one-step propagator: the minimum
    admissible energy over all d eigenvalues of ``odmd_propagator``'s A, d - r
    of them rounding noise (the former odmd path); the Ritz vectors are A's."""
    A, r = odmd_propagator(series, n_steps, delta, window, real_part)
    if A is None:
        return RitzEstimate("odmd", n_steps, delta, None, None, None, 0,
                            ("all_singular_values_filtered",))
    lam, vec = np.linalg.eig(A)
    energy, eigenvalue, ritz, flags = _pick_minimum(lam, vec, series.dt, band)
    return RitzEstimate("odmd", n_steps, delta, energy, eigenvalue, ritz, r, flags)


def solve(algorithm: str, series, n_steps: int, delta: float, **kwargs) -> RitzEstimate:
    """One cell solved on its own by the former path of ``krylov.sweep``: the
    SVD of S or X and ``eig`` with eigenvectors (for odmd, of the d x d
    propagator)."""
    spec = krylov.solver_spec(algorithm, series.neg_values is not None)
    return (odmd if spec.pair == "hankel" else uvqpe)(series, n_steps, delta, **kwargs)


def sweep_eigenvalues(algorithm: str, series, n_steps: int, delta: float,
                      window: int | None = None, real_part: bool = False):
    """(eigenvalues, r) of one cell of ``krylov.sweep`` solved on its own,
    with the sweep's decompositions and its one pencil: the pair (A, B),
    (T, S) or (X', X), on B's retained subspaces from ``eigh`` of the
    Hermitian S of a unitary series, its eigenpairs ordered by |lambda|
    descending and W_r = V_r = Q_r, or from the SVD of S or X otherwise, and
    ``eigvals`` of (W_r^H B V_r)^{-1} W_r^H A V_r.  Each product sees the
    operand layout it sees in the sweep."""
    spec = krylov.solver_spec(algorithm, series.neg_values is not None)
    _check_steps(algorithm, series, n_steps)
    if spec.pair == "hankel":
        B, A = hankel_pair(series, n_steps, window, real_part)
    else:
        A, B = toeplitz_pair(series, n_steps)
    if spec.pair == "toeplitz" and series.neg_values is None:
        lam, Q = np.linalg.eigh(B)
        order = np.argsort(-np.abs(lam), kind="stable")
        Q = Q[:, order]
        r = np.count_nonzero(np.abs(lam)[order] >= delta * np.abs(lam[order[0]]))
        Wh, V = np.conjugate(Q.T, order="C")[:r], Q[:, :r]
    else:
        W, _, V, _ = truncated_svd(B, delta)
        Wh, r = W.conj().T, W.shape[1]
    assert r >= 1, "sweep refuses a delta that keeps no singular value"
    return np.linalg.eigvals(np.linalg.solve(Wh @ B @ V, Wh @ A @ V)), r


def sweep_cell(algorithm: str, series, n_steps: int, delta: float, band=krylov.DEFAULT_BAND,
               window: int | None = None, real_part: bool = False) -> krylov.KrylovEstimate:
    """One cell of ``krylov.sweep`` solved on its own: the estimate picked
    from ``sweep_eigenvalues``' row."""
    lam, r = sweep_eigenvalues(algorithm, series, n_steps, delta, window, real_part)
    return pick_minimum(lam, series.dt, band, r)


# -- Ritz-vector diagnostics -------------------------------------------------

def ritz_state(estimate, basis_states) -> np.ndarray:
    """Normalized sum_k v_k |psi_k> over the Krylov basis."""
    if estimate.ritz is None:
        raise ValueError("estimate carries no Ritz coefficients")
    coeffs = estimate.ritz
    state = sum(c * b for c, b in zip(coeffs, basis_states))
    norm = np.linalg.norm(state)
    if norm < 1e-12:
        raise ValueError("Ritz combination has zero norm")
    return state / norm


def ritz_overlaps(estimate, basis_states, spectrum):
    """Per-eigenstate overlap table [(eig_index, energy, overlap_sq)], sorted
    by decreasing overlap."""
    state = ritz_state(estimate, basis_states)
    ov = spectrum.overlaps(state)
    order = np.argsort(ov)[::-1]
    return [(int(i), float(spectrum.energies[i]), float(ov[i])) for i in order]


def ritz_ground_overlap(estimate, basis_states, spectrum) -> float:
    state = ritz_state(estimate, basis_states)
    ov = spectrum.overlaps(state)
    return float(np.sum(ov[spectrum.ground_subspace]))


def cluster_overlaps(rows, atol: float = 1e-6):
    """Merge the per-eigenstate table over degenerate energies."""
    merged: list[list[float]] = []
    for _i, energy, ov in sorted(rows, key=lambda r: r[1]):
        if merged and abs(merged[-1][0] - energy) <= atol:
            merged[-1][1] += ov
        else:
            merged.append([energy, ov])
    return [(float(e), float(o)) for e, o in merged]


# -- kagome patches and CNOT accounting --------------------------------------

@dataclass(frozen=True)
class KagomePatch:
    """Open-boundary kagome patch of rows x cols unit cells, 3 sites per cell.

    Up triangles live inside cells; down triangles connect neighboring cells.
    Every bond belongs to exactly one triangle, so the patch supports the
    same triangle-wise decomposition and resource accounting as the stars.
    """

    rows: int
    cols: int
    n_sites: int
    bonds: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    parity: tuple[int, ...]  # 0 = up, 1 = down

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_groups(self):
        up = tuple(t for t, p in zip(self.triangles, self.parity) if p == 0)
        down = tuple(t for t, p in zip(self.triangles, self.parity) if p == 1)
        return up, down


def build_patch(rows: int, cols: int) -> KagomePatch:
    """Open-boundary kagome patch; geometry only, no size cap."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")

    def site(r, c, s):  # s in {0: A, 1: B, 2: C}
        return 3 * (r * cols + c) + s

    triangles = []
    parity = []
    for r in range(rows):
        for c in range(cols):
            triangles.append((site(r, c, 0), site(r, c, 1), site(r, c, 2)))
            parity.append(0)
    # down triangles: B(r,c) - A(r,c+1) - C(r-1,c+1)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols and r - 1 >= 0:
                triangles.append((site(r, c, 1), site(r, c + 1, 0), site(r - 1, c + 1, 2)))
                parity.append(1)
    bonds = []
    for (a, b, c) in triangles:
        bonds += [(a, b), (a, c), (b, c)]
    return KagomePatch(
        rows=rows,
        cols=cols,
        n_sites=3 * rows * cols,
        bonds=tuple(bonds),
        triangles=tuple(triangles),
        parity=tuple(parity),
    )


def bond_groups(star) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Four site-disjoint bond groups of a star: outer-even, outer-odd,
    inner-even, inner-odd."""
    n = star.n_triangles
    outer_even = tuple((k, n + k) for k in range(n))
    outer_odd = tuple((n + k, (k + 1) % n) for k in range(n))
    inner_even = tuple((k, k + 1) for k in range(0, n, 2))
    inner_odd = tuple(((k, (k + 1) % n)) for k in range(1, n, 2))
    return (outer_even, outer_odd, inner_even, inner_odd)


def bond_scheme(star) -> TrotterScheme:
    """The bond-by-bond scheme, one exact 2-qubit exponential per bond."""
    return TrotterScheme(kind="bond_by_bond", groups=bond_groups(star))


CNOTS_PER_TERM = {
    ("triangle_by_triangle", "full"): 8,
    ("triangle_by_triangle", "linear"): 12,
    ("bond_by_bond", "full"): 9,
    ("bond_by_bond", "linear"): 15,
}


def cnot_count(scheme, connectivity: str = "full",
               n_triangles: int | None = None) -> int:
    """Analytic CNOTs per Trotter step (counts per triangle x N_triangles)."""
    if connectivity not in ("full", "linear"):
        raise ValueError("connectivity must be 'full' or 'linear'")
    if n_triangles is None:
        if scheme.kind == "triangle_by_triangle":
            n_triangles = sum(len(g) for g in scheme.groups)
        else:
            n_triangles = sum(len(g) for g in scheme.groups) // 3
    return CNOTS_PER_TERM[(scheme.kind, connectivity)] * n_triangles


# -- step-count estimators ----------------------------------------------------

def step_bounds(spectral_range: float, p0: float, eps_target: float,
                gap: float, dt: float) -> tuple[int, int]:
    """Predicted step counts (j for the GEVP route, d for the Hankel route)."""
    if not 0 < p0 <= 1:
        raise ValueError("p0 must lie in (0, 1]")
    if gap <= 0 or dt <= 0 or eps_target <= 0 or spectral_range <= 0:
        raise ValueError("spectral_range, gap, dt, eps_target must be positive")
    d = ceil(1.0 / (gap * dt))
    sin_sq = 1.0 - p0
    if sin_sq <= 0:
        return 1, d
    arg = spectral_range * sin_sq / (p0 * eps_target)
    denom = 2.0 * log(1.0 + 3.0 * gap * dt / (2.0 * np.pi))
    j = max(1, ceil(log(arg) / denom)) if arg > 1 else 1
    return j, d


# -- magnetization curves ------------------------------------------------------

def magnetization(curve, h: float, per_site: bool = False) -> float:
    """Step function M(h) of a ``magnet.MagnetizationCurve``; plateau
    intervals are half-open [h_k, h_{k+1}).  The saturated plateau's S^z is
    n/2, which gives the site count n for ``per_site``."""
    if h < 0:
        raise ValueError("h must be >= 0")
    n_sites = 2 * curve.plateaus[-1].sz
    for p in curve.plateaus:
        if p.h_start <= h < p.h_end:
            return 2 * p.sz / n_sites if per_site else float(p.sz)
    raise AssertionError("plateaus do not cover h >= 0")


def shared_sector_energies(ham, method: str = "uvqpe", delta=None, n_steps=None, dt=None,
                           sz0_cz_bonds=None):
    """The magnetization flow that ``magnet.estimate_sector_energies`` replaced:
    on the one h = 0 Hamiltonian ``ham``, every sector's ED first (the former
    loop of ``cli.cmd_magnetization``), then each sector's series and sweep on
    the blocks that ED cached.  Returns (ED energies, energies, meta)."""
    settings = sector_solver_settings(ham.lattice)
    delta = settings["delta"] if delta is None else delta
    n_steps = settings["n_steps"] if n_steps is None else n_steps
    dt = settings["dt"] if dt is None else dt
    ed = {sz: ham.ground_state_energy(sector=sz) for sz in range(ham.n_sites // 2 + 1)}
    energies, meta = {}, {}
    for sz in range(ham.lattice.n_triangles + 1):
        series = sector_series(ham, sz, dt, n_steps, sz0_cz_bonds)
        estimate, = krylov.sweep(method, [series], [n_steps], [delta])[n_steps, delta]
        e_exact = ham.ground_state_energy(sector=float(sz))
        error = abs(estimate.energy - e_exact)
        energies[sz] = estimate.energy
        meta[sz] = {"converged": error <= 1e-3, "exact": e_exact, "final_error": error,
                    "retained_rank": estimate.retained_rank, "flags": estimate.flags}
    return ed, energies, meta


def per_sector_energies(lattice, method: str = "uvqpe", delta=None, n_steps=None, dt=None,
                        sz0_cz_bonds=None):
    """The former pass of ``magnet.estimate_sector_energies``: each sector's
    series and then its ED ground energy on an h = 0 Hamiltonian of its own,
    whose ``dt`` is checked before its ED, then the sector's sweep.
    Returns (energies, meta)."""
    settings = sector_solver_settings(lattice)
    delta = settings["delta"] if delta is None else delta
    n_steps = settings["n_steps"] if n_steps is None else n_steps
    dt = settings["dt"] if dt is None else dt
    energies, meta = {}, {}
    for sz in range(lattice.n_triangles + 1):
        ham = SpinHamiltonian(lattice)
        check_time_step(lattice, dt)
        series = sector_series(ham, sz, dt, n_steps, sz0_cz_bonds)
        e_exact = ham.ground_state_energy(sector=float(sz))
        estimate, = krylov.sweep(method, [series], [n_steps], [delta])[n_steps, delta]
        error = abs(estimate.energy - e_exact)
        energies[sz] = estimate.energy
        meta[sz] = {"converged": error <= 1e-3, "exact": e_exact, "final_error": error,
                    "retained_rank": estimate.retained_rank, "flags": estimate.flags}
    return energies, meta


# -- mirror circuits ---------------------------------------------------------------

def evolve(evolver, amps: np.ndarray, t: float) -> np.ndarray:
    """W(t) applied to one state: ``ham.evolve`` for the exact evolver, the
    evolver's gate list of t otherwise."""
    if evolver.kind == "exact":
        return evolver.ham.evolve(amps, t)
    return apply_circuit(amps, evolver.gates(t))


def exact_overlap(psi0: np.ndarray, evolver, t: float) -> complex:
    """The direct inner product <psi0| W(t) |psi0>."""
    return complex(np.vdot(psi0, evolve(evolver, psi0, t)))


def mirror_states(psi0_prep, evolver, t: float,
                  twirl_angle: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three mirrored states |0(t)>, |0_R(t)>, |0_Ri(t)>, each built on
    its own: its preparation's state, evolved by ``evolve``, then the twirl
    layer when ``twirl_angle`` is given, then the inverse preparation."""
    u_r, u_ri = reference_superposition(psi0_prep, 1), reference_superposition(psi0_prep, 1j)
    layer = [] if twirl_angle is None else twirl_layer(psi0_prep.n_sites, twirl_angle)
    return tuple(apply_circuit(apply_circuit(evolve(evolver, prep.state(), t), layer),
                               invert(inverse).gates)
                 for prep, inverse in ((psi0_prep, psi0_prep), (u_r, u_r), (u_r, u_ri)))


def all_zero_fraction(samples: np.ndarray) -> float:
    """The share of ``samples`` that drew |0..0>, nan for no samples: the
    former fraction rule of ``mirror._cell_estimate``."""
    return float(np.mean(samples == 0)) if len(samples) else float("nan")


def zero_probabilities(states) -> tuple[float, float, float]:
    """The all-zero probability |<0..0|s>|^2 of each state."""
    return tuple(float(np.abs(s[0]) ** 2) for s in states)


def exact_fractions(psi0_prep, evolver, t: float):
    """Noiseless all-zero probabilities (F1, F2, F3)."""
    return zero_probabilities(mirror_states(psi0_prep, evolver, t))


def reconstruct(f1: float, f2: float, f3: float, e_ref: float, t: float,
                magnitude_source: str = "f1_sqrt"):
    """The former scalar ``mirror.reconstruct``, one complex expression per
    overlap: the reference that the array form must match bit for bit.
    Returns (value, flags)."""
    if magnitude_source not in ("f1_sqrt", "eq19"):
        raise ValueError("magnitude_source must be 'f1_sqrt' or 'eq19'")
    raw = (2.0 * f2 + 2.0j * f3 - (f1 + 1.0) * (1.0 + 1.0j) / 2.0) * np.exp(-1j * e_ref * t)
    if magnitude_source == "eq19":
        return complex(raw), ()
    if abs(raw) < 1e-300:
        return complex(np.sqrt(max(f1, 0.0))), ("phase_degenerate",)
    return complex(np.sqrt(max(f1, 0.0)) * np.exp(1j * np.angle(raw))), ()


def overlap_series_mirror_exact(psi0_prep, evolver, ham, dt: float, kmax: int,
                                magnitude_source: str = "f1_sqrt") -> krylov.OverlapSeries:
    """Series reconstructed from exact F1/F2/F3 (no sampling)."""
    e_ref = ham.reference_energy()
    values = [1.0 + 0.0j]
    for k in range(1, kmax + 1):
        f1, f2, f3 = exact_fractions(psi0_prep, evolver, k * dt)
        values.append(mirror.reconstruct(f1, f2, f3, e_ref, k * dt, magnitude_source)[0])
    return krylov.OverlapSeries(dt, np.array(values))


def shot_noise_reference(psi0_prep, evolver, ham, dt: float, kmax: int, plan, seed: int,
                         n_realizations: int = 100, magnitude_source: str = "f1_sqrt"):
    """Per-step std of the noiseless sampled estimate over realizations: each
    (step, realization) draws F1, F2, F3 binomially in that order from the
    stream (seed, k, r), nan for a circuit with no shots."""
    e_ref = ham.reference_energy()
    counts = plan.allocate()
    psi0 = psi0_prep.state()
    sigmas = []
    for k in range(1, kmax + 1):
        t = k * dt
        probs, o_exact = exact_fractions(psi0_prep, evolver, t), exact_overlap(psi0, evolver, t)
        errors = []
        for r in range(n_realizations):
            rng = rng_stream(seed, k, r)
            fractions = [rng.binomial(m, p) / m if m else np.nan for m, p in zip(counts, probs)]
            estimate, _ = mirror.reconstruct(*fractions, e_ref, t, magnitude_source)
            errors.append(abs(estimate - o_exact))
        sigmas.append(float(np.std(errors)))
    return np.array(sigmas)


def estimate_overlap(psi0_prep, evolver, t: float, plan, seed: int, stream=(0,),
                     noise=None, magnitude_source: str = "f1_sqrt"):
    """Sample the three mirrored circuits and reconstruct the overlap: one
    estimation cell on circuits of its own.

    ``stream`` is a tuple of integers naming this estimation cell (time
    index, realization, ...); all randomness is a pure function of
    (seed, stream, circuit, shot), so cells can run in any order.
    """
    [estimate] = _estimate_cells(_MirrorCircuits(psi0_prep, evolver), t, evolver.gates(t),
                                 [(stream, noise)], plan, _StreamOpener(seed), magnitude_source)
    return estimate


def former_allocate(total: int, fractions) -> tuple[int, ...]:
    """The shot counts of ``mirror.ShotPlan.allocate`` before it refused a
    split whose floors leave a remainder outside [0, 3]: floors, then one
    more shot for each of the ``total - sum(floors)`` largest fractional
    parts (an IndexError past three)."""
    raw = [f * total for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    order = np.argsort([c - r for c, r in zip(counts, raw)])
    for i in range(total - sum(counts)):
        counts[order[i]] += 1
    return tuple(counts)


# -- streams and trajectories --------------------------------------------------------

def rng_stream(seed: int, *stream_id: int) -> np.random.Generator:
    """A freshly constructed Philox generator keyed by the seed modulo 2^64
    and the stream id parts folded into one word: the reference for the
    re-keyed generators of ``statevec._StreamOpener``."""
    word = 0
    for part in stream_id:
        word = (word * 0x9E3779B97F4A7C15 + int(part) + 1) % 2 ** 64
    key = np.array([int(seed) % 2 ** 64, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def noiseless_draw(cdf: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """The former noiseless pool's samples: the first ``shots`` uniforms of
    ``rng``, the pool's stream opened after its pass evolved, sampled by
    inverse CDF from ``cdf`` (``sample_bitstrings`` before it took the
    uniforms themselves)."""
    return np.searchsorted(cdf, rng.random(shots), side="right").astype(np.int64)


def noisy_apply(amps: np.ndarray, gates, spec, rng: np.random.Generator) -> np.ndarray:
    """One Pauli trajectory, one gate and one draw at a time: apply ``gates``
    to ``amps``, and after each gate with two or more sites draw one uniform
    per site, and a Pauli on that site when the uniform falls below p.  The
    reference for the batched trajectories of ``mirror._evolve_passes``."""
    for g in gates:
        amps = apply_gate_amps(amps, g)
        if spec.p_pauli > 0 and len(g.sites) >= 2:
            for q in g.sites:
                if rng.random() < spec.p_pauli:
                    name = PAULI_NAMES[rng.integers(len(PAULI_NAMES))]
                    amps = apply_gate_amps(amps, pauli_gate(name, q))
    return amps
