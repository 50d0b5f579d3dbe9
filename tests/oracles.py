"""Reference constructions and diagnostics that only the tests use: the full
S^z sector blocks of a ``SpinHamiltonian`` built by bitwise accumulation, the
2^n matrix, products with it, the ground-subspace weight of a state, and the
overlaps of a Krylov estimate's Ritz vector with the exact eigenstates."""
import numpy as np


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
