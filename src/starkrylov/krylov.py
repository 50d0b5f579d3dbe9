"""Classical post-processing of overlap time series.

Two solvers extract the ground-state energy from s_k = <psi0| U(k dt) |psi0>.
They share one assembly and threshold path (``_truncated_svd`` drops singular
values below delta * sigma_max) and differ only in their eigensolve:

* ``uvqpe``: Toeplitz pair T_{jk} = s_{1+k-j}, S_{jk} = s_{k-j}.  On the
  retained singular subspaces of S ~ W_r Sigma_r V_r^H the projected pencil
  (W_r^H T V_r, W_r^H S V_r) has W_r^H S V_r = Sigma_r up to rounding, which
  is nonsingular, so no QZ is needed: it is solved as the standard
  eigenproblem (W_r^H S V_r)^{-1} W_r^H T V_r (the thresholded pencil of
  Epperly, Lin and Nakatsukasa, "A theory of quantum subspace
  diagonalization", SIAM J. Matrix Anal. Appl., 2022).
* ``odmd``: Hankel pair X_{rc} = s_{r+c}, X'_{rc} = s_{r+c+1}; eigenvalues of
  the one-step propagator A = X' X^+ with the truncated pseudoinverse.

s_{-m} is conj(s_m) for a unitary series and the measured f_{-m} for a
Floquet series.  ``SOLVERS`` maps configuration names to solvers;
``uvqpe_floquet`` is ``uvqpe`` on a two-direction Floquet series.

Eigenvalues map to energies as E = -arg(lambda)/dt; estimates keep only
eigenvalues with |lambda| inside an admissibility band around the unit
circle and return the minimum admissible energy.

A threshold delta below ``DELTA_FLOOR`` keeps singular values that are
rounding noise of the SVD, whose spurious directions give eigenvalues far
below the spectrum.  On exact 8- and 12-spin series, uvqpe gave energies up
to 36 below the ground energy in some series at every delta up to 2e-15, and
within 1e-9 of it in all of them from 5e-15 to 1e-13; the floor sits a
factor 5 above the largest delta that failed.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from math import ceil
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_BAND = (0.5, 1.5)
DELTA_FLOOR = 1e-14  # smallest threshold a configuration may ask for


@dataclass
class OverlapSeries:
    dt: float
    values: np.ndarray  # s_0 .. s_K, s_0 = 1
    neg_values: np.ndarray | None = None  # f_0 .. f_{-K} for the Floquet kind
    provenance: str = "exact"
    kind: str = "unitary"  # "unitary" | "floquet"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.neg_values is not None:
            self.neg_values = np.asarray(self.neg_values, dtype=complex)
        if self.kind == "floquet" and self.neg_values is None:
            raise ValueError("Floquet series requires measured negative-direction values")
        if self.neg_values is not None and len(self.neg_values) != len(self.values):
            raise ValueError("neg_values must have the same length as values")
        if abs(self.values[0] - 1.0) > 1e-6:
            raise ValueError("series must start at s_0 = 1")
        # the three-fraction reconstruction is bounded by 3/sqrt(2) ~ 2.12,
        # so anything past that is corrupt rather than noisy
        slack = 1e-6 if self.provenance.startswith("exact") else 1.13
        values = self.values if self.neg_values is None else np.concatenate(
            [self.values, self.neg_values])
        if np.max(np.abs(values)) > 1.0 + slack:
            raise ValueError("overlap magnitudes exceed 1 beyond the noise slack")

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def value(self, m: int) -> complex:
        """s_m, the element-wise reference for the array-built matrices."""
        if m >= 0:
            return complex(self.values[m])
        if self.kind == "floquet":
            return complex(self.neg_values[-m])
        return complex(np.conj(self.values[-m]))


@dataclass
class KrylovEstimate:
    algorithm: str
    n_steps: int
    delta: float
    energy: float | None
    eigenvalue: complex | None
    ritz: np.ndarray | None  # coefficients over the Krylov basis states
    retained_rank: int
    flags: tuple[str, ...] = ()


def _pick_minimum(lam: np.ndarray, vecs: np.ndarray, dt: float, band):
    energies = -np.angle(lam) / dt
    ok = (np.abs(lam) >= band[0]) & (np.abs(lam) <= band[1])
    flags: tuple[str, ...] = ()
    if not np.any(ok):
        ok = np.ones_like(energies, dtype=bool)
        flags = ("no_admissible_eigenvalue",)
    i = int(np.argmin(np.where(ok, energies, np.inf)))
    return float(energies[i]), complex(lam[i]), vecs[:, i], flags


def _toeplitz_pair(series: OverlapSeries, d: int):
    """T_{jk} = s_{1+k-j} and S_{jk} = s_{k-j} for j, k < d.

    Row j of T is s_{1-j} .. s_{d-j} and row j of S is row j + 1 of T, so
    both are windows of d consecutive values of s_{1-d} .. s_d, read from
    the last window back."""
    pos = series.values[:d + 1]  # s_0 .. s_d
    neg = series.neg_values[1:d] if series.kind == "floquet" else pos[1:d].conj()
    rows = sliding_window_view(np.concatenate([neg[::-1], pos]), d)[::-1]
    return rows[:d].copy(), rows[1:].copy()


def _hankel_pair(series: OverlapSeries, n_steps: int, window: int | None = None,
                 real_part: bool = False):
    """X_{rc} = s_{r+c} and X'_{rc} = s_{r+c+1} over a window of d rows
    (default ceil(n_steps / 2)) and n_steps - d + 1 columns: row r is the
    window of n_steps - d + 1 values that starts at s_r (s_{r+1} for X')."""
    d = window if window is not None else ceil(n_steps / 2)
    if d < 1 or d > n_steps:
        raise ValueError("window does not fit the series length")
    data = series.values.real.astype(complex) if real_part else series.values
    width = n_steps - d + 1
    X = sliding_window_view(data[:n_steps], width).copy()
    Xp = sliding_window_view(data[1:n_steps + 1], width).copy()
    return X, Xp


def _truncated_svd(M: np.ndarray, delta: float):
    """Thin SVD (U_r, sigma_r, V_r, flags) of M ~ U_r diag(sigma_r) V_r^H without
    the singular values below delta * sigma_max; flags the case where none stay."""
    U, sig, Vh = np.linalg.svd(M, full_matrices=False)
    keep = sig >= delta * sig[0]
    flags = () if keep.any() else ("all_singular_values_filtered",)
    return U[:, keep], sig[keep], Vh.conj().T[:, keep], flags


def _check_steps(algorithm: str, series: OverlapSeries, n_steps: int) -> None:
    first = SOLVERS[algorithm].first_step
    if n_steps < first or n_steps > series.n_max:
        raise ValueError(f"n_steps must be in [{first}, {series.n_max}]")


def uvqpe(series: OverlapSeries, n_steps: int, delta: float,
          band=DEFAULT_BAND) -> KrylovEstimate:
    """Toeplitz GEVP T c = lambda S c over the first ``n_steps`` Krylov states,
    projected onto the retained singular subspaces of S ~ W_r Sigma_r V_r^H and
    solved as the standard eigenproblem (W_r^H S V_r)^{-1} W_r^H T V_r y =
    lambda y (Epperly, Lin and Nakatsukasa, SIAM J. Matrix Anal. Appl., 2022);
    the Ritz coefficients are c = V_r y.

    W_r^H S V_r equals Sigma_r only up to the rounding of the SVD, which
    1/sigma_r amplifies: dividing by Sigma_r instead moved energies of the
    12-spin test series at delta = 1e-8 by up to 2.2e-9 from QZ (two BLAS
    threads), where solving with the computed product stays within 1.1e-10.
    """
    _check_steps("uvqpe", series, n_steps)
    T, S = _toeplitz_pair(series, n_steps)
    W, _, V, flags = _truncated_svd(S, delta)
    if flags:
        return KrylovEstimate("uvqpe", n_steps, delta, None, None, None, 0, flags)
    Wh = W.conj().T
    lam, vec = np.linalg.eig(np.linalg.solve(Wh @ S @ V, Wh @ T @ V))
    energy, eigenvalue, reduced, flags = _pick_minimum(lam, vec, series.dt, band)
    return KrylovEstimate("uvqpe", n_steps, delta, energy, eigenvalue, V @ reduced,
                          V.shape[1], flags)


def odmd(series: OverlapSeries, n_steps: int, delta: float, band=DEFAULT_BAND,
         window: int | None = None, real_part: bool = False) -> KrylovEstimate:
    """Hankel least-squares fit of the one-step propagator."""
    _check_steps("odmd", series, n_steps)
    X, Xp = _hankel_pair(series, n_steps, window, real_part)
    U, sig, V, flags = _truncated_svd(X, delta)
    if flags:
        return KrylovEstimate("odmd", n_steps, delta, None, None, None, 0, flags)
    A = Xp @ (V @ np.diag(1.0 / sig) @ U.conj().T)
    lam, vec = np.linalg.eig(A)
    energy, eigenvalue, ritz, flags = _pick_minimum(lam, vec, series.dt, band)
    return KrylovEstimate("odmd", n_steps, delta, energy, eigenvalue, ritz,
                          len(sig), flags)


@dataclass(frozen=True)
class SolverSpec:
    solve: Callable[..., KrylovEstimate]
    first_step: int  # smallest valid n_steps
    floquet_only: bool = False  # needs a two-direction Floquet series


SOLVERS = {
    "uvqpe": SolverSpec(uvqpe, 1),
    "uvqpe_floquet": SolverSpec(uvqpe, 1, floquet_only=True),
    "odmd": SolverSpec(odmd, 2),
}


def solver_spec(algorithm: str, series_kind: str = "unitary") -> SolverSpec:
    """The ``SOLVERS`` entry for ``algorithm`` on a series of ``series_kind``."""
    spec = SOLVERS.get(algorithm)
    if spec is None:
        raise ValueError(f"unknown Krylov method {algorithm!r}; "
                         f"expected one of {sorted(SOLVERS)}")
    if spec.floquet_only and series_kind != "floquet":
        raise ValueError(f"{algorithm} needs a Floquet series with both directions")
    return spec


def solve(algorithm: str, series: OverlapSeries, n_steps: int, delta: float,
          **kwargs) -> KrylovEstimate:
    return solver_spec(algorithm, series.kind).solve(series, n_steps, delta, **kwargs)


# -- CSV surfaces --------------------------------------------------------------

def write_convergence_csv(path, rows) -> None:
    """Rows of (algorithm, delta, step, energy, energy_error, retained_rank)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["algorithm", "delta", "step", "energy", "energy_error",
                         "retained_rank"])
        for algorithm, delta, step, energy, err, rank in rows:
            writer.writerow([
                algorithm, f"{delta:g}", step,
                "" if energy is None else f"{energy:.12f}",
                "" if err is None else f"{err:.12e}",
                rank,
            ])
