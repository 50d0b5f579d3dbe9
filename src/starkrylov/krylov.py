"""Classical post-processing of overlap time series.

Two solvers extract the ground-state energy from s_k = <psi0| U(k dt) |psi0>.
Each builds a pair (A, B) on the first n_steps values and solves one
thresholded pencil, (A, B) on the retained singular subspaces of
B ~ W_r Sigma_r V_r^H, as the standard eigenproblem
(W_r^H B V_r)^{-1} W_r^H A V_r, so no QZ is needed (Epperly, Lin and
Nakatsukasa, "A theory of quantum subspace diagonalization", SIAM J. Matrix
Anal. Appl., 2022).  The solvers differ only in the pair:

* ``uvqpe``: the Toeplitz pair (T, S), T_{jk} = s_{1+k-j}, S_{jk} = s_{k-j}.
* ``odmd``: the Hankel pair (X', X), X_{rc} = s_{r+c}, X'_{rc} = s_{r+c+1}
  (Shen et al., arXiv:2306.01858, 2023).  Its pencil has the nonzero
  eigenvalues of the d x d propagator X' X^+ with the truncated pseudoinverse
  (Tu et al., "On dynamic mode decomposition: theory and applications",
  J. Comput. Dyn., 2014), without the d - r that are rounding noise.

A series is Floquet exactly when it carries measured negative-direction
values f_{-m}, which give s_{-m}; a unitary series carries none, and s_{-m}
is conj(s_m).  ``SOLVERS`` maps configuration names to solvers;
``uvqpe_floquet`` is ``uvqpe`` on a two-direction Floquet series.  ``sweep``,
the one solver core, solves every run (series), prefix length and threshold
delta of a solver at once, dropping singular values below delta * sigma_max.
A delta in [``DELTA_FLOOR``, 1] (``check_deltas``) keeps sigma_max, so every
cell has a retained rank of at least 1 and an energy.

Eigenvalues map to energies as E = -arg(lambda)/dt; estimates keep only
eigenvalues with |lambda| inside an admissibility band around the unit
circle and return the minimum admissible energy; ``cli`` writes them.

A threshold delta below ``DELTA_FLOOR`` keeps singular values that are
rounding noise of the decomposition, whose spurious directions give
eigenvalues far below the spectrum.  On the exact 8- and 12-spin
magnetization sector and dressed-state series, the last-step uvqpe energy
lay 35.5 below the ground energy in some series at every delta up to 2e-15,
and within 5.5e-10 of it in all of them from 5e-15 to 1e-13, with ``eigh``
as with the SVD; the floor sits a factor 5 above the largest delta that failed.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_BAND = (0.5, 1.5)
DELTA_FLOOR = 1e-14  # smallest threshold a configuration may ask for


@dataclass
class OverlapSeries:
    dt: float
    values: np.ndarray  # s_0 .. s_K, s_0 = 1
    neg_values: np.ndarray | None = None  # f_0 .. f_{-K}: given iff the series is Floquet
    sampled: bool = False  # estimated from shots rather than computed exactly

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.neg_values is not None:
            self.neg_values = np.asarray(self.neg_values, dtype=complex)
            if len(self.neg_values) != len(self.values):
                raise ValueError("neg_values must have the same length as values")
        if abs(self.values[0] - 1.0) > 1e-6:
            raise ValueError("series must start at s_0 = 1")
        # the three-fraction reconstruction is bounded by 3/sqrt(2) ~ 2.12,
        # so anything past that is corrupt rather than noisy
        slack = 1.13 if self.sampled else 1e-6
        values = self.values if self.neg_values is None else np.concatenate(
            [self.values, self.neg_values])
        if not np.max(np.abs(values)) <= 1.0 + slack:  # NaN fails it too
            raise ValueError("overlap magnitudes must be finite and exceed 1 by at most "
                             "the noise slack")

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def value(self, m: int) -> complex:
        """s_m, the element-wise reference for the array-built matrices."""
        if m >= 0:
            return complex(self.values[m])
        if self.neg_values is not None:
            return complex(self.neg_values[-m])
        return complex(np.conj(self.values[-m]))


@dataclass(frozen=True)
class KrylovEstimate:
    energy: float
    retained_rank: int
    flags: tuple[str, ...] = ()


def check_deltas(deltas, name: str) -> None:
    """Refuse, naming ``name``, any threshold outside [``DELTA_FLOOR``, 1]."""
    if not all(DELTA_FLOOR <= d <= 1 for d in deltas):
        raise ValueError(f"{name} must lie in [{DELTA_FLOOR:g}, 1]")


def _toeplitz_rows(series: OverlapSeries, d: int) -> np.ndarray:
    """The d + 1 rows s_{1-j} .. s_{d-j}, j = 0 .. d, as a read-only view:
    T_{jk} = s_{1+k-j} is rows 0 .. d-1 and S_{jk} = s_{k-j} rows 1 .. d.

    Each row is a window of d consecutive values of s_{1-d} .. s_d, read
    from the last window back."""
    pos = series.values[:d + 1]  # s_0 .. s_d
    neg = pos[1:d].conj() if series.neg_values is None else series.neg_values[1:d]
    return sliding_window_view(np.concatenate([neg[::-1], pos]), d)[::-1]


def _hankel_rows(series: OverlapSeries, n_steps: int, window: int | None = None,
                 real_part: bool = False) -> np.ndarray:
    """The d + 1 rows s_r .. s_{r+n_steps-d}, r = 0 .. d, as a read-only view,
    for a window of d rows (default ceil(n_steps / 2)): X_{rc} = s_{r+c} is
    rows 0 .. d-1 and X'_{rc} = s_{r+c+1} rows 1 .. d."""
    d = window if window is not None else ceil(n_steps / 2)
    if d < 1 or d > n_steps:
        raise ValueError("window does not fit the series length")
    data = series.values.real.astype(complex) if real_part else series.values
    return sliding_window_view(data[:n_steps + 1], n_steps - d + 1)


@dataclass(frozen=True)
class SolverSpec:
    pair: str  # "toeplitz" (T, S) | "hankel" (X', X): the pencil's rows
    first_step: int  # smallest valid n_steps
    floquet_only: bool = False  # needs a two-direction Floquet series


SOLVERS = {
    "uvqpe": SolverSpec("toeplitz", 1),
    "uvqpe_floquet": SolverSpec("toeplitz", 1, floquet_only=True),
    "odmd": SolverSpec("hankel", 2),
}


def solver_spec(algorithm: str, floquet: bool = False) -> SolverSpec:
    """The ``SOLVERS`` entry for ``algorithm`` on a Floquet series if
    ``floquet``, else on a unitary one."""
    spec = SOLVERS.get(algorithm)
    if spec is None:
        raise ValueError(f"unknown Krylov method {algorithm!r}; "
                         f"expected one of {sorted(SOLVERS)}")
    if spec.floquet_only and not floquet:
        raise ValueError(f"{algorithm} needs a Floquet series with both directions")
    return spec


def sweep(algorithm: str, runs: list, steps, deltas, band=DEFAULT_BAND,
          window: int | None = None, real_part: bool = False) -> dict:
    """{(n_steps, delta): [KrylovEstimate per run]} of ``algorithm`` over
    ``runs``, ``steps`` and ``deltas``; ``window`` and ``real_part`` shape
    odmd's Hankel pair.

    Per n_steps the pair of every run is two views of one stack of the
    runs' d + 1 rows (``_toeplitz_rows``, ``_hankel_rows``), and one
    decomposition of the stacked B (S or X) serves every delta: ``eigh`` if
    every run is unitary (S Hermitian; Klymko et al., PRX Quantum 3, 020323,
    2022), its eigenpairs in stable order of |lambda| descending, else
    ``svd``.  The kept singular values (|lambda|) are a prefix of length r,
    the retained rank, and the runs of one rank share one stacked solve, one
    stacked ``eigvals`` (no estimate reads an eigenvector) and one array
    pass that picks each run's estimate from its row of eigenvalues.  A run's
    matrices meet the same LAPACK and BLAS calls as when solved alone, so
    no estimate depends on which runs share a stack.

    Both pairs are solved as the one pencil of the module docstring, under
    ``eigh`` with W_r = V_r = Q_r and Lambda_r for Sigma_r.  W_r^H B V_r
    equals Sigma_r only up to the rounding of the decomposition, which
    1/sigma_r amplifies: on the 12-spin test series at delta = 1e-8, dividing
    by Sigma_r moved uvqpe energies by up to 1.2e-9 from QZ on the same
    pencil (2.2e-9 with the SVD), solving with the computed product by
    1.1e-10; on the 12-spin sectors at delta = 1e-14, by 2.3e-6 and 4.1e-8.
    """
    spec = solver_spec(algorithm, all(s.neg_values is not None for s in runs))
    check_deltas(deltas, "delta")
    n_max = min(s.n_max for s in runs)
    hankel = spec.pair == "hankel"
    hermitian = not hankel and all(s.neg_values is None for s in runs)
    dts = np.array([s.dt for s in runs])[:, None]
    cells = {}
    for n_steps in steps:
        if not spec.first_step <= n_steps <= n_max:
            raise ValueError(f"n_steps must be in [{spec.first_step}, {n_max}]")
        rows = np.stack([_hankel_rows(s, n_steps, window, real_part) if hankel
                         else _toeplitz_rows(s, n_steps) for s in runs])
        basis, target = (rows[:, :-1], rows[:, 1:]) if hankel else (rows[:, 1:], rows[:, :-1])
        if hermitian:  # S = Q Lambda Q^H, whose singular values are the |lambda|
            lam, Q = np.linalg.eigh(basis)
            order = np.argsort(-np.abs(lam), axis=-1, kind="stable")
            sig = np.take_along_axis(np.abs(lam), order, axis=-1)
            U = V = np.take_along_axis(Q, order[:, None, :], axis=-1)  # W_r = V_r = Q_r
            del Q
        else:
            U, sig, Vh = np.linalg.svd(basis, full_matrices=False)
            V = np.conjugate(Vh, out=Vh).swapaxes(-1, -2)
        # W_r^H and V_r below are views of U^H and V with the strides of a
        # single matrix's truncated copies, so each product is the same BLAS call
        Uh = np.conjugate(U.swapaxes(-1, -2), order="C")
        del U
        for delta in deltas:
            ranks = np.count_nonzero(sig >= delta * sig[:, :1], axis=1)
            cell = cells[n_steps, delta] = [None] * len(runs)  # each run has a rank group
            for r in sorted(set(ranks.tolist())):  # np.unique would import numpy.ma
                group = np.flatnonzero(ranks == r)
                pick = group if len(group) < len(runs) else slice(None)  # views, no copies
                Wh, Vr = Uh[pick, :r], V[pick, :, :r]
                reduced = np.linalg.solve(Wh @ basis[pick] @ Vr, Wh @ target[pick] @ Vr)
                # each row's minimum admissible energy, or its minimum energy
                # (flagged) when no eigenvalue lies inside the band
                lam = np.linalg.eigvals(reduced)
                energies = -np.angle(lam) / dts[group]
                ok = (np.abs(lam) >= band[0]) & (np.abs(lam) <= band[1])
                none = ~ok.any(axis=1)
                ok[none] = True
                best = energies[np.arange(len(group)),
                                np.argmin(np.where(ok, energies, np.inf), axis=1)]
                for i, energy, flagged in zip(group, best.tolist(), none.tolist()):
                    cell[i] = KrylovEstimate(energy, r,
                                             ("no_admissible_eigenvalue",) if flagged else ())
    return cells
