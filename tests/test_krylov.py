from math import ceil, isfinite

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from oracles import (
    RitzEstimate,
    cluster_overlaps,
    diagonalize,
    hankel_pair,
    odmd,
    odmd_propagator,
    ritz_ground_overlap,
    ritz_overlaps,
    solve,
    step_bounds,
    sweep_cell,
    sweep_eigenvalues,
    toeplitz_pair,
    truncated_svd,
    uvqpe,
)
from starkrylov.hamiltonian import SpinHamiltonian
from starkrylov.krylov import (
    DEFAULT_BAND,
    DELTA_FLOOR,
    SOLVERS,
    OverlapSeries,
    _toeplitz_rows,
    sweep,
)
from starkrylov.lattice import build_star
from starkrylov.magnet import sector_series, sector_solver_settings
from starkrylov.mirror import (
    ExactEvolver,
    GateEvolver,
    ShotPlan,
    overlap_series_exact,
    overlap_series_sampled,
)
from starkrylov.prep import dressed_initial, pinwheel

DT = 0.1


def eigenstate_series(e0, kmax, dt=DT):
    return OverlapSeries(dt, np.exp(-1j * e0 * dt * np.arange(kmax + 1)))


@pytest.fixture(scope="module")
def series8():
    star = build_star(4)
    ham = SpinHamiltonian(star)
    psi = dressed_initial(star).state()
    return overlap_series_exact(psi, ExactEvolver(ham), DT, 90)


@pytest.fixture(scope="module")
def series12():
    star = build_star(6)
    ham = SpinHamiltonian(star)
    psi = dressed_initial(star).state()  # six CZ gates, overlap 1e-3
    return star, ham, overlap_series_exact(psi, ExactEvolver(ham), DT, 70)


def test_series_validation():
    with pytest.raises(ValueError, match="s_0"):
        OverlapSeries(DT, np.array([0.5, 0.2]))
    s = eigenstate_series(-3.0, 5)
    assert s.value(-2) == np.conj(s.value(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.1)])
@pytest.mark.parametrize("sampled", [False, True])
def test_series_rejects_non_finite_values(bad, sampled):
    # a NaN passes a plain magnitude bound (every comparison with it is
    # False), and sweep would then fail inside LAPACK
    values, neg = eigenstate_series(-3.0, 5).values, eigenstate_series(3.0, 5).values
    OverlapSeries(DT, values, neg, sampled=sampled)
    for which in range(2):
        arrays = [values.copy(), neg.copy()]
        arrays[which][3] = bad
        with pytest.raises(ValueError, match="finite"):
            OverlapSeries(DT, *arrays, sampled=sampled)


@pytest.mark.parametrize("n_steps", [1, 3, 8])
def test_uvqpe_exact_on_eigenstate(n_steps):
    series = eigenstate_series(-7.3, 10)
    est = uvqpe(series, n_steps, 1e-8)
    assert abs(est.energy - (-7.3)) < 1e-10
    assert est.retained_rank >= 1


def test_odmd_exact_on_eigenstate():
    series = eigenstate_series(-4.1, 6)
    assert abs(odmd(series, 2, 1e-8).energy - (-4.1)) < 1e-10


def random_values(rng, n):
    vals = np.concatenate([[1.0], rng.normal(size=n) + 1j * rng.normal(size=n)])
    vals[1:] /= np.abs(vals[1:]) * 1.3  # keep |s_k| < 1
    return vals


def test_toeplitz_structure():
    rng = np.random.default_rng(0)
    unitary = OverlapSeries(DT, random_values(rng, 6))
    # measured negative direction, independent of conj(values)
    floquet = OverlapSeries(DT, random_values(rng, 6), random_values(rng, 6))
    for series in (unitary, floquet):
        for d in (1, 2, 5, 6):
            T, S = toeplitz_pair(series, d)
            assert T.shape == S.shape == (d, d)
            for j in range(d):
                for k in range(d):
                    assert T[j, k] == series.value(1 + k - j)
                    assert S[j, k] == series.value(k - j)
    assert floquet.value(-2) != np.conj(floquet.value(2))
    # constant diagonals
    T, S = toeplitz_pair(unitary, 5)
    for off in range(-4, 5):
        d = np.diagonal(S, off)
        assert np.allclose(d, d[0])


def test_negative_values_make_a_floquet_series():
    # a series is Floquet exactly when it carries negative-direction values:
    # given without any other mark, they are the ones the solvers read
    rng = np.random.default_rng(2)
    values, neg = random_values(rng, 8), random_values(rng, 8)
    d = 6
    rows = _toeplitz_rows(OverlapSeries(DT, values, neg), d)
    expected = [[values[m] if m >= 0 else neg[-m] for m in range(1 - j, d + 1 - j)]
                for j in range(d + 1)]
    assert (rows == np.array(expected)).all()
    # the conjugate values given as negative ones build the unitary rows bit for bit
    conj = _toeplitz_rows(OverlapSeries(DT, values, values.conj()), d)
    assert conj.tobytes() == _toeplitz_rows(OverlapSeries(DT, values), d).tobytes()


@pytest.mark.parametrize("window", [None, 3])
@pytest.mark.parametrize("real_part", [False, True])
def test_hankel_pair_structure(window, real_part):
    rng = np.random.default_rng(1)
    series = OverlapSeries(DT, random_values(rng, 9))
    data = series.values.real if real_part else series.values
    n_steps = 8
    X, Xp = hankel_pair(series, n_steps, window, real_part)
    d = window if window is not None else 4
    assert X.shape == Xp.shape == (d, n_steps - d + 1)
    for r in range(X.shape[0]):
        for c in range(X.shape[1]):
            assert X[r, c] == data[r + c]
            assert Xp[r, c] == data[r + c + 1]


def test_hankel_structure_via_window():
    series = eigenstate_series(-2.0, 10)
    est = odmd(series, 9, 1e-10, window=3)
    assert abs(est.energy - (-2.0)) < 1e-9
    assert len(est.ritz) == 3


@pytest.mark.parametrize("d", [1, 2, 5, 55, 150])
def test_window_assembly_matches_scipy(d):
    """T, S, X and X' from sliding windows equal scipy's toeplitz and hankel,
    which assembled them before."""
    rng = np.random.default_rng(d)
    unitary = OverlapSeries(DT, random_values(rng, 150))
    floquet = OverlapSeries(DT, random_values(rng, 150), random_values(rng, 150))
    for series in (unitary, floquet):
        s = series.value
        T, S = toeplitz_pair(series, d)
        col = [s(1 - j) for j in range(d)]
        assert np.array_equal(T, scipy.linalg.toeplitz(col, [s(k + 1) for k in range(d)]))
        assert np.array_equal(S, scipy.linalg.toeplitz([s(-j) for j in range(d)],
                                                       [s(k) for k in range(d)]))
        for window in sorted({1, ceil(d / 2), d}):
            for real_part in (False, True):
                data = series.values.real.astype(complex) if real_part else series.values
                X, Xp = hankel_pair(series, d, window, real_part)
                assert np.array_equal(X, scipy.linalg.hankel(data[:window],
                                                             data[window - 1:d]))
                assert np.array_equal(Xp, scipy.linalg.hankel(data[1:window + 1],
                                                              data[window:d + 1]))


def test_overlap_matrix_hermitian_psd(series8):
    _, S = toeplitz_pair(series8, 30)
    assert np.linalg.norm(S - S.conj().T) < 1e-12
    assert np.linalg.eigvalsh(S).min() > -1e-10


def test_variational_floor(series8):
    for delta in (1e-1, 1e-3, 1e-5):
        for ns in range(1, 61):
            est = uvqpe(series8, ns, delta)
            assert est.energy is not None
            assert est.energy - (-12.0) >= -1e-9


def steps_to_tolerance(series, algorithm, delta, tol=1e-6, horizon=80, e0=-12.0):
    first = 1 if algorithm != "odmd" else 2
    for ns in range(first, horizon + 1):
        est = solve(algorithm, series, ns, delta)
        if est.energy is not None and abs(est.energy - e0) < tol:
            return ns
    return None


def test_delta_ordering_noiseless(series8):
    for algorithm in ("uvqpe", "odmd"):
        steps = [steps_to_tolerance(series8, algorithm, d) for d in (1e-5, 1e-3, 1e-1)]
        assert steps[0] is not None
        cleaned = [s if s is not None else 10 ** 9 for s in steps]
        assert cleaned == sorted(cleaned)


def test_low_overlap_excited_convergence(series12):
    star, ham, series = series12
    est = uvqpe(series, 50, 1e-1)
    spec = diagonalize(ham, 0.0)
    e0 = spec.energies[0]
    assert est.energy - e0 > 0.1  # stuck above the ground state
    # the resting point is a genuine low-lying excited level
    gaps = np.abs(spec.energies - est.energy)
    assert gaps.min() < 0.05


def test_ritz_trace_12_spin(series12):
    star, ham, series = series12
    spec = diagonalize(ham, 0.0)
    psi = dressed_initial(star).state()
    basis = [ham.evolve(psi, k * DT) for k in range(61)]
    est10 = uvqpe(series, 10, 1e-6)
    rows = ritz_overlaps(est10, basis[:10], spec)
    clusters = cluster_overlaps(rows)
    excited = max(ov for e, ov in clusters if e > spec.energies[0] + 1e-5)
    assert excited > 0.5
    est60 = uvqpe(series, 60, 1e-6)
    assert ritz_ground_overlap(est60, basis[:60], spec) > 0.99


def test_ritz_step_zero_matches_psi0(series8):
    star = build_star(4)
    ham = SpinHamiltonian(star)
    spec = diagonalize(ham, 0.0)
    psi = dressed_initial(star).state()
    est = uvqpe(series8, 1, 1e-8)
    rows = ritz_overlaps(est, [psi], spec)
    direct = spec.overlaps(psi)
    for idx, _e, ov in rows[:5]:
        assert abs(ov - direct[idx]) < 1e-10


def _uvqpe_qz(series, n_steps, delta, band=DEFAULT_BAND):
    """Reference: QZ on the projected pencil (W^H T V, W^H S V), with the
    finite-eigenvalue mask it needed; returns (energy, ritz, rank, flags)."""
    T, S = toeplitz_pair(series, n_steps)
    W, _, V, flags = truncated_svd(S, delta)
    if flags:
        return None, None, 0, flags
    lam, vec = scipy.linalg.eig(W.conj().T @ T @ V, W.conj().T @ S @ V)
    finite = np.isfinite(lam)
    lam, vec = lam[finite], vec[:, finite]
    if len(lam) == 0:
        return None, None, V.shape[1], ("no_eigenvalues",)
    energies = -np.angle(lam) / series.dt
    ok = (np.abs(lam) >= band[0]) & (np.abs(lam) <= band[1])
    flags = ()
    if not np.any(ok):
        ok = np.ones_like(energies, dtype=bool)
        flags = ("no_admissible_eigenvalue",)
    i = int(np.argmin(np.where(ok, energies, np.inf)))
    return float(energies[i]), V @ vec[:, i], V.shape[1], flags


def test_uvqpe_matches_qz_reference(series8, series12):
    star = build_star(4)
    ham = SpinHamiltonian(star)
    psi = dressed_initial(star)
    floquet = overlap_series_exact(psi.state(), GateEvolver(ham), DT, 40)
    sampled = [series for series, _ in overlap_series_sampled(
        psi, ExactEvolver(ham), DT, 40, ShotPlan(1000), seed=5,
        realizations=range(3))]
    cases = {"exact8": series8, "exact12": series12[2], "floquet8": floquet}
    cases.update({f"sampled8_r{r}": s for r, s in enumerate(sampled)})
    for name, series in cases.items():
        for delta in (1e-1, 1e-2, 1e-3, 1e-6, 1e-8):
            for ns in range(1, series.n_max + 1):
                est = uvqpe(series, ns, delta)
                energy, ritz, rank, flags = _uvqpe_qz(series, ns, delta)
                where = f"{name} delta={delta:g} n_steps={ns}"
                assert est.retained_rank == rank, where
                assert est.flags == flags, where
                if energy is None:
                    assert est.energy is None and est.ritz is None, where
                    continue
                assert abs(est.energy - energy) <= 1e-9, where
                cos = abs(np.vdot(est.ritz, ritz)) / (
                    np.linalg.norm(est.ritz) * np.linalg.norm(ritz))
                assert 1.0 - cos <= 1e-12, where


def assert_sweep_matches_oracle(algorithm, runs, steps, deltas, **kwargs):
    """Every cell of ``sweep`` equals the single-cell solve of its run with
    the sweep's decompositions."""
    cells = sweep(algorithm, runs, steps, deltas, **kwargs)
    assert sorted(cells) == sorted((ns, delta) for ns in steps for delta in deltas)
    for (ns, delta), cell in cells.items():
        assert len(cell) == len(runs)
        for r, (series, est) in enumerate(zip(runs, cell)):
            ref = sweep_cell(algorithm, series, ns, delta, **kwargs)
            where = f"{algorithm} {kwargs} run {r} n_steps={ns} delta={delta:g}"
            assert est.energy == ref.energy, where
            assert est.retained_rank == ref.retained_rank, where
            assert est.flags == ref.flags, where
    return cells


@pytest.fixture(scope="module")
def sweep_runs(series8):
    star = build_star(4)
    ham = SpinHamiltonian(star)
    prep = dressed_initial(star)

    def sampled(evolver, kmax, total, seed, n):
        return [series for series, _ in overlap_series_sampled(
            prep, evolver, DT, kmax, ShotPlan(total), seed=seed, realizations=range(n))]

    return {
        "exact": [series8],
        "floquet": [overlap_series_exact(prep.state(), GateEvolver(ham), DT, 40)],
        "sampled": sampled(ExactEvolver(ham), 30, 1000, 5, 4),
        "sampled_floquet": sampled(GateEvolver(ham), 20, 500, 3, 3),
    }


SWEEP_DELTAS = (1e-14, 1e-6, 1e-2, 0.1)


@pytest.mark.parametrize("algorithm, runs, kwargs", [
    ("uvqpe", "exact", {}),
    ("odmd", "exact", {}),
    ("odmd", "exact", {"real_part": True}),
    ("uvqpe", "floquet", {}),
    ("uvqpe_floquet", "floquet", {}),
    ("odmd", "floquet", {"window": 6}),
    ("uvqpe", "sampled", {}),
    ("odmd", "sampled", {"window": 6}),
    ("odmd", "sampled", {"real_part": True, "band": (0.7, 1.3)}),
    ("uvqpe_floquet", "sampled_floquet", {}),
    ("odmd", "sampled_floquet", {"window": 5, "real_part": True}),
])
def test_sweep_matches_single_cell_solves(sweep_runs, algorithm, runs, kwargs):
    series = sweep_runs[runs]
    first = max(SOLVERS[algorithm].first_step, kwargs.get("window") or 1)
    steps = range(first, min(60, min(s.n_max for s in series)) + 1)
    assert_sweep_matches_oracle(algorithm, series, steps, SWEEP_DELTAS, **kwargs)


def test_sweep_stack_mixes_ranks(sweep_runs):
    """Runs of one stack that keep different ranks at one delta, some rank
    kept by several runs, get bitwise the estimates that each run gets in a
    stack of its own, for both solvers and both Toeplitz decompositions."""
    for algorithm, name, kwargs in (("uvqpe", "sampled", {}), ("odmd", "sampled", {}),
                                    ("odmd", "sampled", {"window": 6, "real_part": True}),
                                    ("uvqpe_floquet", "sampled_floquet", {}),
                                    ("odmd", "sampled_floquet", {"window": 5})):
        runs = sweep_runs[name]
        steps, deltas = range(10, min(30, min(s.n_max for s in runs)) + 1), (1e-2, 0.1)
        cells = assert_sweep_matches_oracle(algorithm, runs, steps, deltas, **kwargs)
        ranks = [[est.retained_rank for est in cell] for cell in cells.values()]
        assert any(1 < len(set(rank)) < len(rank) for rank in ranks), (algorithm, kwargs)
        for r, series in enumerate(runs):
            alone = sweep(algorithm, [series], steps, deltas, **kwargs)
            assert all(alone[key][0] == cell[r] for key, cell in cells.items())


@pytest.mark.parametrize("algorithm", ["uvqpe", "odmd"])
def test_stacked_minimum_pick_matches_per_row_pick(series8, sweep_runs, algorithm):
    """The sweep picks every rank group's estimates from its stacked
    eigenvalues in one array pass; each cell equals the estimate picked from
    its own eigenvalue row (``sweep_cell`` ends in the per-row pick), in
    stacks whose runs have different dt, and under bands that flag some rows
    ``no_admissible_eigenvalue``."""
    star = build_star(4)
    ham = SpinHamiltonian(star)
    prep = dressed_initial(star)
    runs = [series8, overlap_series_exact(prep.state(), ExactEvolver(ham), 0.13, 30),
            *sweep_runs["sampled"][:2],
            *(s for s, _ in overlap_series_sampled(prep, ExactEvolver(ham), 0.15, 30,
                                                   ShotPlan(1000), seed=7,
                                                   realizations=range(2)))]
    flagged, mixed_dt = [], False
    for band in (DEFAULT_BAND, (0.9999, 1.0001), (0.2, 0.9)):
        cells = assert_sweep_matches_oracle(algorithm, runs, range(8, 31), (1e-6, 1e-2, 0.1),
                                            band=band)
        flagged += [est.flags == ("no_admissible_eigenvalue",) for cell in cells.values()
                    for est in cell if est.retained_rank]
        # some stack of one rank holds runs of different dt
        mixed_dt |= any(len({runs[i].dt for i, est in enumerate(cell)
                             if est.retained_rank == r}) > 1
                        for cell in cells.values() for r in {est.retained_rank for est in cell})
    assert any(flagged) and not all(flagged)
    assert mixed_dt


# (algorithm, runs, kwargs) for the every-cell-has-an-energy property
CELL_ENERGY_CASES = (
    ("uvqpe", "exact", {}),
    ("uvqpe", "sampled", {}),
    ("odmd", "exact", {"window": 6}),
    ("odmd", "sampled", {"real_part": True}),
    ("odmd", "floquet", {"window": 5, "real_part": True}),
    ("uvqpe_floquet", "floquet", {}),
    ("uvqpe_floquet", "sampled_floquet", {}),
)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(min_value=DELTA_FLOOR, max_value=1.0), min_size=1, max_size=3))
@example([DELTA_FLOOR, 1.0])
def test_every_sweep_cell_has_an_energy(sweep_runs, deltas):
    """For any delta in [DELTA_FLOOR, 1], sigma_max passes its own threshold,
    so every cell of every run keeps a rank of at least 1 and has a finite
    energy, on exact, sampled and Floquet series."""
    for algorithm, name, kwargs in CELL_ENERGY_CASES:
        runs = sweep_runs[name]
        first = max(SOLVERS[algorithm].first_step, kwargs.get("window") or 1)
        cells = sweep(algorithm, runs, range(first, 21), deltas, **kwargs)
        for (ns, delta), cell in cells.items():
            for est in cell:
                where = f"{algorithm} {name} {kwargs} n_steps={ns} delta={delta!r}"
                assert isinstance(est.energy, float) and isfinite(est.energy), where
                assert est.retained_rank >= 1, where


def test_sweep_matches_single_cell_on_12_spin_sector_series():
    # the 150-step S^z = 0 series of the 12-spin magnetization run, whose
    # 150 x 150 S is the largest matrix the CLI solves
    star = build_star(6)
    settings = sector_solver_settings(star)
    series = sector_series(SpinHamiltonian(star), 0, settings["dt"], settings["n_steps"])
    for algorithm in ("uvqpe", "odmd"):
        assert_sweep_matches_oracle(algorithm, [series], [settings["n_steps"]],
                                    [settings["delta"]])


# |E_sweep - E_former| per delta.  The two paths project on the same retained
# subspace, so they differ only by rounding, which 1 / sigma_r amplifies: the
# largest differences measured on the series below were 1.8e-6 at DELTA_FLOOR
# (an 8-spin sector series, at a prefix where S is rank-deficient), 1.6e-10 at
# 1e-8, 1.5e-11 at 1e-6 and 6e-14 from 1e-3 up (one BLAS thread).
FORMER_PATH_BOUND = {DELTA_FLOOR: 1e-5, 1e-8: 1e-9, 1e-6: 1e-10, 1e-3: 1e-12, 0.1: 1e-12}


# |E_sweep - E_former| per delta for odmd, whose former path took all d
# eigenvalues of the d x d propagator A (``oracles.odmd``) where the sweep
# takes the r of its pencil.  The largest differences measured on the series
# below (one BLAS thread): 0.44 at DELTA_FLOOR (a 12-spin sector series at 97
# steps), 1.6e-6 at 1e-8 and 1.6e-9 at 1e-6 (8-spin sectors), 1.9e-12 at 1e-3
# (the 8-spin series with window 6) and 4.4e-14 at 0.1.  At the floor it is
# the former path that errs: against the exact energies its median error was
# 3.9e-6 on the 8-spin series and 2.0e-5 on the 12-spin sectors, the sweep's
# 6.2e-13 and 2.5e-13.
ODMD_FORMER_PATH_BOUND = {DELTA_FLOOR: 1.0, 1e-8: 1e-5, 1e-6: 1e-8, 1e-3: 1e-11, 0.1: 1e-12}


def former_nonzero_eigenvalues(series, n_steps, delta, **kwargs):
    """The r largest-magnitude eigenvalues of the former odmd path's d x d
    propagator A, whose rank is r: its nonzero eigenvalues."""
    A, r = odmd_propagator(series, n_steps, delta, **kwargs)
    lam = np.linalg.eigvals(A)
    return lam[np.argsort(-np.abs(lam), kind="stable")[:r]]


def former_flagged_energy(series, n_steps, delta, **kwargs):
    """What a flagged odmd cell is compared with: the lowest energy among
    the former A's nonzero eigenvalues.  The former energy of a flagged cell
    could come from one of A's d - r rounding-noise eigenvalues."""
    lam = former_nonzero_eigenvalues(series, n_steps, delta, **kwargs)
    return float(np.min(-np.angle(lam) / series.dt))


@pytest.fixture(scope="module")
def former_path_runs(series8, series12, sweep_runs):
    """(runs, steps) for exact and sampled series of 8 and 12 spins: the
    dressed ground-state series, every magnetization sector series, and
    sampled realizations of the dressed state."""
    cases = {"exact8": ([series8], range(1, 61)), "exact12": ([series12[2]], range(1, 41)),
             "sampled8": (sweep_runs["sampled"], range(1, 31)),
             "floquet8": (sweep_runs["floquet"], range(1, 41))}
    for n_triangles, steps in ((4, range(1, 41)), (6, (12, 40, 97, 150))):
        star = build_star(n_triangles)
        ham = SpinHamiltonian(star)
        settings = sector_solver_settings(star)
        cases[f"sectors{2 * n_triangles}"] = (
            [sector_series(ham, sz, settings["dt"], settings["n_steps"])
             for sz in range(n_triangles + 1)], steps)
    star, ham, _ = series12
    cases["sampled12"] = ([s for s, _ in overlap_series_sampled(
        dressed_initial(star), ExactEvolver(ham), DT, 20, ShotPlan(1000), seed=5,
        realizations=range(2))], range(1, 21))
    return cases


@pytest.mark.parametrize("case", ["exact8", "exact12", "sampled8", "floquet8", "sectors8",
                                  "sectors12", "sampled12"])
def test_sweep_matches_former_path(former_path_runs, case):
    """The sweep (eigh of a unitary series' S, eigvals, one r x r pencil for
    both pairs) keeps every rank and flag of the former path (SVD, eig,
    odmd's d x d propagator) and moves energies within ``FORMER_PATH_BOUND``
    (uvqpe) and ``ODMD_FORMER_PATH_BOUND`` (odmd, a flagged cell against
    ``former_flagged_energy``)."""
    runs, steps = former_path_runs[case]
    for algorithm, bound in (("uvqpe", FORMER_PATH_BOUND), ("odmd", ODMD_FORMER_PATH_BOUND)):
        cells = sweep(algorithm, runs, [ns for ns in steps if ns >= SOLVERS[algorithm].first_step],
                      bound)
        for (ns, delta), cell in cells.items():
            for r, (series, est) in enumerate(zip(runs, cell)):
                ref = solve(algorithm, series, ns, delta)
                where = f"{case} {algorithm} run {r} n_steps={ns} delta={delta:g}"
                assert est.retained_rank == ref.retained_rank, where
                assert est.flags == ref.flags, where
                energy = (former_flagged_energy(series, ns, delta)
                          if algorithm == "odmd" and est.flags else ref.energy)
                assert abs(est.energy - energy) <= bound[delta], where


@pytest.mark.parametrize("kwargs", [{"window": 6}, {"real_part": True},
                                    {"window": 5, "real_part": True}],
                         ids=["window", "real_part", "window_real_part"])
@pytest.mark.parametrize("case", ["exact8", "sampled8", "floquet8"])
def test_odmd_window_and_real_part_match_former_path(former_path_runs, case, kwargs):
    """As ``test_sweep_matches_former_path`` for odmd with ``window`` and
    ``real_part``.  Under ``real_part`` the Hankel pair is real, so a real
    negative eigenvalue gets the energy pi/dt or -pi/dt by the sign of an
    imaginary part at rounding level, in either path.  A cell where either
    path picks such an energy is compared by its eigenvalues instead: the
    pencil's (``sweep_eigenvalues``) pair up with A's nonzero ones within
    1e-9.  The sampled real-part runs have 42 such cells per delta below 0.1
    (71 with window 5)."""
    runs, steps = former_path_runs[case]
    steps = [ns for ns in steps if ns >= max(SOLVERS["odmd"].first_step, kwargs.get("window", 1))]
    cells = sweep("odmd", runs, steps, ODMD_FORMER_PATH_BOUND, **kwargs)
    for (ns, delta), cell in cells.items():
        for r, (series, est) in enumerate(zip(runs, cell)):
            ref = odmd(series, ns, delta, **kwargs)
            where = f"{case} {kwargs} run {r} n_steps={ns} delta={delta:g}"
            assert est.retained_rank == ref.retained_rank, where
            assert est.flags == ref.flags, where
            if any(abs(abs(e) * series.dt - np.pi) < 1e-9 for e in (est.energy, ref.energy)):
                lam, _ = sweep_eigenvalues("odmd", series, ns, delta, **kwargs)
                cost = np.abs(lam[:, None] - former_nonzero_eigenvalues(series, ns, delta,
                                                                        **kwargs)[None, :])
                assert cost[linear_sum_assignment(cost)].max() <= 1e-9, where
            else:
                energy = (former_flagged_energy(series, ns, delta, **kwargs) if est.flags
                          else ref.energy)
                assert abs(est.energy - energy) <= ODMD_FORMER_PATH_BOUND[delta], where


def test_odmd_pencil_has_the_propagator_nonzero_eigenvalues():
    """On random Hankel pairs, windows, real parts and thresholds, the r
    eigenvalues of odmd's pencil (``sweep_eigenvalues``) pair up with the
    nonzero eigenvalues of the former d x d propagator A within 1e-12 of
    max(1, |mu|), and A's other d - r eigenvalues are rounding noise below
    1e-13 of its largest (Tu et al., J. Comput. Dyn., 2014).  Measured over
    these 300 pairs: 2.1e-14 and 2.0e-15."""
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(2, 13))
        values = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        values /= 1.5 * np.abs(values).max()
        values[0] = 1
        series = OverlapSeries(DT, values)
        kwargs = {"window": None if rng.random() < 0.5 else int(rng.integers(1, n + 1)),
                  "real_part": bool(rng.random() < 0.3)}
        delta = 10 ** rng.uniform(-8, 0)
        lam, r = sweep_eigenvalues("odmd", series, n, delta, **kwargs)
        A, rank = odmd_propagator(series, n, delta, **kwargs)
        mu = np.linalg.eigvals(A)
        order = np.argsort(-np.abs(mu), kind="stable")
        nonzero, noise = mu[order[:r]], mu[order[r:]]
        where = f"trial {trial} n={n} {kwargs} delta={delta:g}"
        assert rank == r == len(lam), where
        cost = np.abs(lam[:, None] - nonzero[None, :]) / np.maximum(1, np.abs(nonzero))
        assert cost[linear_sum_assignment(cost)].max() <= 1e-12, where
        assert np.all(np.abs(noise) <= 1e-13 * np.abs(mu).max()), where


def synthetic_series(rng, noise, kmax=30):
    """(series, E_0): s_k = sum_j w_j exp(-i E_j k dt) over 2 to 6 levels E_j
    in [-4, 4] at least 0.3 apart, with weights summing to 1, and complex
    Gaussian noise of standard deviation ``noise`` on s_1 .. s_kmax."""
    while True:
        energies = np.sort(rng.uniform(-4, 4, int(rng.integers(2, 7))))
        if np.diff(energies).min() >= 0.3:
            break
    weights = rng.uniform(0.2, 1, len(energies))
    values = np.exp(-1j * DT * np.outer(np.arange(kmax + 1), energies)) @ (weights / weights.sum())
    if noise:
        values[1:] += noise * (rng.normal(size=kmax) + 1j * rng.normal(size=kmax)) / np.sqrt(2)
    return OverlapSeries(DT, values, sampled=bool(noise)), energies[0]


@pytest.mark.parametrize("noise, delta", [(0.0, 1e-10), (1e-6, 1e-4)])
def test_odmd_ground_energy_on_known_spectra(noise, delta):
    """On 40 series of known spectra, exact and with 1e-6 noise, the sweep's
    odmd ground-energy error is no worse than the former path's in the
    median (up to 1e-12, where both paths tie at rounding), and on exact
    series every error is within 1e-10.  Measured medians: 4.9e-15 against
    9.9e-15 exact, with the largest error 6.2e-12 against 1.3e-7; with
    noise both 3.8e-6."""
    rng = np.random.default_rng(0)
    data = [synthetic_series(rng, noise) for _ in range(40)]
    n_steps = 30
    cells = sweep("odmd", [series for series, _ in data], [n_steps], [delta])[n_steps, delta]
    new = np.array([abs(est.energy - e0) for est, (_, e0) in zip(cells, data)])
    former = np.array([abs(odmd(series, n_steps, delta).energy - e0) for series, e0 in data])
    assert np.median(new) <= np.median(former) + 1e-12
    if not noise:
        assert new.max() <= 1e-10


def test_ritz_requires_coefficients():
    est = RitzEstimate("uvqpe", 1, 1e-6, None, None, None, 0, ("flag",))
    with pytest.raises(ValueError):
        ritz_overlaps(est, [], None)


def test_uvqpe_floquet_pinwheel_single_step():
    star = build_star(4)
    ham = SpinHamiltonian(star)
    series = overlap_series_exact(pinwheel(star).state(), GateEvolver(ham), DT, 3)
    est = uvqpe(series, 1, 1e-8)
    assert abs(est.energy - (-12.0)) < 1e-10


def test_uvqpe_floquet_dressed_converges():
    star = build_star(4)
    ham = SpinHamiltonian(star)
    series = overlap_series_exact(dressed_initial(star).state(),
                                  GateEvolver(ham), DT, 40)
    est = uvqpe(series, 30, 1e-6)
    assert abs(est.energy - (-12.0)) < 1e-6


def test_uvqpe_floquet_requires_both_directions():
    values = eigenstate_series(-3.0, 6).values
    with pytest.raises(ValueError, match="same length"):
        OverlapSeries(DT, values, values[:-1].conj())
    # the configuration name refuses a one-direction series
    with pytest.raises(ValueError, match="both directions"):
        solve("uvqpe_floquet", eigenstate_series(-3.0, 6), 3, 1e-6)
    with pytest.raises(ValueError, match="both directions"):
        sweep("uvqpe_floquet", [eigenstate_series(-3.0, 6)], [3], [1e-6])


def test_floquet_agrees_with_unitary_to_second_order():
    star = build_star(4)
    ham = SpinHamiltonian(star)
    psi = dressed_initial(star).state()

    def gap(dt):
        us = overlap_series_exact(psi, ExactEvolver(ham), dt, 2)
        fs = overlap_series_exact(psi, GateEvolver(ham), dt, 2)
        return uvqpe(fs, 1, 1e-9).energy - uvqpe(us, 1, 1e-9).energy

    g1, g2 = gap(0.08), gap(0.04)
    assert abs(g1 / g2) == pytest.approx(4.0, abs=1.3)


def test_sampled_noise_threshold_failure_modes():
    # below-noise threshold: most realizations stay far from the ground state
    star = build_star(4)
    ham = SpinHamiltonian(star)
    prep = dressed_initial(star)
    from starkrylov.mirror import ShotPlan, overlap_series_sampled
    failures = 0
    n_real = 12
    for series, _ in overlap_series_sampled(prep, ExactEvolver(ham), DT, 50,
                                            ShotPlan(1000), seed=3,
                                            realizations=range(n_real)):
        est = uvqpe(series, 50, 1e-2)
        if est.energy is None or abs(est.energy + 12.0) > 0.5:
            failures += 1
    assert failures >= n_real // 2


def test_all_filtered_flag():
    # a threshold above sigma_max would keep no singular value; the sweep
    # refuses it rather than return a cell without an energy
    series = eigenstate_series(-1.0, 6)
    assert "all_singular_values_filtered" in uvqpe(series, 4, 2.0).flags  # the former path
    with pytest.raises(ValueError, match="delta must lie in"):
        sweep("uvqpe", [series], [4], [2.0])


@pytest.mark.parametrize("delta", [0.0, 2.0, DELTA_FLOOR / 2, float("nan")])
def test_sweep_refuses_delta_outside_range(delta, monkeypatch):
    # refused before the first decomposition, whatever the other deltas
    def no_decomposition(*args, **kwargs):
        raise AssertionError("decomposed before the delta check")

    monkeypatch.setattr(np.linalg, "eigh", no_decomposition)
    monkeypatch.setattr(np.linalg, "svd", no_decomposition)
    series = eigenstate_series(-1.0, 6)
    for algorithm in ("uvqpe", "odmd"):
        with pytest.raises(ValueError, match=r"delta must lie in \[1e-14, 1\]"):
            sweep(algorithm, [series], [4], [0.1, delta])


def test_sweep_accepts_delta_range_ends():
    series = eigenstate_series(-1.0, 6)
    for algorithm in ("uvqpe", "odmd"):
        cells = sweep(algorithm, [series], [4], [1.0, DELTA_FLOOR])
        for delta in (1.0, DELTA_FLOOR):
            est, = cells[4, delta]
            assert est.retained_rank >= 1 and abs(est.energy + 1.0) < 1e-9
        assert cells[4, 1.0][0].retained_rank == 1  # sigma_max alone passes at delta = 1


def test_admissibility_fallback_flag():
    # decaying series puts every eigenvalue far inside the unit circle
    vals = 0.1 ** np.arange(7, dtype=float)
    series = OverlapSeries(DT, vals.astype(complex))
    est = odmd(series, 4, 1e-12)
    assert "no_admissible_eigenvalue" in est.flags
    assert est.energy is not None


def test_solver_bounds_validation(series8):
    with pytest.raises(ValueError):
        uvqpe(series8, 0, 1e-6)
    with pytest.raises(ValueError):
        uvqpe(series8, 1000, 1e-6)
    with pytest.raises(ValueError):
        odmd(series8, 1, 1e-6)
    with pytest.raises(ValueError):
        solve("newton", series8, 3, 1e-6)
    for algorithm, steps in (("uvqpe", [0, 3]), ("uvqpe", [3, 1000]), ("odmd", [1]),
                             ("newton", [3])):
        with pytest.raises(ValueError):
            sweep(algorithm, [series8], steps, [1e-6])


@pytest.mark.parametrize("algorithm, window, first", [
    ("uvqpe", None, 1), ("uvqpe", 4, 1), ("odmd", None, 2), ("odmd", 1, 2), ("odmd", 4, 4)])
def test_solver_steps_start_where_sweep_accepts(series8, algorithm, window, first):
    # the prefix rule: from the solver's first step, and from d for a Hankel window of d rows
    steps = SOLVERS[algorithm].steps(6, window)
    assert steps == range(first, 7)
    sweep(algorithm, [series8], steps, [1e-6], window=window)
    with pytest.raises(ValueError):
        sweep(algorithm, [series8], [first - 1], [1e-6], window=window)


def test_step_bounds_examples():
    j, d = step_bounds(24.0, 1.0, 1e-2, 2.0, DT)
    assert j == 1
    assert d == 5
    # plug in the 8-spin numbers: spectral range 24, overlap 0.286, and the
    # ED gap 1.164 above the degenerate ground pair; the sufficient count
    # must land within an order of magnitude of the observed 26-33 steps
    gap = 1.1640779909999992
    j, d = step_bounds(24.0, 0.286, 1e-2, gap, DT)
    assert 10 <= j <= 300
    assert d == int(np.ceil(1 / (gap * DT)))
    with pytest.raises(ValueError):
        step_bounds(24.0, 0.5, 1e-2, 0.0, DT)
    with pytest.raises(ValueError):
        step_bounds(24.0, 1.5, 1e-2, 1.0, DT)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-10, max_value=10), st.integers(1, 6))
def test_uvqpe_recovers_any_inband_energy(e0, n_steps):
    # |e0 * dt| < pi keeps the eigenphase on the principal branch
    series = eigenstate_series(e0, 8)
    est = uvqpe(series, n_steps, 1e-9)
    assert abs(est.energy - e0) < 1e-8


def test_real_part_only_mode():
    star = build_star(4)
    ham = SpinHamiltonian(star)
    psi = dressed_initial(star).state()
    series = overlap_series_exact(psi, ExactEvolver(ham), DT, 60)
    est = odmd(series, 60, 1e-7, real_part=True)
    assert abs(est.energy + 12.0) < 1e-3


def test_csv_writers(tmp_path):
    from starkrylov.cli import _write_convergence
    _write_convergence(tmp_path / "c.csv",
                       [("uvqpe", 1e-3, 5, -11.9, 0.1, 4),
                        ("odmd", 1e-3, 5, -12.0, 1e-9, 3)])
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0].startswith("algorithm,delta,step")
    assert len(lines) == 3
