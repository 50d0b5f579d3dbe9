import gc
import math
import weakref

import numpy as np
import pytest

from oracles import magnetization, per_sector_energies, shared_sector_energies, sweep_cell
from starkrylov import hamiltonian, krylov, magnet
from starkrylov.cli import _write_curve, _write_sectors, main
from starkrylov.hamiltonian import SpinHamiltonian
from starkrylov.lattice import build_star
from starkrylov.magnet import (
    build_curve,
    estimate_sector_energies,
    sector_series,
    sector_solver_settings,
)
from starkrylov.mirror import ExactEvolver, overlap_series_exact
from starkrylov.prep import dressed_initial, sector_initial


def prefix_energies(ham, sz, dt, n_steps, delta, sz0_cz_bonds=None, method="uvqpe"):
    """Solver energies at every valid prefix up to n_steps of the sector's series."""
    series = sector_series(ham, sz, dt, n_steps, sz0_cz_bonds)
    first = krylov.SOLVERS[method].first_step
    return [sweep_cell(method, series, ns, delta).energy
            for ns in range(first, n_steps + 1)]


@pytest.fixture(scope="module")
def ed_energies():
    out = {}
    for n_tri in (4, 6):
        ham = SpinHamiltonian(build_star(n_tri))
        out[n_tri] = {int(sz): e for sz, e in ham.sector_ground_energies().items()
                      if sz >= 0 and sz == int(sz)}
    return out


def test_missing_sector_rejected():
    with pytest.raises(ValueError, match="missing"):
        build_curve({0: -12.0, 1: -10.0}, 8)


def test_curve_basics(ed_energies):
    for n_tri in (4, 6):
        n = 2 * n_tri
        curve = build_curve(ed_energies[n_tri], n)
        assert magnetization(curve, 0.0) == 0.0
        assert curve.plateaus[-1].sz == n // 2
        assert math.isinf(curve.plateaus[-1].h_end)
        ms = [p.sz for p in curve.plateaus]
        assert ms == sorted(ms)
        hs = list(curve.crossing_fields)
        assert hs == sorted(hs) and len(set(hs)) == len(hs)
        # per-site normalization saturates at 1
        assert magnetization(curve, hs[-1] + 1.0, per_site=True) == 1.0


def test_curve_envelope_against_grid_oracle(ed_energies):
    # brute-force winner on a dense h grid must match the plateau lookup
    for n_tri in (4, 6):
        energies = ed_energies[n_tri]
        curve = build_curve(energies, 2 * n_tri)
        for h in np.linspace(0.0, 14.0, 1401):
            winner = min(energies, key=lambda s: energies[s] - h * s)
            if any(abs(h - hc) < 1e-9 for hc in curve.crossing_fields):
                continue  # exactly at a crossing both sectors tie
            assert magnetization(curve, float(h)) == winner


def test_half_open_plateau_boundaries(ed_energies):
    curve = build_curve(ed_energies[4], 8)
    h1 = curve.crossing_fields[0]
    assert magnetization(curve, h1) == curve.plateaus[1].sz
    assert magnetization(curve, h1 - 1e-9) == curve.plateaus[0].sz
    with pytest.raises(ValueError):
        magnetization(curve, -0.1)


def test_magnetization_steps_at_least_one(ed_energies):
    for n_tri in (4, 6):
        curve = build_curve(ed_energies[n_tri], 2 * n_tri)
        szs = [p.sz for p in curve.plateaus]
        assert all(b - a >= 1 for a, b in zip(szs, szs[1:]))


def test_lieb_violation_rejected():
    bad = {0: 0.0, 1: -5.0, 2: 1.0, 3: 2.0, 4: 3.0}
    with pytest.raises(ValueError, match="minimal sector"):
        build_curve(bad, 8)


def test_sector_estimates_8_spin(ed_energies):
    star = build_star(4)
    settings = sector_solver_settings(star)
    ham = SpinHamiltonian(star)
    energies, meta = estimate_sector_energies(star, **settings)
    trace = {sz: prefix_energies(ham, sz, **settings) for sz in energies}
    for sz, e in energies.items():
        assert meta[sz]["converged"]
        # every sector sits within 1e-6 of ED by step 20 already
        assert abs(trace[sz][19] - ed_energies[4][sz]) < 1e-6
        assert abs(e - ed_energies[4][sz]) < 1e-8
    # the polarized sector is a single state: exact from the first step
    assert abs(trace[4][0] - ed_energies[4][4]) < 1e-9


def test_sector_estimates_reject_bad_dt():
    star = build_star(6)
    with pytest.raises(ValueError, match="admissibility"):
        estimate_sector_energies(star, dt=0.2)
    with pytest.raises(ValueError, match="method"):
        estimate_sector_energies(star, method="vqe")


def test_sector_estimates_reject_floquet_solver_and_field():
    with pytest.raises(ValueError, match="both directions"):
        estimate_sector_energies(build_star(4), method="uvqpe_floquet")


@pytest.fixture
def built_hamiltonians(monkeypatch):
    """The argument tuples of every SpinHamiltonian that magnet builds."""
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return SpinHamiltonian(*args, **kwargs)

    monkeypatch.setattr("starkrylov.magnet.SpinHamiltonian", counted)
    return built


@pytest.mark.parametrize("delta", [2.0, 0.0, krylov.DELTA_FLOOR / 2])
def test_sector_estimates_reject_delta_before_any_hamiltonian(built_hamiltonians, delta):
    # a threshold outside [DELTA_FLOOR, 1] is refused before the first sector's ED
    with pytest.raises(ValueError, match=r"delta must lie in \[1e-14, 1\]"):
        estimate_sector_energies(build_star(4), delta=delta)
    assert built_hamiltonians == []


@pytest.mark.parametrize("kwargs, message", [
    ({"method": "odmd", "n_steps": 1}, "n_steps must be >= 2 for odmd"),
    ({"dt": 0.3}, r"dt=0.3 violates the admissibility bound 0 < dt < 0.261799 "
                  r"\(the spectral bound for 8 sites at h=0\)"),
], ids=["odmd-n-steps-below-first-step", "dt-past-bound"])
def test_sector_estimates_reject_steps_and_dt_before_any_hamiltonian(built_hamiltonians,
                                                                     kwargs, message):
    # n_steps and dt are refused before the h = 0 Hamiltonian and its ED, not
    # first in the sweep or on a built Hamiltonian
    with pytest.raises(ValueError, match=message):
        estimate_sector_energies(build_star(4), **kwargs)
    assert built_hamiltonians == []


def test_sz0_dressing_override():
    # without CZ dressing the S^z = 0 state is the pinwheel, an exact ground state
    ham = SpinHamiltonian(build_star(4))
    delta = sector_solver_settings(ham.lattice)["delta"]
    trace = prefix_energies(ham, 0, 0.17, 2, delta, sz0_cz_bonds=[])
    assert abs(trace[0] + 12.0) < 1e-9
    trace = prefix_energies(ham, 0, 0.17, 2, delta)
    assert abs(trace[0] + 12.0) > 1e-3


def test_solver_curve_matches_ed_8_spin(ed_energies):
    star = build_star(4)
    energies, meta = estimate_sector_energies(star, **sector_solver_settings(star))
    curve = build_curve(energies, 8)
    exact = build_curve(ed_energies[4], 8)
    assert len(curve.crossing_fields) == len(exact.crossing_fields)
    for a, b in zip(curve.crossing_fields, exact.crossing_fields):
        assert abs(a - b) < 1e-3


def test_12_spin_sz1_slower_than_sz2():
    star = build_star(6)
    settings = sector_solver_settings(star)
    ham = SpinHamiltonian(star)

    def steps_to(sz, tol=5e-4):
        e0 = ham.ground_state_energy(sector=float(sz))
        for i, e in enumerate(prefix_energies(ham, sz, **settings)):
            if e is not None and abs(e - e0) < tol:
                return i + 1
        return None

    s1, s2 = steps_to(1), steps_to(2)
    assert s1 is not None and s2 is not None
    assert s1 > s2  # slower despite the larger initial overlap


@pytest.mark.parametrize("method", ["uvqpe", "odmd"])
def test_one_solve_matches_all_prefix_loop(method):
    # reference: the all-prefix loop that solved every prefix and kept the last
    star = build_star(4)
    ham = SpinHamiltonian(star)
    settings = sector_solver_settings(star)
    energies, meta = estimate_sector_energies(star, method=method, **settings)
    evolver = ExactEvolver(ham)
    first = krylov.SOLVERS[method].first_step
    for sz in range(star.n_triangles + 1):
        # the 8-spin default dresses every free outer bond
        prep = dressed_initial(star) if sz == 0 else sector_initial(star, sz)
        series = overlap_series_exact(prep.state(), evolver, settings["dt"],
                                      settings["n_steps"])
        trace = [sweep_cell(method, series, ns, settings["delta"]).energy
                 for ns in range(first, settings["n_steps"] + 1)]
        assert energies[sz] == trace[-1]
        assert meta[sz]["final_error"] == abs(trace[-1] - meta[sz]["exact"])


@pytest.mark.parametrize("custom", [False, True], ids=["default", "custom"])
@pytest.mark.parametrize("method", ["uvqpe", "odmd"])
@pytest.mark.parametrize("n_tri", [4, 6])
def test_one_pass_matches_shared_hamiltonian_flow(n_tri, method, custom):
    # reference: one shared Hamiltonian, every sector's ED first, then each
    # sector's series, which decomposes the sector again, and sweep
    star = build_star(n_tri)
    settings = {"delta": 1e-3, "n_steps": 30, "dt": 0.15} if custom else {}
    ed, ref_energies, ref_meta = shared_sector_energies(SpinHamiltonian(star), method,
                                                        **settings)
    energies, meta = estimate_sector_energies(star, method, **settings)
    assert energies == ref_energies
    assert meta == ref_meta
    assert {sz: m["exact"] for sz, m in meta.items()} == ed


def test_cli_ed_files_match_shared_hamiltonian(tmp_path):
    assert main(["magnetization", "--out", str(tmp_path / "out")]) == 0
    ham = SpinHamiltonian(build_star(4))
    ed = {sz: ham.ground_state_energy(sector=sz) for sz in range(5)}
    _write_sectors(tmp_path / "sectors_ed.csv", ed)
    _write_curve(tmp_path / "magnetization_ed.csv", build_curve(ed, 8))
    for name in ("sectors_ed.csv", "magnetization_ed.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("method", ["uvqpe", "odmd"])
@pytest.mark.parametrize("n_tri", [4, 6])
def test_one_hamiltonian_matches_hamiltonian_per_sector(n_tri, method, monkeypatch):
    # reference: the former pass, each sector's series and ED energy on an
    # h = 0 Hamiltonian of its own; the pass builds one Hamiltonian in all
    star = build_star(n_tri)
    ref_energies, ref_meta = per_sector_energies(star, method)
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return SpinHamiltonian(*args, **kwargs)

    monkeypatch.setattr(magnet, "SpinHamiltonian", counted)
    energies, meta = estimate_sector_energies(star, method)
    assert energies == ref_energies
    assert meta == ref_meta
    assert built == [(star,)]


def _run_magnetization_12(entry, tmp_path):
    if entry == "estimate":
        estimate_sector_energies(build_star(6))
    else:  # the command makes no ED call beside the estimate's
        (tmp_path / "config.json").write_text('{"n_triangles": 6}')
        main(["magnetization", "--config", str(tmp_path / "config.json"),
              "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("entry", ["estimate", "cli"])
def test_one_sector_blocks_alive_at_a_time(entry, tmp_path, monkeypatch):
    # every eigenvector array that _decompose returns registers a weak
    # reference; with the collector off, no earlier sector's array may be
    # alive when a sector has been decomposed, none at any sweep and none
    # after the run.  The one h = 0 Hamiltonian keeps each sector's sorted
    # energies only: 8 bytes per basis state (the 924-state sector's
    # eigenvectors take about 1.6 kB per state)
    refs, alive_at_build, alive_at_sweep, hams = [], [], [], set()
    decompose = SpinHamiltonian._decompose

    def alive():
        return sum(ref() is not None for ref in refs)

    def tracked(self, n_down):
        sec = decompose(self, n_down)
        alive_at_build.append(alive())
        refs.extend(weakref.ref(v) for *_, v, _ in sec.blocks)
        hams.add(self)
        return sec

    sweep = krylov.sweep

    def watched_sweep(*args, **kwargs):
        alive_at_sweep.append(alive())
        return sweep(*args, **kwargs)

    monkeypatch.setattr(SpinHamiltonian, "_decompose", tracked)
    monkeypatch.setattr(krylov, "sweep", watched_sweep)
    gc.disable()
    try:
        _run_magnetization_12(entry, tmp_path)
        assert alive() == 0
    finally:
        gc.enable()
    assert alive_at_build == [0] * 7
    assert alive_at_sweep == [0] * 7
    ham, = hams
    kept = list(ham._energies.values())
    assert sorted(map(len, kept)) == sorted(math.comb(12, k) for k in range(7))
    assert all(a.nbytes <= 8 * len(a) for a in kept)


@pytest.mark.parametrize("entry", ["estimate", "cli"])
def test_no_eigenvector_alive_beside_phase_matrix(entry, tmp_path, monkeypatch):
    # every eigenvector array that _decompose returns registers a weak
    # reference; with the collector off, none may be alive when the spectral
    # sum allocates a sector's phase matrix, its one np.zeros call of shape
    # (times, sector dimension)
    refs, alive_at_phases = [], []
    decompose = SpinHamiltonian._decompose
    n_times = sector_solver_settings(build_star(6))["n_steps"]

    def tracked(self, n_down):
        sec = decompose(self, n_down)
        refs.extend(weakref.ref(v) for *_, v, _ in sec.blocks)
        return sec

    class WatchedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 2 and shape[0] == n_times:
                alive_at_phases.append((shape[1], sum(ref() is not None for ref in refs)))
            return np.zeros(shape, *args, **kwargs)

    monkeypatch.setattr(SpinHamiltonian, "_decompose", tracked)
    monkeypatch.setattr(hamiltonian, "np", WatchedNumpy())
    gc.disable()
    try:
        _run_magnetization_12(entry, tmp_path)
    finally:
        gc.enable()
    assert len(refs) >= 7
    # S^z = 0 .. 6: sector dimensions C(12, 6 - S^z)
    assert alive_at_phases == [(math.comb(12, 6 - sz), 0) for sz in range(7)]


def test_unconverged_sector_flagged():
    # an aggressive threshold filters the small ground-state component of the
    # S^z=0 state and parks the solver on an excited level
    energies, meta = estimate_sector_energies(build_star(6), delta=0.1, n_steps=60, dt=0.1)
    assert meta[0]["converged"] is False
    assert meta[0]["final_error"] > 0.1


def test_csv_writers(tmp_path, ed_energies):
    curve = build_curve(ed_energies[4], 8)
    _write_curve(tmp_path / "curve.csv", curve)
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "h_start,h_end,Sz,energy_at_h_start"
    assert lines[-1].split(",")[1] == "inf"
    _write_sectors(tmp_path / "sectors.csv", ed_energies[4])
    assert len((tmp_path / "sectors.csv").read_text().splitlines()) == 6
