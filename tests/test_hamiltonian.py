from dataclasses import dataclass, replace
from math import comb

import numpy as np
import pytest

from oracles import (
    block_evolve,
    block_projections,
    build_patch,
    dense_matrix,
    diagonalize,
    held_autocorrelation,
    sector_basis,
    sector_block,
    spectral_sum,
    subspace_overlap,
)
from starkrylov.cli import cmd_spectrum
from starkrylov.config import RunConfig
from starkrylov.hamiltonian import QUBIT_CAP, SpinHamiltonian, check_time_step, norm_bound
from starkrylov.lattice import build_star
from starkrylov.magnet import sector_series, sector_solver_settings
from starkrylov.prep import dressed_initial, pinwheel, reference_superposition, sector_initial


@dataclass(frozen=True)
class ToyLattice:
    """Minimal graph for single-bond / single-triangle spectra."""

    n_sites: int
    bonds: tuple
    n_triangles: int = 1


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(m, out)  # site i is bit i: later factors are higher bits
    return out


def dense_oracle(n, bonds, h=0.0):
    """Independent construction from explicit Pauli kron products."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    I = np.eye(2, dtype=complex)
    H = np.zeros((1 << n, 1 << n), dtype=complex)
    for (i, j) in bonds:
        for P in (X, Y, Z):
            mats = [I] * n
            mats[i] = P
            mats[j] = P
            H += kron_chain(mats)
    for i in range(n):
        mats = [I] * n
        mats[i] = Z / 2
        H -= h * kron_chain(mats)
    return H


def test_dense_matches_kron_oracle():
    star = build_star(4)
    ham = SpinHamiltonian(star, h_field=0.7)
    oracle = dense_oracle(8, star.bonds, h=0.7)
    assert np.max(np.abs(dense_matrix(ham) - oracle)) < 1e-12


def test_single_bond_spectrum():
    ham = SpinHamiltonian(ToyLattice(2, ((0, 1),)))
    w = np.sort(np.linalg.eigvalsh(dense_matrix(ham)))
    assert np.allclose(w, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_single_triangle_spectrum():
    ham = SpinHamiltonian(ToyLattice(3, ((0, 1), (0, 2), (1, 2))))
    w = np.sort(np.linalg.eigvalsh(dense_matrix(ham)))
    assert np.allclose(w, [-3.0] * 4 + [3.0] * 4, atol=1e-12)


@pytest.mark.parametrize("n_tri,e0", [(4, -12.0), (6, -18.0)])
def test_star_ground_energies(n_tri, e0):
    ham = SpinHamiltonian(build_star(n_tri))
    assert abs(ham.ground_state_energy() - e0) < 1e-9


def test_qubit_cap():
    with pytest.raises(ValueError, match="cap"):
        SpinHamiltonian(build_star(8))  # 16 sites
    assert QUBIT_CAP == 14
    build_patch(4, 4)  # 48 sites, geometry alone is fine


def test_sector_dimensions():
    ham = SpinHamiltonian(build_star(4))
    assert len(sector_basis(ham, 0.0)) == 70  # C(8,4)
    assert len(sector_basis(ham, 4.0)) == 1
    assert sum(len(sector_basis(ham, ham._sz_of_ndown(k))) for k in range(9)) == 256
    assert len(sector_basis(ham, 1.0)) == comb(8, 3)
    with pytest.raises(ValueError, match="empty"):
        diagonalize(ham, 5.0)


def test_hamiltonians_share_read_only_sector_indices():
    # a magnetization run builds one Hamiltonian per sector on the same
    # lattice: all of them, at any field, read one set of index arrays
    star = build_star(6)
    first, second = SpinHamiltonian(star), SpinHamiltonian(star, 0.7)
    assert all(a is b for a, b in zip(first._sectors, second._sectors))
    idx = np.arange(1 << 12)
    for k, basis in enumerate(first._sectors):
        assert not basis.flags.writeable
        assert np.array_equal(basis, [i for i in idx if bin(i).count("1") == k])


def test_polarized_sector_eigenvalue_with_field():
    h = 0.9
    ham = SpinHamiltonian(build_star(4), h_field=h)
    res = diagonalize(ham, 4.0)
    assert len(res.energies) == 1
    assert abs(res.energies[0] - (12.0 - 4.0 * h)) < 1e-12


def test_commutes_with_total_sz():
    star = build_star(4)
    ham = SpinHamiltonian(star, h_field=0.3)
    H = dense_matrix(ham)
    idx = np.arange(256)
    sz = sum(0.5 * (1 - 2 * ((idx >> q) & 1)) for q in range(8))
    comm = H * sz[None, :] - sz[:, None] * H
    assert np.max(np.abs(comm)) < 1e-12


def test_eigen_residuals_and_bounds():
    ham = SpinHamiltonian(build_star(4), h_field=0.5)
    bound = norm_bound(ham.lattice, ham.h_field)
    H = dense_matrix(ham)
    n_pairs = 0
    for k in range(9):
        res = diagonalize(ham, ham._sz_of_ndown(k))
        assert np.all(np.abs(res.energies) <= bound + 1e-9)
        assert np.all(np.diff(res.energies) >= -1e-12)
        for i, e in enumerate(res.energies):
            v = np.zeros(256, dtype=complex)
            v[res.basis] = res.vectors[:, i]
            assert np.linalg.norm(H @ v - e * v) < 1e-9
            n_pairs += 1
    assert n_pairs == 256


@pytest.mark.parametrize(
    "n_tri,h,bound", [(4, 0.0, 12.0), (6, 0.0, 18.0), (4, 1.0, 16.0)]
)
def test_spectral_bounds_values(n_tri, h, bound):
    star = build_star(n_tri)
    assert norm_bound(star, h) == bound
    check_time_step(star, np.pi / bound * (1 - 1e-12), h)  # dt_max = pi / bound
    with pytest.raises(ValueError, match="admissibility"):
        check_time_step(star, np.pi / bound, h)


def test_dt_max_8_spin_value():
    star = build_star(4)
    check_time_step(star, 2 * np.pi / 24 - 1e-12)
    with pytest.raises(ValueError, match=f"{2 * np.pi / 24:.6g}"):
        check_time_step(star, 2 * np.pi / 24)


@pytest.mark.parametrize(
    "n_tri,h,expected", [(4, 0.0, 12.0), (6, 0.0, 18.0), (4, 2.0, 4.0)]
)
def test_reference_energy(n_tri, h, expected):
    ham = SpinHamiltonian(build_star(n_tri), h_field=h)
    assert abs(ham.reference_energy() - expected) < 1e-12
    # oracle: expectation of the dense matrix in the all-up state
    all_up = np.zeros(1 << ham.n_sites)
    all_up[0] = 1.0
    direct = float(all_up @ dense_matrix(ham) @ all_up)
    assert abs(ham.reference_energy() - direct) < 1e-12


def test_frustration_free_saturation():
    for n_tri in (4, 6):
        ham = SpinHamiltonian(build_star(n_tri))
        assert abs(ham.ground_state_energy() - (-3.0 * n_tri)) < 1e-9


def test_subspace_overlap_examples():
    star = build_star(4)
    ham = SpinHamiltonian(star)
    spec = diagonalize(ham, 0.0)
    assert abs(subspace_overlap(pinwheel(star).state(), spec) - 1.0) < 1e-10
    ov = subspace_overlap(dressed_initial(star).state(), spec)
    assert abs(ov - 0.286) < 1e-3
    # basis state from the Sz=4 sector is orthogonal to the Sz=0 ground space
    polarized = np.zeros(256, dtype=complex)
    polarized[0] = 1.0
    assert subspace_overlap(polarized, spec) < 1e-15
    with pytest.raises(ValueError, match="normalized"):
        subspace_overlap(2 * polarized, spec)


def test_evolve_blocks_match_dense_expm(tmp_path):
    star = build_star(4)
    ham = SpinHamiltonian(star, h_field=0.2)
    rng = np.random.default_rng(0)
    v = rng.normal(size=256) + 1j * rng.normal(size=256)
    v /= np.linalg.norm(v)
    w, vecs = np.linalg.eigh(dense_matrix(ham))
    expected = vecs @ (np.exp(-1j * w * 0.6) * (vecs.conj().T @ v))
    assert np.linalg.norm(ham.evolve(v, 0.6) - expected) < 1e-9
    spectra = ham.sector_spectra()
    assert np.allclose(np.sort(np.concatenate(list(spectra.values()))), w, atol=1e-9)
    assert {sz: e[0] for sz, e in spectra.items()} == ham.sector_ground_energies()
    cfg = RunConfig(h_field=0.2)
    cmd_spectrum(cfg, cfg.validate("spectrum"), tmp_path)
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "sector,index,energy"
    assert len(lines) == 1 + 256


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("n_tri", [4, 6])
def test_autocorrelation_matches_evolve_loop(n_tri):
    # the spectral sum against the per-time evolution it replaces, on states
    # in one sector, in two (psi0 plus the all-up reference) and in all
    star = build_star(n_tri)
    ham = SpinHamiltonian(star)
    times = np.arange(1, 61) * 0.17
    states = {
        "dressed": dressed_initial(star).state(),
        "sector_sz1": sector_initial(star, 1).state(),
        "reference_superposition": reference_superposition(
            dressed_initial(star), 1j).state(),
        "random": _random_state(star.n_sites, n_tri),
    }
    for name, psi in states.items():
        loop = np.array([np.vdot(psi, ham.evolve(psi, t)) for t in times])
        spectral = ham.autocorrelation(psi, times)
        assert np.max(np.abs(spectral - loop)) <= 1e-13, name
    # a state of another size is refused, not truncated or padded
    for wrong in (np.ones(4), np.ones(2 * ham.dim)):
        with pytest.raises(ValueError, match="dimension"):
            ham.autocorrelation(wrong, times)
        with pytest.raises(ValueError, match="dimension"):
            ham.evolve(wrong, 0.1)


@pytest.mark.parametrize("n_tri", [4, 6])
@pytest.mark.parametrize("h", [0.0, 0.5, 0.7])
def test_momentum_blocks_match_dense_sectors(n_tri, h):
    # the rotation-momentum blocks against eigh of each full sector block
    star = build_star(n_tri)
    ham = SpinHamiltonian(star, h_field=h)
    times = np.arange(1, 61) * 0.17
    states = [_random_state(star.n_sites, n_tri), _random_state(star.n_sites, 7),
              pinwheel(star).state()]
    evolved = [np.zeros(ham.dim, dtype=complex) for _ in states]
    autocorrelations = [np.zeros(len(times), dtype=complex) for _ in states]
    for n_down in range(star.n_sites + 1):
        sz = ham._sz_of_ndown(n_down)
        basis = sector_basis(ham, sz)
        w, v = np.linalg.eigh(sector_block(ham, n_down))
        spec = diagonalize(ham, sz)
        assert np.max(np.abs(spec.energies - w)) <= 1e-12
        ground = w <= w[0] + 1e-9 * max(1.0, abs(w[0])) + 1e-12
        for psi, out, auto in zip(states, evolved, autocorrelations):
            proj = v.T @ psi[basis]
            out[basis] = v @ (np.exp(-1j * w * 0.6) * proj)
            auto += np.exp(-1j * np.outer(times, w)) @ np.abs(proj) ** 2
            assert abs(subspace_overlap(psi, spec) - np.sum(np.abs(proj[ground]) ** 2)) <= 1e-12
    for psi, out, auto in zip(states, evolved, autocorrelations):
        assert np.max(np.abs(ham.evolve(psi, 0.6) - out)) <= 1e-12
        assert np.max(np.abs(ham.autocorrelation(psi, times) - auto)) <= 1e-12


def _momentum_state(basis, rotation, rep, m, n_rot):
    """|r, m> = L_r^(-1/2) sum_{j < L_r} w^(-m j) T^j |r> on the sector basis,
    with the orbit of r walked bit by bit."""
    pos = {int(b): i for i, b in enumerate(basis)}
    orbit = [int(rep)]
    while True:
        nxt = sum(((orbit[-1] >> s) & 1) << t for s, t in enumerate(rotation))
        if nxt == orbit[0]:
            break
        orbit.append(nxt)
    out = np.zeros(len(basis), dtype=complex)
    for j, b in enumerate(orbit):
        out[pos[b]] += np.exp(-2j * np.pi * m * j / n_rot)
    return out / np.sqrt(len(orbit))


@pytest.mark.parametrize("n_tri", [4, 6])
@pytest.mark.parametrize("h", [0.0, 0.7])
def test_conjugate_momentum_blocks_match_explicit_blocks(n_tri, h, monkeypatch):
    """Block N - m reuses block m's eigenvalues and reads its eigenvectors as
    the conjugate of block m's array; each pair member must still
    diagonalize the block B^H H B that its momentum states B span, assembled
    from the dense sector block."""
    star = build_star(n_tri)
    ham = SpinHamiltonian(star, h_field=h)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    sectors = [ham._sector_eig(n_down) for n_down in range(star.n_sites + 1)]
    monkeypatch.undo()
    n_blocks = sum(len(sec.blocks) for sec in sectors)
    assert len(calls) == sum(len(sec.blocks) // 2 + 1 for sec in sectors) < n_blocks
    paired = 0
    for n_down, sec in enumerate(sectors):
        basis, n_rot = ham._sectors[n_down], len(sec.blocks)
        dense = sector_block(ham, n_down)
        reps = [basis[sec.orbit == r].min() for r in range(len(sec.scale))]
        for m, keep, w, v, conj in sec.blocks:
            assert conj == (2 * m > n_rot)
            if not conj:
                continue
            paired += 1
            v = v.conj()
            B = np.stack([_momentum_state(basis, star.rotation, reps[r], m, n_rot)
                          for r in keep], axis=1)
            block = B.conj().T @ dense @ B
            assert np.max(np.abs(w - np.linalg.eigh(block)[0])) <= 1e-12
            assert np.linalg.norm(block @ v - v * w, 2) <= 1e-12
    assert paired > 0


@pytest.mark.parametrize("n_tri", [4, 6])
@pytest.mark.parametrize("h", [0.0, 0.7])
def test_conjugate_blocks_share_one_array(n_tri, h):
    """Blocks m and N - m hold one eigenvector array between them, and the
    projections and evolution that read it equal, bitwise, those over
    explicit ``v.conj()`` copies."""
    star = build_star(n_tri)
    ham = SpinHamiltonian(star, h_field=h)
    shared = 0
    for n_down in range(star.n_sites + 1):
        sec = ham._sector_eig(n_down)
        n_rot = len(sec.blocks)
        for m, keep, w, v, conj in sec.blocks:
            if conj:
                pm, pkeep, pw, pv, pconj = sec.blocks[n_rot - m]
                assert pm == n_rot - m and not pconj
                assert pkeep is keep and pw is w and pv is v and np.shares_memory(v, pv)
                shared += 1
    assert shared > 0
    for psi in (_random_state(star.n_sites, 3), dressed_initial(star).state(),
                pinwheel(star).state(), sector_initial(star, 1).state()):
        found = list(ham._projections(psi))
        expected = list(block_projections(ham, psi))
        assert len(found) == len(expected)
        for (basis, _, coeffs), (ref_basis, _, _, ref_coeffs) in zip(found, expected):
            assert basis is ref_basis and len(coeffs) == len(ref_coeffs)
            assert all(np.array_equal(a, b) for a, b in zip(coeffs, ref_coeffs))
        for t in (0.6, -1.3):
            assert np.array_equal(ham.evolve(psi, t), block_evolve(ham, psi, t))


@pytest.mark.parametrize("n_tri", [4, 6])
def test_spectral_sum_matches_one_shot_reference(n_tri):
    """The phase matrix written into a complex zero array's imaginary view
    and exponentiated in place sums to the same bits as the one-shot
    exp(-i outer(times, w)) @ weights, at time counts from 1 to 151."""
    star = build_star(n_tri)
    ham = SpinHamiltonian(star)
    states = {"sector_sz1": sector_initial(star, 1).state(),
              "dressed": dressed_initial(star).state(),
              "random": _random_state(star.n_sites, 11)}
    for name, psi in states.items():
        for n_times in (1, 15, 16, 17, 65, 151):
            times = np.arange(1, n_times + 1) * 0.09
            assert np.array_equal(ham.autocorrelation(psi, times),
                                  spectral_sum(ham, psi, times)), (name, n_times)


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.uint64)


@pytest.mark.parametrize("n_tri", [4, 6])
@pytest.mark.parametrize("h", [0.0, 0.7])
def test_autocorrelation_matches_held_eigenvector_path(n_tri, h):
    """The spectral sum that releases each sector's eigenvectors before its
    phase matrix is built sums to the bits of the former path, which keeps
    them cached beside it, on states in one sector and in several; a second
    call, which decomposes the released sectors again, gives the same bits."""
    star = build_star(n_tri)
    times = np.arange(1, 152) * 0.17
    states = {"sector_sz1": sector_initial(star, 1).state(),
              "dressed": dressed_initial(star).state(),
              "reference_superposition": reference_superposition(
                  dressed_initial(star), 1j).state(),
              "random": _random_state(star.n_sites, 5)}
    for name, psi in states.items():
        ham = SpinHamiltonian(star, h_field=h)
        expected = _bits(held_autocorrelation(SpinHamiltonian(star, h_field=h), psi, times))
        assert np.array_equal(_bits(ham.autocorrelation(psi, times)), expected), name
        assert np.array_equal(_bits(ham.autocorrelation(psi, times)), expected), name


# signed zeros, subnormals of both signs, the smallest normal, and ordinary
# times of both signs: 2 + 4 + 1 + 141 rows, past two of the former fill's
# 64-row blocks
EDGE_TIMES = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320,
                              np.finfo(float).tiny], np.arange(-70, 71) * 0.17])


@pytest.mark.parametrize("n_tri", [4, 6])
@pytest.mark.parametrize("h", [0.0, 0.5])
def test_autocorrelation_bytes_match_former_fill(n_tri, h):
    """The phase matrix written once, as -t E into the imaginary view of a
    complex zero array, gives the bytes of the former fill, -1j times the
    float outer product in 64-row blocks (``held_autocorrelation``): both
    have +0 real parts and -(t E) imaginary parts, signed zeros included."""
    star = build_star(n_tri)
    states = {"sector_sz1": sector_initial(star, 1).state(),
              "dressed": dressed_initial(star).state(),
              "random": _random_state(star.n_sites, 3)}
    for name, psi in states.items():
        found = SpinHamiltonian(star, h_field=h).autocorrelation(psi, EDGE_TIMES)
        expected = held_autocorrelation(SpinHamiltonian(star, h_field=h), psi, EDGE_TIMES)
        assert found.tobytes() == expected.tobytes(), name


def test_magnetization_sector_series_match_held_eigenvector_path(monkeypatch):
    # the 7 sector series of the 12-spin magnetization run, all on one
    # Hamiltonian as the command builds them
    star = build_star(6)
    settings = sector_solver_settings(star)
    args = settings["dt"], settings["n_steps"]
    ham = SpinHamiltonian(star)
    found = [sector_series(ham, sz, *args).values for sz in range(7)]
    monkeypatch.setattr(SpinHamiltonian, "autocorrelation", held_autocorrelation)
    for sz, values in enumerate(found):
        expected = sector_series(SpinHamiltonian(star), sz, *args).values
        assert np.array_equal(_bits(values), _bits(expected)), sz


@pytest.mark.parametrize("n_tri", [4, 6])
def test_released_sectors_keep_spectra_and_decompose_again_for_vectors(n_tri, monkeypatch):
    """After ``autocorrelation`` the touched sectors hold no eigenvector
    array: spectra and ground energies read the kept eigenvalues with no
    ``eigh`` call, and ``evolve`` decomposes them again into the arrays a
    fresh Hamiltonian builds."""
    star = build_star(n_tri)
    psi = _random_state(star.n_sites, 9)  # touches every sector
    times = np.arange(1, 31) * 0.17
    ham, fresh = SpinHamiltonian(star), SpinHamiltonian(star)
    ham.autocorrelation(psi, times)
    assert all(v is None for sec in ham._eigs.values() for *_, v, _ in sec.blocks)
    expected = fresh.sector_spectra()
    sectors = (0.0, 1.0, -2.0)
    ground = [fresh.ground_state_energy(sector=sz) for sz in sectors]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    spectra = ham.sector_spectra()
    assert spectra.keys() == expected.keys()
    assert all(np.array_equal(spectra[sz], expected[sz]) for sz in expected)
    assert ham.ground_state_energy() == fresh.ground_state_energy()
    assert [ham.ground_state_energy(sector=sz) for sz in sectors] == ground
    assert ham.sector_ground_energies() == fresh.sector_ground_energies()
    assert calls == []
    for sector_state in (dressed_initial(star).state(), sector_initial(star, 1).state()):
        ham.autocorrelation(sector_state, times)
        for t in (0.6, -1.3):
            assert np.array_equal(ham.evolve(sector_state, t), fresh.evolve(sector_state, t))
    assert len(calls) > 0  # the released sectors were decomposed again
    assert np.array_equal(ham.evolve(psi, 0.6), fresh.evolve(psi, 0.6))


def test_rotation_must_map_bonds_onto_bonds():
    star = build_star(4)
    inner_only = (1, 2, 3, 0, 4, 5, 6, 7)  # moves the ring but not the apexes
    with pytest.raises(ValueError, match="rotation"):
        SpinHamiltonian(replace(star, rotation=inner_only))
    with pytest.raises(ValueError, match="rotation"):
        SpinHamiltonian(replace(star, rotation=(0,) * 8))
    # a rotation by two triangles is a symmetry too: a group of order 2, same spectrum
    twice = SpinHamiltonian(replace(star, rotation=tuple(star.rotation[s] for s in star.rotation)))
    ham = SpinHamiltonian(star)
    for n_down in range(star.n_sites + 1):
        assert np.max(np.abs(twice._sector_eig(n_down).energies
                             - ham._sector_eig(n_down).energies)) <= 1e-12
