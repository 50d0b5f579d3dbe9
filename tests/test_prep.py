import numpy as np
import pytest

from oracles import diagonalize, expectation, matvec, subspace_overlap
from starkrylov.hamiltonian import SpinHamiltonian
from starkrylov.lattice import build_star
from starkrylov.prep import (
    MAPPER_MATRIX,
    dressed_initial,
    invert,
    pinwheel,
    reference_superposition,
    sector_initial,
)
from starkrylov.statevec import apply_circuit


def singlet_product_oracle(n, pairs):
    """Direct amplitude construction, independent of the gate pipeline."""
    psi = np.zeros(1 << n, dtype=complex)
    m = len(pairs)
    for mask in range(1 << m):
        amp, idx = 1.0, 0
        for t, (a, b) in enumerate(pairs):
            if (mask >> t) & 1:
                idx |= 1 << b
                amp *= 1 / np.sqrt(2)
            else:
                idx |= 1 << a
                amp *= -1 / np.sqrt(2)
        psi[idx] += amp
    return psi


def sz_moments(psi, n):
    idx = np.arange(1 << n)
    sz = sum(0.5 * (1 - 2 * ((idx >> q) & 1)) for q in range(n))
    p = np.abs(psi) ** 2
    mean = float(np.sum(p * sz))
    var = float(np.sum(p * sz ** 2) - mean ** 2)
    return mean, var


@pytest.fixture(scope="module")
def stars():
    return {4: build_star(4), 6: build_star(6)}


@pytest.fixture(scope="module")
def hams(stars):
    return {k: SpinHamiltonian(s) for k, s in stars.items()}


def test_pinwheel_matches_singlet_oracle(stars):
    star = stars[4]
    psi = pinwheel(star).state()
    oracle = singlet_product_oracle(8, star.dimer_bonds("cw"))
    assert np.linalg.norm(psi - oracle) < 1e-12


@pytest.mark.parametrize("n_tri,energy", [(4, -12.0), (6, -18.0)])
def test_pinwheel_energy(stars, hams, n_tri, energy):
    psi = pinwheel(stars[n_tri]).state()
    assert abs(expectation(hams[n_tri], psi) - energy) < 1e-10


@pytest.mark.parametrize("n_tri", [4, 6])
def test_pinwheel_is_exact_eigenstate(stars, hams, n_tri):
    psi = pinwheel(stars[n_tri]).state()
    residual = matvec(hams[n_tri], psi) + 3.0 * n_tri * psi
    assert np.linalg.norm(residual) < 1e-9


@pytest.mark.parametrize("n_tri,value", [(4, 0.125), (6, 0.03125)])
def test_pinwheel_orientations_overlap(stars, n_tri, value):
    cw = pinwheel(stars[n_tri], "cw").state()
    ccw = pinwheel(stars[n_tri], "ccw").state()
    ov = abs(np.vdot(cw, ccw))
    assert 0.0 < ov < 1.0
    oracle = abs(np.vdot(
        singlet_product_oracle(2 * n_tri, stars[n_tri].dimer_bonds("cw")),
        singlet_product_oracle(2 * n_tri, stars[n_tri].dimer_bonds("ccw")),
    ))
    assert abs(ov - oracle) < 1e-12
    assert abs(ov - value) < 1e-12


@pytest.mark.parametrize(
    "n_tri,cz_every,target",
    [(4, 1, 0.286), (6, 1, 0.001), (6, 2, 0.016)],
)
def test_dressed_overlaps(stars, hams, n_tri, cz_every, target):
    star = stars[n_tri]
    bonds = star.free_outer_bonds("cw")[::cz_every]
    prep = dressed_initial(star, bonds)
    spec = diagonalize(hams[n_tri], 0.0)
    ov = subspace_overlap(prep.state(), spec)
    assert abs(ov - target) < 1e-3


# every preparation: name -> (triangle count, builder from the star)
PREPARATIONS = {
    **{f"pinwheel-{o}-{n}": (n, lambda star, o=o: pinwheel(star, o))
       for n in (4, 6) for o in ("cw", "ccw")},
    **{f"dressed-{n}": (n, dressed_initial) for n in (4, 6)},
    **{f"sector-{n}-sz{sz}": (n, lambda star, sz=sz: sector_initial(star, sz))
       for n in (4, 6) for sz in range(1, n + 1)},
    **{f"reference-{n}-{p}": (n, lambda star, phase=phase:
                              reference_superposition(dressed_initial(star), phase))
       for n in (4, 6) for p, phase in (("1", 1), ("i", 1j))},
}


@pytest.mark.parametrize("name", PREPARATIONS)
def test_prepared_state_is_normalized_amplitude_array(stars, name):
    n_tri, build = PREPARATIONS[name]
    psi = build(stars[n_tri]).state()
    assert isinstance(psi, np.ndarray) and psi.dtype == np.complex128
    assert psi.shape == (1 << stars[n_tri].n_sites,)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_dressed_rejects_bad_bonds(stars):
    star = stars[4]
    with pytest.raises(ValueError, match="non-existent"):
        dressed_initial(star, [(4, 99)])
    with pytest.raises(ValueError, match="dimer-free"):
        dressed_initial(star, [(0, 4)])  # a pinwheel dimer bond


SECTOR_TARGETS = {
    4: {1: 0.485, 2: 0.690, 3: 0.500, 4: 1.000},
    6: {1: 0.134, 2: 0.033, 3: 0.493, 4: 0.432, 5: 0.333, 6: 1.000},
}


@pytest.mark.parametrize("n_tri", [4, 6])
def test_sector_overlaps(stars, hams, n_tri):
    for sz, target in SECTOR_TARGETS[n_tri].items():
        prep = sector_initial(stars[n_tri], sz)
        spec = diagonalize(hams[n_tri], float(sz))
        ov = subspace_overlap(prep.state(), spec)
        assert abs(ov - target) < 2e-3, f"sz={sz}: {ov} vs {target}"


def test_sector_states_have_sharp_sz(stars):
    for n_tri, star in stars.items():
        for sz in range(0, n_tri + 1):
            prep = sector_initial(star, sz) if sz else dressed_initial(star)
            psi = prep.state()
            mean, var = sz_moments(psi, star.n_sites)
            assert abs(mean - sz) < 1e-10
            assert var < 1e-10


def test_sector_initial_rejections(stars):
    with pytest.raises(ValueError, match="no sector state"):
        sector_initial(stars[4], 5)
    with pytest.raises(ValueError, match="triangle stars"):
        sector_initial(build_star(8), 1)


@pytest.mark.parametrize("phase", [1, 1j])
def test_reference_superposition_state(stars, phase):
    star = stars[4]
    prep = dressed_initial(star)
    psi0 = prep.state()
    sup = reference_superposition(prep, phase)
    out = sup.state()
    expected = psi0 * phase
    expected[0] += 1.0
    expected /= np.sqrt(2.0)
    assert np.linalg.norm(out - expected) < 1e-10
    assert abs(out[0] - 1 / np.sqrt(2)) < 1e-10
    assert abs(np.vdot(psi0, out) - phase / np.sqrt(2)) < 1e-10


def test_reference_superposition_sector_state(stars):
    # partial coverings leave free sites out of the GHZ ladder
    star = stars[4]
    prep = sector_initial(star, 2)
    out = reference_superposition(prep, 1).state()
    expected = prep.state().copy()
    expected[0] += 1.0
    expected /= np.sqrt(2.0)
    assert np.linalg.norm(out - expected) < 1e-10


def test_reference_superposition_rejects_wrong_sector(stars):
    polarized = sector_initial(stars[4], 4)  # has no dimers, equals |Ref>
    with pytest.raises(ValueError):
        reference_superposition(polarized, 1)


@pytest.mark.parametrize("phase", [1, 1j])
def test_reference_superposition_rejects_a_reference_superposition(stars, phase):
    # a superposition keeps psi0's dimers, but its state overlaps the
    # all-up reference, so it cannot be the psi0 of another superposition
    sup = reference_superposition(dressed_initial(stars[4]), phase)
    assert sup.dimer_pairs
    with pytest.raises(ValueError, match="orthogonal"):
        reference_superposition(sup, 1)


def test_mapper_matrix_action():
    v11 = MAPPER_MATRIX @ np.array([0, 0, 0, 1.0])
    assert np.allclose(v11, [0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0])
    v00 = MAPPER_MATRIX @ np.array([1.0, 0, 0, 0])
    assert np.allclose(v00, [1, 0, 0, 0])
    assert np.linalg.norm(MAPPER_MATRIX.conj().T @ MAPPER_MATRIX - np.eye(4)) < 1e-12


def test_invert_roundtrip(stars):
    star = stars[4]
    prep = dressed_initial(star)
    out = apply_circuit(prep.state(), invert(prep).gates)
    assert abs(out[0] - 1.0) < 1e-10
    again = invert(invert(prep))
    for g1, g2 in zip(prep.gates, again.gates):
        assert np.allclose(g1.matrix, g2.matrix)
        assert g1.sites == g2.sites


def test_inverse_is_unitary_on_random_states(stars):
    star = stars[4]
    sup = reference_superposition(dressed_initial(star), 1)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=256) + 1j * rng.normal(size=256)
    amps /= np.linalg.norm(amps)
    roundtrip = apply_circuit(apply_circuit(amps, sup.gates), invert(sup).gates)
    assert np.linalg.norm(roundtrip - amps) < 1e-10
