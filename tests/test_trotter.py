import numpy as np
import pytest

from starkrylov.hamiltonian import SpinHamiltonian
from oracles import (
    bond_scheme,
    build_patch,
    cnot_count,
    evolve,
    exact_overlap,
    spectral_evolve,
)
from starkrylov.lattice import build_star
from starkrylov.mirror import GateEvolver
from starkrylov.prep import dressed_initial, pinwheel
from starkrylov.statevec import apply_circuit, zero_amps
from starkrylov.trotter import step_unitaries, term_unitary, triangle_scheme


@pytest.fixture(scope="module")
def star8():
    return build_star(4)


@pytest.fixture(scope="module")
def ham8(star8):
    return SpinHamiltonian(star8)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def test_triangle_unitary_at_zero_is_identity():
    assert np.linalg.norm(term_unitary(3, 0.0) - np.eye(8)) < 1e-12


def test_triangle_unitary_eigenphases():
    dt = 0.37
    phases = np.linalg.eigvals(term_unitary(3, dt))
    expected = sorted([np.exp(-3j * dt)] * 4 + [np.exp(3j * dt)] * 4, key=np.angle)
    assert np.allclose(sorted(phases, key=np.angle), expected, atol=1e-10)


def test_step_layout_8_spin(star8, ham8):
    gates = step_unitaries(triangle_scheme(star8), ham8, 0.1)
    assert len(gates) == 4  # two parity groups of two triangles
    assert all(len(g.sites) == 3 for g in gates)
    bonds = step_unitaries(bond_scheme(star8), ham8, 0.1)
    assert len(bonds) == 12
    with_field = step_unitaries(triangle_scheme(star8), SpinHamiltonian(star8, 0.5), 0.1)
    assert len(with_field) == 4 + 8  # extra single-site layer


def test_step_unitaries_are_unitary(star8, ham8):
    for scheme in (triangle_scheme(star8), bond_scheme(star8)):
        for g in step_unitaries(scheme, ham8, 0.23):
            d = g.matrix.shape[0]
            assert np.linalg.norm(g.matrix.conj().T @ g.matrix - np.eye(d)) < 1e-10


def test_parity_groups_commute(star8, ham8):
    # disjoint supports within a group: the group product is order-free
    even, odd = triangle_scheme(star8).groups
    for group in (even, odd):
        sites = [set(t) for t in group]
        for i in range(len(sites)):
            for j in range(i + 1, len(sites)):
                assert not sites[i] & sites[j]


def test_trotter_T0_is_identity(star8, ham8):
    psi = random_state(8, 1)
    out = evolve(GateEvolver(ham8, 0.1), psi, 0.0)
    assert np.linalg.norm(out - psi) < 1e-12


def test_trotter_exact_on_pinwheel(star8, ham8):
    pw = pinwheel(star8).state()
    for T in (0.4, 2.0):
        trotterized = evolve(GateEvolver(ham8, T), pw, T)
        exact = spectral_evolve(ham8, pw, T)
        fidelity = abs(np.vdot(trotterized, exact))
        assert abs(fidelity - 1.0) < 1e-10


def test_trotter_conserves_sz(star8):
    for h in (0.0, 0.8):
        ham = SpinHamiltonian(star8, h)
        psi = dressed_initial(star8).state()
        for out in (evolve(GateEvolver(ham, 0.9 / 3), psi, 0.9),
                    apply_circuit(psi, step_unitaries(bond_scheme(star8), ham, 0.9 / 3) * 3)):
            # population outside the S^z = 0 sector stays zero
            weights = np.abs(out) ** 2
            idx = np.arange(256)
            ups = sum(((idx >> q) & 1) for q in range(8))
            assert float(np.sum(weights[ups != 4])) < 1e-10


def test_first_order_error_slope(star8, ham8):
    psi = random_state(8, 3)
    T = 1.0
    exact = spectral_evolve(ham8, psi, T)
    ms = np.array([4, 8, 16, 32, 64])
    errs = []
    for m in ms:
        out = evolve(GateEvolver(ham8, T / m), psi, T)
        errs.append(np.linalg.norm(out - exact))
    slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
    assert abs(slope + 1.0) < 0.1


def test_error_halves_when_m_doubles(star8, ham8):
    psi = random_state(8, 4)
    exact = spectral_evolve(ham8, psi, 1.0)

    def err(m):
        out = evolve(GateEvolver(ham8, 1.0 / m), psi, 1.0)
        return np.linalg.norm(out - exact)

    ratio = err(32) / err(16)
    assert abs(ratio - 0.5) < 0.1


@pytest.mark.parametrize("t", [0.05, 0.5, 5.0])
def test_floquet_pinwheel_eigenvalue(star8, ham8, t):
    pw = pinwheel(star8).state()
    val = exact_overlap(pw, GateEvolver(ham8), t)
    assert abs(val - np.exp(1j * 12.0 * t)) < 1e-10


def test_floquet_t0_and_direction(star8, ham8):
    psi = dressed_initial(star8).state()
    floquet = GateEvolver(ham8)
    assert abs(exact_overlap(psi, floquet, 0.0) - 1.0) < 1e-12
    # real states enjoy <F_-t> = conj<F_t> by transposition symmetry, so a
    # complex state is needed to exhibit the generic inequality
    cplx = random_state(8, 7)
    fwd = exact_overlap(cplx, floquet, 0.7)
    bwd = exact_overlap(cplx, floquet, -0.7)
    assert abs(bwd - np.conj(fwd)) > 1e-6
    real = dressed_initial(star8).state()
    assert abs(
        exact_overlap(real, floquet, -0.7) - np.conj(exact_overlap(real, floquet, 0.7))
    ) < 1e-12


def test_floquet_matches_direct_product(star8, ham8):
    psi = dressed_initial(star8).state()
    t = 0.1
    val = exact_overlap(psi, GateEvolver(ham8), t)
    direct = np.vdot(psi, apply_circuit(psi, step_unitaries(triangle_scheme(star8), ham8, t)))
    assert abs(val - direct) < 1e-12


def test_reverse_groups_equal_on_pinwheel(star8, ham8):
    pw = pinwheel(star8).state()
    a = exact_overlap(pw, GateEvolver(ham8), 0.6)
    b = exact_overlap(pw, GateEvolver(ham8, reverse_groups=True), 0.6)
    assert abs(a - b) < 1e-10


def _old_trotter_gates(ham, dt_step, t, reverse_groups):
    """The gate list of the former TrotterEvolver with the triangle scheme, inlined."""
    if t == 0:
        return []
    m = max(1, int(np.ceil(abs(t) / dt_step - 1e-12)))
    return step_unitaries(triangle_scheme(ham.lattice), ham, t / m, reverse_groups) * m


def _old_floquet_gates(ham, t, reverse_groups):
    """The gate list of the former FloquetEvolver and floquet_step_gates, inlined."""
    return [] if t == 0 else step_unitaries(triangle_scheme(ham.lattice), ham, t, reverse_groups)


@pytest.mark.parametrize("reverse_groups", [False, True])
@pytest.mark.parametrize("h", [0.0, 0.4])
def test_gate_evolver_matches_old_trotter_and_floquet_gates(star8, h, reverse_groups):
    ham, dt = SpinHamiltonian(star8, h), 0.1
    for t in (0.0, dt, -dt, 2.5 * dt):
        pairs = [(GateEvolver(ham, reverse_groups=reverse_groups).gates(t),
                  _old_floquet_gates(ham, t, reverse_groups)),
                 (GateEvolver(ham, dt, reverse_groups=reverse_groups).gates(t),
                  _old_trotter_gates(ham, dt, t, reverse_groups))]
        for new, old in pairs:
            assert [(g.sites, g.label) for g in new] == [(g.sites, g.label) for g in old]
            assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(new, old))
    assert len(GateEvolver(ham, dt).gates(2.5 * dt)) == 3 * len(GateEvolver(ham).gates(dt))


def test_field_layer_phases():
    star = build_star(4)
    ham = SpinHamiltonian(star, h_field=1.3)
    # the all-up state is an eigenstate of every layer; one step of size t
    # must produce exactly exp(-i E_ref t)
    t = 0.31
    psi = zero_amps(8)
    out = apply_circuit(psi, step_unitaries(triangle_scheme(star), ham, t))
    assert abs(np.vdot(psi, out) - np.exp(-1j * ham.reference_energy() * t)) < 1e-10


CNOT_TABLE = [
    ("triangle", "full", 4, 32),
    ("triangle", "linear", 4, 48),
    ("bond", "full", 4, 36),
    ("bond", "linear", 4, 60),
]


@pytest.mark.parametrize("kind,conn,n_tri,total", CNOT_TABLE)
def test_cnot_counts(kind, conn, n_tri, total):
    star = build_star(n_tri)
    scheme = triangle_scheme(star) if kind == "triangle" else bond_scheme(star)
    assert cnot_count(scheme, conn) == total


def test_cnot_counts_per_triangle():
    star = build_star(4)
    assert cnot_count(bond_scheme(star), "linear", n_triangles=1) == 15
    assert cnot_count(triangle_scheme(star), "full", n_triangles=1) == 8
    assert cnot_count(triangle_scheme(star), "linear", n_triangles=1) == 12
    assert cnot_count(bond_scheme(star), "full", n_triangles=1) == 9
    with pytest.raises(ValueError):
        cnot_count(triangle_scheme(star), "ring")


def test_patch_triangle_scheme():
    patch = build_patch(2, 2)
    scheme = triangle_scheme(patch)
    assert sum(len(g) for g in scheme.groups) == patch.n_triangles
    assert cnot_count(scheme, "full") == 8 * patch.n_triangles
