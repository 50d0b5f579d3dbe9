import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_zero_fraction,
    former_pool_zeros,
    noiseless_draw,
    rng_stream,
    spectral_evolve,
)
from starkrylov.hamiltonian import SpinHamiltonian
from starkrylov.lattice import build_star
from starkrylov.prep import MAPPER_MATRIX, pinwheel
from starkrylov.statevec import (
    GateOp,
    _StreamOpener,
    apply_circuit,
    apply_gate_amps,
    cnot_gate,
    cz_gate,
    h_gate,
    pauli_gate,
    phase_gate,
    rz_gate,
    sample_bitstrings,
    sampling_cdf,
    x_gate,
    zero_amps,
)


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def random_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


def test_x_on_site0_flips_lsb():
    out = apply_gate_amps(zero_amps(3), x_gate(0))
    assert abs(out[0b001] - 1.0) < 1e-12


def test_cz_flips_bell_sign():
    bell = apply_circuit(zero_amps(2), [h_gate(0), cnot_gate(0, 1)])
    assert abs(bell[0b00] - 1 / np.sqrt(2)) < 1e-12
    out = apply_gate_amps(bell, cz_gate(0, 1))
    assert abs(out[0b11] + 1 / np.sqrt(2)) < 1e-12


def test_h_twice_is_identity():
    psi = random_state(3, seed=1)
    out = apply_gate_amps(apply_gate_amps(psi, h_gate(1)), h_gate(1))
    assert np.linalg.norm(out - psi) < 1e-12


def test_rejects_non_unitary_and_bad_sites():
    with pytest.raises(ValueError, match="unitary"):
        GateOp((0,), np.array([[1, 0], [0, 2]], dtype=complex), "bad")
    with pytest.raises(ValueError, match="distinct"):
        GateOp((1, 1), np.eye(4, dtype=complex), "dup")
    with pytest.raises(ValueError, match="range"):
        apply_gate_amps(zero_amps(2), x_gate(5))


def _moveaxis_apply(amps, gate):
    """The moveaxis kernel the index gather replaced, kept as the reference."""
    n, k = len(amps).bit_length() - 1, len(gate.sites)
    tensor = amps.reshape([2] * n)
    axes = [n - 1 - q for q in gate.sites]
    tensor = np.moveaxis(tensor, axes, range(k))
    shape = tensor.shape
    tensor = gate.matrix @ tensor.reshape(1 << k, -1)
    tensor = np.moveaxis(tensor.reshape(shape), range(k), axes)
    return np.ascontiguousarray(tensor).reshape(-1)


@pytest.mark.parametrize("n", range(1, 11))
def test_gather_kernel_bitwise_equals_moveaxis_kernel(n):
    rng = np.random.default_rng(100 + n)
    for k in range(1, min(3, n) + 1):
        for trial in range(6):
            chosen = sorted(int(q) for q in rng.choice(n, size=k, replace=False))
            for sites in (tuple(chosen), tuple(reversed(chosen))):
                psi = random_state(n, seed=1000 * n + 10 * k + trial)
                gate = GateOp(sites, random_unitary(1 << k, rng))
                out = apply_gate_amps(psi, gate)
                assert np.array_equal(out, _moveaxis_apply(psi, gate))
                assert out is not psi


_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])


def _signed_permutation(k, rng):
    """A random 2**k x 2**k permutation matrix with phases from +-1, +-i."""
    dim = 1 << k
    phases = np.array([1, -1, 1j, -1j])[rng.integers(4, size=dim)]
    return np.eye(dim, dtype=complex)[rng.permutation(dim)] * phases[:, None]


def _monomial_gates(n, rng):
    """X, Y, Z, CNOT both ways, CZ, SWAP, iSWAP and random 2- and 3-site
    signed permutations, with their daggers, on random ascending and
    descending sites."""
    gates = []
    for k in range(1, min(3, n) + 1):
        chosen = sorted(int(q) for q in rng.choice(n, size=k, replace=False))
        for sites in (tuple(chosen), tuple(reversed(chosen))):
            if k == 1:
                gates += [x_gate(sites[0])] + [pauli_gate(p, sites[0]) for p in "YZ"]
            elif k == 2:
                gates += [cnot_gate(*sites), cz_gate(*sites), GateOp(sites, _SWAP),
                          GateOp(sites, _ISWAP)]
            if k >= 2:
                gates.append(GateOp(sites, _signed_permutation(k, rng)))
    return gates + [g.dagger() for g in gates]


@pytest.mark.parametrize("n", range(1, 11))
def test_monomial_kernel_equals_matmul_kernel(n):
    # products with 0, +-1 and +-i are exact, so the permutation-phase path
    # equals the matrix product up to the sign of zeros
    rng = np.random.default_rng(200 + n)
    for trial, gate in enumerate(_monomial_gates(n, rng)):
        assert gate.monomial is not None, gate.label
        psi = random_state(n, seed=2000 * n + trial)
        out = apply_gate_amps(psi, gate)
        assert np.array_equal(out, _moveaxis_apply(psi, gate))
        assert out is not psi
        assert np.array_equal(apply_circuit(psi, [gate]), out)
    identity = GateOp((0,), np.eye(2))
    assert identity.monomial is not None
    psi = random_state(n, seed=7)
    out = apply_gate_amps(psi, identity)
    assert np.array_equal(out, psi) and out is not psi
    # pi/2 rotations carry np.exp(1j * pi / 2) = 6.1e-17+1j, not 1j
    for gate in (h_gate(0), rz_gate(0, np.pi / 2), phase_gate(0, np.pi / 2),
                 GateOp((0, 1), MAPPER_MATRIX), GateOp((0,), random_unitary(2, rng))):
        assert gate.monomial is None, gate.label


@pytest.mark.parametrize("n", [4, 8, 12])
def test_batched_kernel_bitwise_equals_rows(n):
    # a (B, 2^n) batch gets, row by row, the very bytes the 1-D kernel gives
    # each row alone, through the general and the monomial path, whatever the
    # batch size; 65 rows at 12 qubits are twice the most rows the noisy
    # sampler puts in one batch there
    rng = np.random.default_rng(300 + n)
    gates = _monomial_gates(n, rng)
    for k in (1, 2, 3):
        chosen = [int(q) for q in rng.choice(n, size=k, replace=False)]
        for sites in (tuple(sorted(chosen)), tuple(chosen)):
            gates.append(GateOp(sites, random_unitary(1 << k, rng)))
    for rows in (1, 2, 3, 17, 65):
        batch = np.array([random_state(n, seed=rows * 100 + r) for r in range(rows)])
        for gate in gates:
            out = apply_gate_amps(batch, gate)
            assert out.shape == batch.shape and out is not batch
            for row, amps in zip(out, batch):
                assert row.tobytes() == apply_gate_amps(amps, gate).tobytes(), gate.label
    assert [g.monomial is None for g in gates].count(True) == 6


def test_gather_kernel_still_rejects_bad_sites():
    for _ in range(2):  # the second call must not hit a cached index
        with pytest.raises(ValueError, match="range"):
            apply_gate_amps(zero_amps(3), cz_gate(0, 3))
        with pytest.raises(ValueError, match="range"):
            apply_gate_amps(zero_amps(3), x_gate(-1))
    with pytest.raises(ValueError, match="distinct"):
        cz_gate(2, 2)
    with pytest.raises(ValueError, match="distinct"):
        GateOp((0, 1, 0), np.eye(8, dtype=complex))


def test_pauli_gates_are_shared():
    assert pauli_gate("Y", 3) is pauli_gate("Y", 3)
    assert pauli_gate("Y", 3) is not pauli_gate("Z", 3)
    assert pauli_gate("X", 1).sites == (1,)


def test_gate_embedding_matches_kron_oracle():
    # independent oracle: permute axes explicitly via full kron on 4 qubits
    rng = np.random.default_rng(5)
    u = random_unitary(4, rng)
    psi = random_state(4, seed=6)
    out = apply_gate_amps(psi, GateOp((3, 1), u, "U"))
    # build the full 16x16 operator: bit q of the index is site q
    full = np.zeros((16, 16), dtype=complex)
    for col in range(16):
        b3, b1 = (col >> 3) & 1, (col >> 1) & 1
        local_in = (b3 << 1) | b1  # sites[0]=3 is the high local bit
        for local_out in range(4):
            row = (col & ~0b1010) | (((local_out >> 1) & 1) << 3) | ((local_out & 1) << 1)
            full[row, col] += u[local_out, local_in]
    expected = full @ psi
    assert np.linalg.norm(out - expected) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_circuits_preserve_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    psi = zero_amps(n)
    for _ in range(12):
        k = int(rng.integers(1, min(3, n) + 1))
        sites = tuple(rng.choice(n, size=k, replace=False).astype(int))
        psi = apply_gate_amps(psi, GateOp(sites, random_unitary(1 << k, rng)))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


@pytest.fixture(scope="module")
def star8():
    star = build_star(4)
    return star, SpinHamiltonian(star)


def test_exact_evolution_identity_and_composition(star8):
    _, ham = star8
    psi = random_state(8, seed=2)
    out0 = spectral_evolve(ham, psi, 0.0)
    assert np.linalg.norm(out0 - psi) < 1e-12
    a = spectral_evolve(ham, spectral_evolve(ham, psi, 0.3), 0.7)
    b = spectral_evolve(ham, psi, 1.0)
    assert np.linalg.norm(a - b) < 1e-9
    assert abs(np.linalg.norm(a) - 1.0) < 1e-10


def test_exact_evolution_eigenstate_phase(star8):
    star, ham = star8
    pw = pinwheel(star).state()
    out = spectral_evolve(ham, pw, 0.37)
    phase = np.vdot(pw, out)
    assert abs(phase - np.exp(1j * 12 * 0.37)) < 1e-10


def test_sampling_deterministic_states():
    samples = sample_bitstrings(sampling_cdf(zero_amps(3)), rng_stream(1, 0).random(100))
    assert np.all(samples == 0)


def test_sampling_binomial_fraction():
    plus = apply_gate_amps(zero_amps(1), h_gate(0))
    samples = sample_bitstrings(sampling_cdf(plus), rng_stream(42, 0).random(10 ** 6))
    # 4 sigma of a fair binomial with 1e6 draws is 0.002
    assert abs(all_zero_fraction(samples) - 0.5) < 0.002


def test_sampling_matches_evolved_amplitude(star8):
    star, ham = star8
    psi = spectral_evolve(ham, pinwheel(star).state(), 0.1)
    p_exact = float(np.abs(psi[0]) ** 2)
    shots = 10 ** 5
    uniforms = rng_stream(9, 0).random(shots)
    frac = all_zero_fraction(sample_bitstrings(sampling_cdf(psi), uniforms))
    sigma = np.sqrt(max(p_exact * (1 - p_exact), 1e-12) / shots)
    assert abs(frac - p_exact) <= 5 * sigma + 1e-9


def total_variation(samples: np.ndarray, probs: np.ndarray) -> float:
    counts = np.bincount(samples, minlength=len(probs)) / len(samples)
    return 0.5 * float(np.abs(counts - probs).sum())


def test_sampling_total_variation_bound():
    psi = random_state(6, seed=11)
    shots = 4096
    samples = sample_bitstrings(sampling_cdf(psi), rng_stream(13, 0).random(shots))
    probs = np.abs(psi) ** 2
    assert total_variation(samples, probs) < 4 * np.sqrt((1 << 6) / shots)


@pytest.mark.parametrize("seed", range(6))
def test_noiseless_pool_matches_former_draw(seed):
    # error-free shots' uniforms drawn from a stream before other streams are
    # opened, and their zeros under the former mask rule
    # (``former_pool_zeros``), are the zeros of the samples the former
    # noiseless pool drew by inverse CDF from its stream opened after its
    # pass evolved: sample_bitstrings on the uniforms gives those samples.
    # Some CDF steps lie exactly on the uniforms, cdf[0] among them when it is
    # drawn; such a uniform draws the next index
    gen = np.random.default_rng(seed)
    n, shots = int(gen.integers(2, 7)), int(gen.integers(1, 300))
    key = tuple(int(k) for k in gen.integers(0, 2 ** 32, size=int(gen.integers(1, 5))))
    streams = _StreamOpener(seed)
    uniforms = streams(key).random(shots)
    streams((*key, 0)).random(shots)  # other pools' streams opened before it counts
    amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    on_steps = gen.choice(uniforms, min(shots, (1 << n) - 1) // 2, replace=False)
    rest = gen.choice(sampling_cdf(amps)[:-1], (1 << n) - 1 - len(on_steps), replace=False)
    cdf = np.append(np.sort(np.concatenate([on_steps, rest])), 1.0)
    samples = sample_bitstrings(cdf, uniforms)
    assert np.array_equal(samples, noiseless_draw(cdf, shots, rng_stream(seed, *key)))
    assert np.array_equal(former_pool_zeros(uniforms, [], [], cdf[0]), samples == 0)
    below = np.count_nonzero(cdf[None, :] <= uniforms[:, None], axis=1)
    assert np.array_equal(samples, below)
    for u in on_steps:
        assert samples[uniforms == u][0] == np.flatnonzero(cdf == u)[-1] + 1


@pytest.mark.parametrize("seed", range(6))
def test_zero_mask_matches_samples(seed):
    # the zero mask of error-free shots (``former_pool_zeros``, the rule a
    # pool counts by) is samples() == 0 without the search: a uniform
    # exactly at cdf[0] draws index 1 and the float below it index 0; every
    # third state has no |0..0> amplitude, so cdf[0] = 0 and no shot draws it
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 7))
    state = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    if seed % 3 == 0:
        state[0] = 0.0
    cdf = sampling_cdf(state)
    c0 = cdf[0]
    edges = [c0, c0, np.nextafter(c0, 0.0), np.nextafter(c0, 1.0), 0.0]
    uniforms = gen.permutation(np.concatenate([gen.random(200), edges]))
    zeros, samples = former_pool_zeros(uniforms, [], [], c0), sample_bitstrings(cdf, uniforms)
    assert zeros.dtype == bool and np.array_equal(zeros, samples == 0)
    assert (samples[uniforms == c0] == 1).all()
    assert zeros[uniforms == np.nextafter(c0, 0.0)].all() == (c0 > 0)


def test_streams_reproducible_and_independent():
    psi = random_state(4, seed=20)
    streams = _StreamOpener(7)
    a = sample_bitstrings(sampling_cdf(psi), streams((1, 2)).random(50))
    b = sample_bitstrings(sampling_cdf(psi), streams((1, 2)).random(50))
    assert np.array_equal(a, b)
    c = sample_bitstrings(sampling_cdf(psi), streams((1, 3)).random(50))
    assert not np.array_equal(a, c)
    # drawing stream (1,3) first does not change stream (1,2)
    assert np.array_equal(a, sample_bitstrings(sampling_cdf(psi),
                                               streams((1, 2)).random(50)))
    r1 = _StreamOpener(7)((5,)).random(4)
    r2 = _StreamOpener(7)((5,)).random(4)
    assert np.array_equal(r1, r2)


@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["0", "2^64-1"])
def test_stream_opener_matches_rng_stream(seed):
    # one re-keyed Philox serves every stream; each opened stream must draw
    # what a freshly keyed Philox draws, whatever the stream opened before it
    # left behind (a half-used 32-bit word after integers(3), a part-used
    # buffer), for the empty stream, streams that extend one another and
    # negative parts (Floquet steps k < 0)
    streams = _StreamOpener(seed)
    cases = [(), (0,), (3,), (3, -1), (3, -1, 4), (3, -1, 4, 0, 2), (-5, 7), (2**40, -2**40)]
    for stream in cases + cases[::-1]:
        rng, ref = streams(stream), rng_stream(seed, *stream)
        assert np.array_equal(rng.random(5), ref.random(5))
        assert rng.integers(3) == ref.integers(3)
        assert np.array_equal(rng.random(3), ref.random(3))
        assert rng.integers(3) == ref.integers(3)
        assert rng.binomial(40, 0.3) == ref.binomial(40, 0.3)
        assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 2**63 + 5, -1], ids=["0", "2^63+5", "-1"])
def test_stream_uniforms_match_rng_stream(seed):
    # the block draw re-keys one Philox per row; every row must equal a fresh
    # stream's draws for every n % 4 buffer remainder, and the key masks the
    # seed to 64 bits
    for stream in ((), (3, -1, 4)):
        for n in (1, 3, 4, 5, 73):
            for count in (1, 100):
                block = _StreamOpener(seed).uniforms(stream, count, n)
                reference = np.array([rng_stream(seed, *stream, j).random(n)
                                      for j in range(count)])
                assert block.shape == (count, n)
                assert np.array_equal(block, reference)
