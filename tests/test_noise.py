import numpy as np
import pytest

from oracles import (
    channel_probabilities,
    channel_state,
    estimate_overlap,
    noisy_apply,
    rng_stream,
    spectral_evolve,
)
from starkrylov.hamiltonian import SpinHamiltonian
from starkrylov.lattice import build_star
from starkrylov.mirror import (
    GateEvolver,
    ShotPlan,
    _MirrorCircuits,
    _noisy_pool,
    _Pass,
    _sample_erring,
    make_evolver,
)
from starkrylov.noise import NoiseSpec, postselect_f1, twirl_layer
from starkrylov.prep import dressed_initial, invert, reference_superposition
from starkrylov.statevec import (
    GateOp,
    _StreamOpener,
    apply_circuit,
    sample_bitstrings,
    sampling_cdf,
    zero_amps,
)


@pytest.fixture(scope="module")
def problem8():
    star = build_star(4)
    return star, SpinHamiltonian(star), dressed_initial(star)


def test_p0_is_clean(problem8):
    star, ham, prep = problem8
    gates = list(prep.gates) + GateEvolver(ham, 0.1).gates(0.2)
    clean = apply_circuit(zero_amps(8), gates)
    noisy = noisy_apply(zero_amps(8), gates, NoiseSpec(0.0), rng_stream(1, 0))
    assert np.linalg.norm(clean - noisy) < 1e-12


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(p_pauli=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(p_pauli=-0.1)


def _f1_circuit(prep, ham, m):
    evolver = GateEvolver(ham, 0.1 / m)
    return list(prep.gates) + evolver.gates(0.1) + list(invert(prep).gates)


def test_error_grows_with_depth(problem8):
    star, ham, prep = problem8
    spec = NoiseSpec(p_pauli=1e-3)
    means = []
    for m in (1, 2, 4):
        gates = _f1_circuit(prep, ham, m)
        clean = float(np.abs(apply_circuit(zero_amps(8), gates)[0]) ** 2)
        errs = []
        for traj in range(200):
            out = noisy_apply(zero_amps(8), gates, spec, rng_stream(17, m, traj))
            errs.append(abs(float(np.abs(out[0]) ** 2) - clean))
        means.append(np.mean(errs))
    assert means[0] < means[1] < means[2]


def test_postselect_rule_examples(problem8):
    star, _, prep = problem8
    pairing = prep.dimer_pairs
    kept, dropped = postselect_f1(np.array([0]), pairing, 8)
    assert len(kept) == 1 and dropped == 0
    # one pair moved to 01 (second-qubit bit set) has odd parity
    bad = 1 << pairing[0][1]
    kept, dropped = postselect_f1(np.array([bad]), pairing, 8)
    assert len(kept) == 0 and dropped == 1
    # two such pairs are even again
    ok = (1 << pairing[0][1]) | (1 << pairing[1][1])
    kept, dropped = postselect_f1(np.array([ok]), pairing, 8)
    assert len(kept) == 1 and dropped == 0


def test_postselect_requires_full_cover(problem8):
    with pytest.raises(ValueError, match="cover"):
        postselect_f1(np.array([0]), ((0, 1),), 8)


@pytest.mark.parametrize("n_tri", [4, 6])
def test_postselect_zero_discard_noiseless(n_tri):
    star = build_star(n_tri)
    ham = SpinHamiltonian(star)
    prep = dressed_initial(star)
    state = spectral_evolve(ham, prep.state(), 0.3)
    state = apply_circuit(state, invert(prep).gates)
    samples = sample_bitstrings(sampling_cdf(state), rng_stream(23, 0).random(10 ** 5))
    _, dropped = postselect_f1(samples, prep.dimer_pairs, star.n_sites)
    assert dropped == 0


def test_twirl_identity_cases(problem8):
    star, ham, prep = problem8
    psi = prep.state()  # pure S^z = 0
    twirled = apply_circuit(psi, twirl_layer(8, np.pi / 2, 4))
    p0 = np.abs(apply_circuit(psi, invert(prep).gates)[0]) ** 2
    p1 = np.abs(apply_circuit(twirled, invert(prep).gates)[0]) ** 2
    assert abs(p0 - p1) < 1e-12
    zero = apply_circuit(psi, twirl_layer(8, 0.0, 4))
    assert np.linalg.norm(zero - psi) < 1e-12


def test_twirl_angle_validation():
    # the angle must be a multiple of pi/n_down, n_down the psi0 branch's
    # down-spin count: 2 pi/n at S^z = 0, and not pi/2 for three down spins
    twirl_layer(8, np.pi / 2, 4)
    twirl_layer(8, np.pi / 3, 3)
    with pytest.raises(ValueError, match="multiple"):
        twirl_layer(10, np.pi / 2, 5)
    with pytest.raises(ValueError, match=r"multiple of pi/3 "):
        twirl_layer(8, np.pi / 2, 3)


def test_twirl_cancels_intersector_coherence(problem8):
    """Two-term average reproduces the diagonal sector mixture exactly."""
    star, ham, prep = problem8
    psi0 = prep.state()  # S^z = 0
    leak = np.zeros(256, dtype=complex)
    # single flip relative to the valid sector, the dominant error channel
    leak_idx = 1 << 3
    leak[leak_idx] = 1.0
    a, b = np.sqrt(0.9), np.sqrt(0.1) * np.exp(0.7j)
    mixed = a * psi0 + b * leak
    # measurement circuit that mixes the sectors, so the coherence actually
    # reaches the all-zero probability: a layer of y rotations, then U0^dag
    c, s = np.cos(0.2), np.sin(0.2)
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    final = [GateOp((q,), ry, "RY") for q in range(8)] + list(invert(prep).gates)

    def all_zero_prob(state):
        return float(np.abs(apply_circuit(state, final)[0]) ** 2)

    p_plain = all_zero_prob(mixed)
    p_twirl = all_zero_prob(apply_circuit(mixed, twirl_layer(8, np.pi / 2, 4)))
    averaged = 0.5 * (p_plain + p_twirl)
    psi0_only = all_zero_prob(psi0)
    leak_only = all_zero_prob(leak)
    diagonal = abs(a) ** 2 * psi0_only + abs(b) ** 2 * leak_only
    assert abs(averaged - diagonal) < 1e-10
    # without averaging the interference term is visible
    assert abs(p_plain - diagonal) > 1e-4


def test_mitigation_reduces_f1_error(problem8):
    # post-selection pools over trajectories (one shot = one trajectory), so
    # the mitigated estimator divides surviving all-zero mass by kept mass
    star, ham, prep = problem8
    spec = NoiseSpec(p_pauli=5e-3)
    gates = (list(prep.gates) + GateEvolver(ham).gates(0.2)
             + list(invert(prep).gates))
    clean_state = apply_circuit(zero_amps(8), gates)
    f1_clean = float(np.abs(clean_state[0]) ** 2)
    mask = 0
    for (_a, b) in prep.dimer_pairs:
        mask |= 1 << b
    idx = np.arange(256)
    parity = np.zeros(256, dtype=np.int64)
    for q in range(8):
        parity += ((idx & mask) >> q) & 1
    keep = parity % 2 == 0
    n_batches, per_batch = 10, 30
    raw_err, mit_err = [], []
    for batch in range(n_batches):
        zero_mass = kept_mass = raw_mass = 0.0
        for j in range(per_batch):
            out = noisy_apply(zero_amps(8), gates, spec,
                              rng_stream(29, batch * per_batch + j))
            probs = np.abs(out) ** 2
            raw_mass += probs[0]
            zero_mass += probs[0]
            kept_mass += float(np.sum(probs[keep]))
        raw_err.append(abs(raw_mass / per_batch - f1_clean))
        mit_err.append(abs(zero_mass / kept_mass - f1_clean))
    diffs = np.array(raw_err) - np.array(mit_err)
    stderr = diffs.std(ddof=1) / np.sqrt(n_batches)
    assert diffs.mean() > -2 * stderr
    assert np.mean(mit_err) <= np.mean(raw_err)


def test_reference_superposition_twirl_is_identity(problem8):
    # both branches (S^z=0 and all-up) are invariant under theta = pi/2
    star, ham, prep = problem8
    sup = reference_superposition(prep, 1)
    psi = sup.state()
    out = apply_circuit(psi, twirl_layer(8, np.pi / 2, 4))
    assert abs(abs(np.vdot(out, psi)) - 1.0) < 1e-12


def test_mitigation_ablation_rows_and_csv(problem8, tmp_path):
    from starkrylov.mirror import MITIGATION_MODES, ShotPlan, mitigation_ablation
    from starkrylov.cli import _write_ablation

    star, ham, prep = problem8
    rows = mitigation_ablation(prep, ham, 0.1, 2, ShotPlan(60), NoiseSpec(2e-3),
                               seed=4)
    assert len(rows) == 2 * len(MITIGATION_MODES)
    modes = {r[1] for r in rows}
    assert modes == set(MITIGATION_MODES)
    for t, mode, e1, e2, e3, eo in rows:
        assert e1 >= 0 and eo >= 0
    _write_ablation(tmp_path / "m.csv", rows)
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0] == "t,mode,f1_err,f2_err,f3_err,overlap_err"
    assert len(lines) == 1 + len(rows)


# the channel test's point: 8 spins at t = 0.3 and p = 0.03, 2000 shots per
# circuit.  There 4 sigma is at most 0.022 on a fraction, and an F2 or F3
# fraction moves by that much when p moves by about 0.008, 27% of the rate
CHANNEL_T, CHANNEL_P, CHANNEL_SHOTS = 0.3, 0.03, 6000


@pytest.mark.parametrize("kind", ["floquet", "trotter"])
def test_noisy_fractions_match_the_exact_channel(problem8, kind):
    # every sampled fraction of a noisy cell, with and without the twirl,
    # lies within 4 sigma of its value under the Pauli channel, from the
    # density matrix (oracles.channel_state).  A circuit's pools are weighed
    # by their shots; under post-selection F1 is the ratio of zero mass to
    # kept mass, with the delta method's sigma
    star, ham, prep = problem8
    ev = make_evolver(kind, ham, dt_step=0.1)
    circuits = _MirrorCircuits(prep, ev)
    evolution = ev.gates(CHANNEL_T)
    plan = ShotPlan(CHANNEL_SHOTS, (1 / 3, 1 / 3, 1 / 3))
    kept, _ = postselect_f1(np.arange(1 << star.n_sites), prep.dimer_pairs, star.n_sites)
    # the passes share their preparation and evolution, F2 and F3 all of it
    evolved = [channel_state(list(circuits.preps[i].gates) + evolution, star.n_sites,
                             CHANNEL_P) for i in (0, 1)]
    for twirl in (False, True):
        angle = np.pi / 2 if twirl else None
        noise = NoiseSpec(CHANNEL_P, enable_postselect=twirl, enable_twirl=twirl)
        est = estimate_overlap(prep, ev, CHANNEL_T, plan, seed=7, noise=noise)
        for i, m_i in enumerate(plan.allocate()):
            n_twirled = int(round(m_i * plan.twirl_fraction)) if twirl else 0
            pools = []
            for pool_angle, shots in ((None, m_i - n_twirled), (angle, n_twirled)):
                layer = [] if pool_angle is None else circuits._twirl(pool_angle)
                assert (list(circuits.preps[i].gates) + evolution + layer
                        + list(circuits.inverses[i])) == circuits.pass_gates(i, evolution,
                                                                             pool_angle)
                probs = channel_probabilities(channel_state(
                    layer + list(circuits.inverses[i]), star.n_sites, CHANNEL_P,
                    evolved[min(i, 1)]))
                pools.append((shots, probs[0], probs[kept].sum() if i == 0 and twirl else 1.0))
            zero = sum(m * z for m, z, _ in pools)
            mass = sum(m * k for m, _, k in pools)
            value = zero / mass
            # a shot's zero indicator minus value times its kept indicator
            var = sum(m * (z - 2 * value * z + value ** 2 * k - (z - value * k) ** 2)
                      for m, z, k in pools)
            sigma = np.sqrt(var) / mass
            assert abs(est.fractions[i] - value) <= 4 * sigma, (twirl, i, est.fractions[i],
                                                                 value, sigma)


def _erring_channel(problem8, whole):
    """The erring shots of a noisy F1 pool of 24000 shots at p = 0.01 (F1
    under post-selection when ``whole``, so they sample whole strings), and
    the channel's erring string probabilities: its string probabilities
    less the error-free branch, (1 - p)^S times the noiseless state's for S
    error slots, over 1 - (1 - p)^S."""
    star, ham, prep = problem8
    n, p = star.n_sites, 0.01
    ev = GateEvolver(ham)
    gates = _MirrorCircuits(prep, ev).pass_gates(0, ev.gates(CHANNEL_T), None)
    npass = _Pass(gates)
    _, shots = _noisy_pool(npass, 24000, p, 0.0, _StreamOpener(11), (0,), whole)
    _sample_erring(shots, n)
    free = (1 - p) ** len(npass.slots)
    clean = np.abs(apply_circuit(zero_amps(n), gates)) ** 2
    return shots, (channel_probabilities(channel_state(gates, n, p)) - free * clean) / (1 - free)


def test_erring_samples_match_the_exact_channel(problem8):
    # the whole-sample shots of a noisy pool that draw an error sample the
    # channel's erring part (``_erring_channel``).  Their chi-square over the
    # strings expected at least 10 times, the rest pooled, stays within 4
    # sigma of its degrees of freedom (232, bound 318; it reads 202).  This
    # sees where an error acts, which the fractions barely do: with each
    # error applied before its gate, the F1 pass's fractions move by less
    # than 1e-4, and this chi-square reads 437
    shots, erring = _erring_channel(problem8, True)
    expected = erring * len(shots)
    observed = np.bincount([shot.sample for shot in shots], minlength=len(erring))
    bins = expected >= 10
    e = np.append(expected[bins], expected[~bins].sum())
    o = np.append(observed[bins], observed[~bins].sum())
    dof = len(e) - 1
    chi2 = float(np.sum((o - e) ** 2 / e))
    assert chi2 <= dof + 4 * np.sqrt(2 * dof), (chi2, dof)


def test_erring_zero_only_shots_match_the_exact_channel(problem8):
    # the zero-only shots of the same pool, which stop at their last error,
    # count as zeros at the channel's erring |0..0> probability, within 4
    # sigma of the binomial over the erring shots
    shots, erring = _erring_channel(problem8, False)
    zeros = sum(shot.sample == 0 for shot in shots)
    assert {shot.sample for shot in shots} == {0, -1}
    sigma = np.sqrt(len(shots) * erring[0] * (1 - erring[0]))
    assert abs(zeros - len(shots) * erring[0]) <= 4 * sigma, (zeros, len(shots), erring[0])
