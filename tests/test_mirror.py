import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_zero_fraction,
    binomial_fractions,
    estimate_cells,
    estimate_overlap,
    evolve,
    exact_fractions,
    exact_overlap,
    former_allocate,
    former_pool,
    former_pool_zeros,
    mirror_states,
    noisy_apply,
    overlap_series_mirror_exact,
    reconstruct as reference_reconstruct,
    rng_stream,
    shot_noise_reference,
    spectral_evolve,
    zero_probabilities,
)
from starkrylov import mirror as mirror_module
from starkrylov import statevec as statevec_module
from starkrylov.hamiltonian import SpinHamiltonian
from starkrylov.lattice import build_star
from starkrylov.mirror import (
    MITIGATION_MODES,
    ExactEvolver,
    GateEvolver,
    ShotPlan,
    _ErringShot,
    _MirrorCircuits,
    _Pass,
    _cell_estimate,
    _evolve_passes,
    _noisy_pool,
    _shared_run,
    allocation_study,
    exact_overlaps,
    make_evolver,
    mirror_fractions,
    mitigation_ablation,
    noiseless_fractions,
    overlap_series_exact,
    overlap_series_sampled,
    reconstruct,
)
from starkrylov.noise import NoiseSpec, postselect_f1, twirl_angle, twirl_layer
from starkrylov.prep import (
    dressed_initial,
    invert,
    pinwheel,
    reference_superposition,
    sector_initial,
)
from starkrylov.statevec import (
    GateOp,
    _StreamOpener,
    apply_circuit,
    sampling_cdf,
    zero_amps,
)

DT = 0.1


@pytest.fixture(scope="module")
def problem():
    star = build_star(4)
    ham = SpinHamiltonian(star)
    return star, ham, dressed_initial(star)


@pytest.fixture(scope="module")
def problem12():
    star = build_star(6)
    return star, SpinHamiltonian(star), dressed_initial(star)


def test_fractions_at_t0(problem):
    _, ham, prep = problem
    f1, f2, f3 = exact_fractions(prep, ExactEvolver(ham), 0.0)
    assert abs(f1 - 1.0) < 1e-12
    assert abs(f2 - 1.0) < 1e-12
    assert abs(f3 - 0.5) < 1e-12


def test_pinwheel_eigenstate_fractions(problem):
    star, ham, _ = problem
    prep = pinwheel(star)
    t = 0.7
    f1, f2, f3 = exact_fractions(prep, ExactEvolver(ham), t)
    assert abs(f1 - 1.0) < 1e-12
    o, _ = reconstruct(f1, f2, f3, ham.reference_energy(), t, "eq19")
    assert abs(np.angle(o) - ((12.0 * t + np.pi) % (2 * np.pi) - np.pi)) < 1e-9


def test_f1_equals_overlap_squared(problem):
    _, ham, prep = problem
    ev = ExactEvolver(ham)
    f1, _, _ = exact_fractions(prep, ev, DT)
    o = exact_overlap(prep.state(), ev, DT)
    assert abs(f1 - abs(o) ** 2) < 1e-12


def test_reconstruct_identity_case():
    o, flags = reconstruct(1.0, 1.0, 0.5, 3.7, 0.0)
    assert abs(o - 1.0) < 1e-12 and not flags


def test_reconstruct_closed_form_inversion():
    r, theta = 0.5, np.pi / 3
    f1 = r * r
    f2 = (r * r + 1 + 2 * r * np.cos(theta)) / 4
    f3 = (r * r + 1 + 2 * r * np.sin(theta)) / 4
    for mode in ("eq19", "f1_sqrt"):
        o, _ = reconstruct(f1, f2, f3, 0.0, 1.0, mode)
        assert abs(o - r * np.exp(1j * theta)) < 1e-12
    with pytest.raises(ValueError):
        reconstruct(f1, f2, f3, 0.0, 1.0, "other")


def _bits(values: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of complex ``values`` as int64 words, so
    that equal bits, zero signs included, compare equal."""
    return np.stack([values.real, values.imag]).astype(float).view(np.int64)


@pytest.mark.parametrize("m", [10, 100, 1000])
def test_reconstruct_matches_scalar_reference_bit_for_bit(m):
    # every value of the array form has the bits of the former scalar
    # expression (oracles.reconstruct), and the degenerate mask its flag;
    # the first rows have f1 = 0, the next f2 = f3 = (f1 + 1)/4 (raw = 0)
    rng = np.random.default_rng(m)
    f1, f2, f3 = rng.integers(0, m + 1, size=(3, 100_000)) / m
    f1[:1000] = 0.0
    f2[1000:2000] = f3[1000:2000] = (f1[1000:2000] + 1.0) / 4.0
    e_ref, t = -12.0 + m / 7, 0.1 * (m % 17 + 1)
    for mode in ("f1_sqrt", "eq19"):
        ref = [reference_reconstruct(*triple, e_ref, t, mode)
               for triple in zip(f1.tolist(), f2.tolist(), f3.tolist())]
        expected = np.array([value for value, _ in ref])
        flags = np.array([flags == ("phase_degenerate",) for _, flags in ref])
        assert flags[1000:2000].all() == (mode == "f1_sqrt")
        values, degenerate = reconstruct(f1.reshape(100, -1), f2.reshape(100, -1),
                                         f3.reshape(100, -1), e_ref, t, mode)
        assert values.shape == degenerate.shape == (100, 1000)
        np.testing.assert_array_equal(_bits(values.ravel()), _bits(expected))
        np.testing.assert_array_equal(degenerate.ravel(), flags)
        for i in range(0, 2000, 97):  # 0-d: scalar fractions give 0-d results
            value, flag = reconstruct(f1[i].item(), f2[i].item(), f3[i].item(), e_ref, t, mode)
            assert value.shape == flag.shape == ()
            np.testing.assert_array_equal(_bits(value), _bits(expected[i]))
            assert bool(flag) == flags[i]


@pytest.mark.parametrize("kind", ["exact", "trotter", "floquet"])
def test_mirror_reconstruction_matches_oracle(problem, kind):
    _, ham, prep = problem
    ev = make_evolver(kind, ham, dt_step=DT)
    psi0 = prep.state()
    for k in (1, 7, 20):
        t = k * DT
        f1, f2, f3 = exact_fractions(prep, ev, t)
        o_rec, _ = reconstruct(f1, f2, f3, ham.reference_energy(), t, "eq19")
        o_direct = exact_overlap(psi0, ev, t)
        assert abs(o_rec - o_direct) < 1e-10


def test_phase_identity_resolves_ambiguity(problem):
    # the reconstructed angle satisfies both the cosine and sine equations
    _, ham, prep = problem
    ev = ExactEvolver(ham)
    e_ref = ham.reference_energy()
    for k in (3, 11):
        t = k * DT
        f1, f2, f3 = exact_fractions(prep, ev, t)
        o, _ = reconstruct(f1, f2, f3, e_ref, t, "eq19")
        r, theta = abs(o), np.angle(o)
        assert abs((r * r + 1 + 2 * r * np.cos(theta + e_ref * t)) / 4 - f2) < 1e-9
        assert abs((r * r + 1 + 2 * r * np.sin(theta + e_ref * t)) / 4 - f3) < 1e-9


def test_mirror_states_norms(problem):
    _, ham, prep = problem
    for s in mirror_states(prep, ExactEvolver(ham), 0.4):
        assert abs(np.linalg.norm(s) - 1.0) < 1e-10


def test_shot_plan_allocation():
    plan = ShotPlan(1000)
    assert plan.allocate() == (400, 300, 300)
    assert sum(ShotPlan(1001, (0.4, 0.3, 0.3)).allocate()) == 1001
    assert sum(ShotPlan(7, (1 / 3, 1 / 3, 1 / 3)).allocate()) == 7
    with pytest.raises(ValueError):
        ShotPlan(100, (0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        ShotPlan(0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2 ** 53), st.floats(0, 1), st.floats(0, 1), st.floats(-1e-9, 1e-9))
@example(10 ** 10, 0.4, 0.5, -5e-10)
@example(10 ** 10, 0.4, 0.5, 5e-10)
def test_shot_plan_keeps_every_exact_split(total, f1, share, slack):
    """A plan whose former counts sum to ``total`` keeps them; any other plan
    is refused.  The examples are fractions within 1e-9 of summing to 1 that
    miss 10^10 shots by whole shots: the former counts ran past the three
    circuits on the first and handed out 10,000,000,004 shots on the second."""
    fractions = (f1, (1 - f1) * share, (1 - f1) * (1 - share) + slack)
    assume(fractions[2] >= 0 and abs(sum(fractions) - 1) <= 1e-9)  # else refused as before
    try:
        counts = former_allocate(total, fractions)
    except IndexError:  # a remainder above 3
        counts = None
    if counts is not None and sum(counts) == total:
        assert ShotPlan(total, fractions).allocate() == counts
    else:
        with pytest.raises(ValueError, match="cannot split"):
            ShotPlan(total, fractions)


def test_sampled_estimate_within_binomial_propagation(problem):
    _, ham, prep = problem
    ev = ExactEvolver(ham)
    t = 3 * DT
    plan = ShotPlan(10 ** 6, (1 / 3, 1 / 3, 1 / 3))
    est = estimate_overlap(prep, ev, t, plan, seed=5)
    o_exact = exact_overlap(prep.state(), ev, t)
    # binomial propagation oracle for the f1_sqrt estimator
    m1, m2, m3 = plan.allocate()
    p1, p2, p3 = exact_fractions(prep, ev, t)
    r = np.sqrt(p1)
    s1 = np.sqrt(p1 * (1 - p1) / m1)
    mag_sigma = s1 / (2 * r)
    phase_sigma = np.hypot(
        2 * np.sqrt(p2 * (1 - p2) / m2), 2 * np.sqrt(p3 * (1 - p3) / m3)) / (2 * r)
    sigma = np.hypot(mag_sigma, r * phase_sigma)
    assert abs(est.value - o_exact) < 5 * sigma


def test_estimate_deterministic_and_stream_separated(problem):
    _, ham, prep = problem
    ev = ExactEvolver(ham)
    plan = ShotPlan(200)
    a = estimate_overlap(prep, ev, DT, plan, seed=3, stream=(0, 1))
    b = estimate_overlap(prep, ev, DT, plan, seed=3, stream=(0, 1))
    c = estimate_overlap(prep, ev, DT, plan, seed=3, stream=(0, 2))
    assert a.value == b.value
    assert a.value != c.value


def test_estimate_f1_only_plan_flags(problem):
    _, ham, prep = problem
    est = estimate_overlap(prep, ExactEvolver(ham), DT,
                           ShotPlan(100, (1.0, 0.0, 0.0)), seed=1)
    assert "phase_unavailable" in est.flags
    assert est.value is not None and abs(est.value.imag) < 1e-12


def test_eq19_estimator_unbiased(problem):
    _, ham, prep = problem
    ev = ExactEvolver(ham)
    t = 5 * DT
    o_exact = exact_overlap(prep.state(), ev, t)
    plan = ShotPlan(300, (1 / 3, 1 / 3, 1 / 3))
    vals = np.array([
        estimate_overlap(prep, ev, t, plan, seed=11, stream=(r,),
                         magnitude_source="eq19").value
        for r in range(1000)
    ])
    mean = vals.mean()
    sem = np.sqrt(vals.real.var() + vals.imag.var()) / np.sqrt(len(vals))
    assert abs(mean - o_exact) < 4 * sem


def test_sampled_series_consistent_with_sigma_reference(problem):
    _, ham, prep = problem
    ev = ExactEvolver(ham)
    plan = ShotPlan(1000)
    kmax = 10
    [(series, estimates)] = overlap_series_sampled(prep, ev, DT, kmax, plan, seed=2)
    assert len(series.values) == kmax + 1
    assert len(estimates) == kmax
    exact = overlap_series_exact(prep.state(), ev, DT, kmax)
    sigma = shot_noise_reference(prep, ev, ham, DT, kmax, plan, seed=77)
    errs = np.abs(series.values[1:] - exact.values[1:])
    # sampled error is the same order as the shot-noise reference curve
    assert np.mean(errs) < 5 * np.mean(sigma)
    assert np.mean(errs) > np.mean(sigma) / 5


@pytest.mark.parametrize("kind", ["exact", "trotter", "floquet"])
@pytest.mark.parametrize("twirl", [False, True], ids=["plain", "twirl-p0"])
def test_shared_states_match_per_cell_reference(problem, problem12, kind, twirl):
    # every noiseless estimate, with no noise or at p = 0 with the twirl and
    # post-selection, follows the one noiseless count rule: each circuit's
    # zero count is one binomial at the all-zero probability of its mirrored
    # state, built by the oracle one state at a time, drawn in circuit order
    # from the cell's stream (r, k), and its value is the scalar
    # reconstruction of those fractions.  Realizations 0-2 of a series, on
    # both stars and in both Floquet directions, match it, as do the cell
    # estimated alone and each realization's series run alone
    plan = ShotPlan(201, twirl_fraction=0.5)
    noise = (NoiseSpec(p_pauli=0.0, enable_postselect=True, enable_twirl=True)
             if twirl else None)
    kmax, realizations = 3, (0, 1, 2)
    for _, ham, prep in (problem, problem12):
        ev = make_evolver(kind, ham, dt_step=DT)
        runs = overlap_series_sampled(prep, ev, DT, kmax, plan, seed=9, noise=noise,
                                      realizations=realizations)
        for sign in (1, -1) if kind == "floquet" else (1,):
            for k in range(1, kmax + 1):
                t = sign * k * DT
                probs = exact_fractions(prep, ev, t)
                for r, (series, estimates) in zip(realizations, runs):
                    ref_f = binomial_fractions(9, (r, sign * k), plan.allocate(), probs)
                    ref_v, ref_flags = reference_reconstruct(*ref_f, ham.reference_energy(), t)
                    est = estimate_overlap(prep, ev, t, plan, seed=9, stream=(r, sign * k),
                                           noise=noise)
                    assert est.fractions == ref_f and est.value == ref_v
                    assert est.flags == ref_flags and est.discards == (0, 0, 0)
                    assert (series.values if sign == 1 else series.neg_values)[k] == ref_v
                    if sign == 1:
                        assert estimates[k - 1].fractions == ref_f
        for r, (series, estimates) in zip(realizations, runs):
            [(alone, alone_estimates)] = overlap_series_sampled(
                prep, ev, DT, kmax, plan, seed=9, noise=noise, realizations=(r,))
            assert np.array_equal(alone.values, series.values)
            if kind == "floquet":
                assert np.array_equal(alone.neg_values, series.neg_values)
            assert [e.fractions for e in alone_estimates] == [e.fractions for e in estimates]


def test_noiseless_twirl_checks_its_angle_without_a_pool(monkeypatch):
    # at p = 0 no pool is drawn, but the twirl angle is still checked for
    # the state it twirls: pi/2 from the S^z = 1 sector state, three down
    # spins, is refused although no circuit runs, under every evolver
    def no_pool(*args):
        raise AssertionError("noisy pool drawn")

    monkeypatch.setattr(mirror_module, "_noisy_pool", no_pool)
    star = build_star(4)
    ham = SpinHamiltonian(star)
    noise = NoiseSpec(p_pauli=0.0, enable_twirl=True)
    for kind in ("exact", "trotter", "floquet"):
        ev = make_evolver(kind, ham, dt_step=DT)
        with pytest.raises(ValueError, match=r"not a multiple of pi/3 "):
            overlap_series_sampled(sector_initial(star, 1), ev, DT, 2, ShotPlan(100), seed=0,
                                   noise=noise)
        overlap_series_sampled(sector_initial(star, 1), ev, DT, 2, ShotPlan(100), seed=0,
                               noise=replace(noise, twirl_angle=np.pi / 3))


def test_noiseless_counts_follow_the_binomial(problem):
    # over 3,000 realizations of a noiseless Floquet cell at p = 0 with the
    # twirl and post-selection, each circuit's zero count follows
    # Binomial(m_i, p_i), p_i the oracle's all-zero probability of its
    # mirrored state: the chi-square over the counts expected at least 10
    # times, the rest pooled, stays within 4 sigma of its degrees of freedom
    # (2, 10 and 10, bounds 10, 28 and 28; they read 6.8, 9.1 and 10.2)
    _, ham, prep = problem
    ev = GateEvolver(ham)
    plan = ShotPlan(60)
    noise = NoiseSpec(p_pauli=0.0, enable_postselect=True, enable_twirl=True)
    runs = overlap_series_sampled(prep, ev, 3 * DT, 1, plan, seed=5, noise=noise,
                                  realizations=range(3000))
    for i, (m, p) in enumerate(zip(plan.allocate(), exact_fractions(prep, ev, 3 * DT))):
        counts = np.rint([estimates[0].fractions[i] * m for _, estimates in runs]).astype(int)
        pmf = np.array([math.comb(m, c) * p ** c * (1 - p) ** (m - c) for c in range(m + 1)])
        expected = pmf * len(runs)
        observed = np.bincount(counts, minlength=m + 1)
        bins = expected >= 10
        e = np.append(expected[bins], expected[~bins].sum())
        o = np.append(observed[bins], observed[~bins].sum())
        dof = len(e) - 1
        chi2 = float(np.sum((o - e) ** 2 / e))
        print(f"circuit {i}: chi-square {chi2:.1f} over {dof} degrees of freedom")
        assert chi2 <= dof + 4 * np.sqrt(2 * dof), (i, chi2, dof)


def test_noiseless_fractions_clip_rounding():
    # the forward model can leave [0, 1] by rounding (F1 = |O|^2 reads up to
    # 1 + 1.8e-15 for the 12-spin pinwheel state): p = 1 + 2e-15 counts every
    # shot and p = -1e-17 or 0 none, as scalars and as arrays; a circuit with
    # no shots draws nothing and reads nan
    rng = np.random.default_rng(0)
    f1, f2, f3 = noiseless_fractions(rng, (7, 5, 0), (1 + 2e-15, 0.0, 0.5))
    assert (f1, f2) == (1.0, 0.0) and np.isnan(f3)
    probs = (np.full((2, 1), 1 + 2e-15), np.array([[-1e-17], [0.0]]), np.full((2, 1), 0.3))
    f1, f2, f3 = noiseless_fractions(rng, (7, 5, 0), probs, (2, 3))
    assert (f1 == 1.0).all() and (f2 == 0.0).all() and np.isnan(f3).all()
    assert f3.shape == (2, 3)
    state = rng.bit_generator.state
    noiseless_fractions(rng, (0, 0, 0), (0.5, 0.5, 0.5))
    assert rng.bit_generator.state == state


def _noiseless_zero(gates: list, n: int) -> float:
    """The former rule's all-zero probability of a pass: cdf[0] of its
    noiseless state, evolved from |0..0> through ``gates``."""
    return sampling_cdf(apply_circuit(zero_amps(n), gates))[0]


def _assert_pool_matches(pool, n_slots, p, seed, stream, p_zero, reference):
    """A pool, (zero count, erring shots), of a pass with ``n_slots`` error
    slots, drawn at rate p and ``p_zero`` from the streams (seed, *stream, j),
    against per-shot ``reference`` samples: the erring shots are the former
    pool's (``former_pool``) and sample the reference's samples, the former
    mask (``former_pool_zeros``) is the reference's zeros, and the zero count
    with the erring shots' zeros counts them."""
    zeros, shots = pool
    uniforms, erring = former_pool(seed, stream, n_slots, len(reference), p)
    samples = [shot.sample for shot in shots]
    assert samples == reference[erring].tolist()
    assert np.array_equal(former_pool_zeros(uniforms, erring, samples, p_zero), reference == 0)
    assert zeros + samples.count(0) == np.count_nonzero(reference == 0)


@pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
def test_noisy_zero_mask_matches_samples(problem, p):
    # under the former mask rule (``former_pool_zeros``) an erring shot's
    # entry is its own sample == 0, whatever its uniform says against the
    # noiseless cdf[0]; an error-free shot's entry is its uniform against it.
    # A pool's zero count is the mask's error-free entries, and with its
    # erring shots' zeros the whole mask's.  At p = 0.05 some shots err and
    # some do not, and some erring shots' entries differ from the uniform's
    _, ham, prep = problem
    circuits = _MirrorCircuits(prep, make_evolver("floquet", ham))
    evolution = circuits.evolver.gates(2 * DT)
    passes = [_Pass(circuits.pass_gates(i, evolution, None)) for i in range(3)]
    c0s = [_noiseless_zero(npass.gates, prep.n_sites) for npass in passes]
    pools = [_noisy_pool(npass, 60, p, c0, _StreamOpener(4), (i,))
             for i, (npass, c0) in enumerate(zip(passes, c0s))]
    _evolve_passes([shot for _, shots in pools for shot in shots], prep.n_sites)
    overridden = 0
    for i, ((count, shots), npass, c0) in enumerate(zip(pools, passes, c0s)):
        assert shots
        uniforms, erring = former_pool(4, (i,), len(npass.slots), 60, p)
        samples = [shot.sample for shot in shots]
        zeros, free = former_pool_zeros(uniforms, erring, samples, c0), np.ones(60, dtype=bool)
        free[erring] = False
        assert np.array_equal(zeros[erring], [s == 0 for s in samples])
        assert np.array_equal(zeros[free], uniforms[free] < c0)
        assert count == np.count_nonzero(zeros[free])
        assert count + samples.count(0) == np.count_nonzero(zeros)
        by_uniform = uniforms[erring] < c0
        overridden += np.count_nonzero(by_uniform != [s == 0 for s in samples])
    assert overridden > 0
    if p == 0.05:
        assert all(len(shots) < 60 for _, shots in pools)


def _random_pass(gen, n: int) -> _Pass:
    """A pass of random unitaries, each on one to three random sites of n."""
    gates = []
    for _ in range(int(gen.integers(1, 12))):
        k = int(gen.integers(1, min(n, 3) + 1))
        z = gen.normal(size=(1 << k, 1 << k)) + 1j * gen.normal(size=(1 << k, 1 << k))
        gates.append(GateOp(tuple(int(q) for q in gen.choice(n, k, replace=False)),
                            np.linalg.qr(z)[0]))
    return _Pass(gates)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", [0.001, 0.05, 0.5, 1.0])
def test_noisy_pool_counts_match_the_former_mask(p, seed):
    # the differential test of a pool's zero count against the former mask
    # rule (``former_pool``, ``former_pool_zeros``) on random passes: the
    # pool's erring shots are the former pool's, its count is the mask's
    # error-free entries, and with its erring shots' zeros the whole mask's,
    # at p_zero = 0, 1, a random value and the pass's noiseless cdf[0], where
    # the shots match the per-shot reference too.  By inverse CDF, p_zero set
    # exactly to an error-free shot's sample uniform does not count that shot,
    # and the next float above it does
    gen = np.random.default_rng(seed)
    n, shots = int(gen.integers(2, 6)), int(gen.integers(1, 400))
    npass, stream = _random_pass(gen, n), (seed, int(gen.integers(0, 2 ** 32)))
    uniforms, erring = former_pool(seed, stream, len(npass.slots), shots, p)
    free = np.delete(uniforms, erring)
    c0 = _noiseless_zero(npass.gates, n)
    edges = [0.0, 1.0, float(gen.random()), c0]
    if len(free):
        edges += [free[0], np.nextafter(free[0], 1.0)]
    pools = []
    for p_zero in edges:
        pools.append(_noisy_pool(npass, shots, p, p_zero, _StreamOpener(seed), stream))
        zeros, erring_shots = pools[-1]
        _evolve_passes(erring_shots, n)
        samples = [shot.sample for shot in erring_shots]
        mask = former_pool_zeros(uniforms, erring, samples, p_zero)
        assert len(samples) == len(erring)
        assert zeros == np.count_nonzero(np.delete(mask, erring))
        assert zeros + samples.count(0) == np.count_nonzero(mask)
    _assert_pool_matches(pools[3], len(npass.slots), p, seed, stream, c0,
                         _per_shot_noisy_reference(npass.gates, n, shots, NoiseSpec(p_pauli=p),
                                                   seed, stream))
    counts = [zeros for zeros, _ in pools]
    assert counts[:2] == [0, len(free)]
    if len(free):
        assert counts[5] == counts[4] + 1


@pytest.mark.parametrize("mode", ["f1_sqrt", "eq19"])
def test_cell_estimate_flags_phase_degenerate(problem, mode):
    # F1 draws |0..0> on every shot, F2 and F3 on half of theirs, so the raw
    # value 2 F2 - (F1 + 1)/2 + i (2 F3 - (F1 + 1)/2) is 0: under f1_sqrt it
    # has no phase, and the cell keeps the magnitude sqrt(F1).  The fractions
    # are counted from circuits of error-free shots: F1's 3 shots all count,
    # and 2 of the 4 shots of F2 and of F3
    _, ham, prep = problem
    circuits = _MirrorCircuits(prep, GateEvolver(ham))
    est = _cell_estimate(circuits, DT, NoiseSpec(p_pauli=0.01), ham.reference_energy(),
                         [float("nan")] * 3, [(3, 3, []), (4, 2, []), (4, 2, [])], mode)
    assert est.fractions == (1.0, 0.5, 0.5)
    assert type(est.value) is complex
    if mode == "f1_sqrt":
        assert est.value == 1 + 0j and est.flags == ("phase_degenerate",)
    else:
        assert est.value == 0 and est.flags == ()


def _per_shot_noisy_reference(gates, n, shots, noise, seed, stream):
    """The per-shot loop the batched passes replace: every shot runs its whole
    trajectory from |0..0> and samples its own final state."""
    samples = np.empty(shots, dtype=np.int64)
    for j in range(shots):
        rng = rng_stream(seed, *stream, j)
        state = noisy_apply(zero_amps(n), gates, noise, rng)
        cdf = np.cumsum(np.abs(state) ** 2)
        samples[j] = np.searchsorted(cdf / cdf[-1], rng.random(), side="right")
    return samples


@pytest.mark.parametrize("kind", ["trotter", "floquet"])
@pytest.mark.parametrize("twirl", [False, True], ids=["plain", "twirl"])
def test_noisy_sampling_matches_per_shot_reference(problem, kind, twirl):
    _, ham, prep = problem
    circuits = _MirrorCircuits(prep, make_evolver(kind, ham, dt_step=DT))
    evolution = circuits.evolver.gates(2 * DT)
    for case, p in enumerate((1e-3, 0.05, 0.5, 1.0)):
        gates = circuits.pass_gates(case % 3, evolution, np.pi / 2 if twirl else None)
        noise = NoiseSpec(p_pauli=p)
        shots = 300 if p == 1e-3 else 60
        npass, c0 = _Pass(gates), _noiseless_zero(gates, prep.n_sites)
        pool = _noisy_pool(npass, shots, p, c0, _StreamOpener(6), (case, 1))
        erring = pool[1]
        _evolve_passes(erring, prep.n_sites)
        _assert_pool_matches(pool, len(npass.slots), p, 6, (case, 1), c0,
                             _per_shot_noisy_reference(gates, prep.n_sites, shots, noise, 6,
                                                       (case, 1)))
        # p = 1e-3 runs both branches: error-free shots and shots that join the
        # batch at an erring gate; p = 0.5 replays several errors per shot; at
        # p = 1 every shot errs at every slot, from its first on
        if p == 1e-3:
            assert 0 < len(erring) < shots
        if p == 0.5:
            assert max(len(shot.errors) for shot in erring) > 1
        if p == 1.0:
            assert len(erring) == shots
            assert all([e[:2] for e in shot.errors] == npass.slots for shot in erring)


def _noisy_cell_reference(prep, evolver, t, plan, seed, stream, noise):
    """The fractions of one noisy cell from per-shot trajectories: circuit i's
    pool p samples shot j on the stream (*stream, i, p, j)."""
    circuits = _MirrorCircuits(prep, evolver)
    evolution = evolver.gates(t)
    angle = twirl_angle(noise)
    fractions = []
    for i, m_i in enumerate(plan.allocate()):
        n_twirled = int(round(m_i * plan.twirl_fraction)) if angle is not None else 0
        samples = np.concatenate([
            _per_shot_noisy_reference(circuits.pass_gates(i, evolution, angle if pool else None),
                                      prep.n_sites, shots, noise, seed, (*stream, i, pool))
            for pool, shots in enumerate((m_i - n_twirled, n_twirled)) if shots])
        if i == 0 and noise.enable_postselect:
            samples, _ = postselect_f1(samples, prep.dimer_pairs, prep.n_sites)
        fractions.append(all_zero_fraction(samples))
    return tuple(fractions)


@pytest.mark.parametrize("kind", ["trotter", "floquet"])
def test_batched_cells_match_cells_alone(problem, kind):
    # the realizations of a series step, and the mitigation modes of an
    # ablation step, run as one batch per time; each cell must give what it
    # gives alone, and what per-shot trajectories give
    _, ham, prep = problem
    ev = make_evolver(kind, ham, dt_step=DT)
    t, plan = 2 * DT, ShotPlan(90)
    noise = NoiseSpec(p_pauli=0.05, enable_postselect=True, enable_twirl=True)
    realizations = [((r, 2), noise) for r in range(3)]
    modes = [((2, m), replace(noise, enable_postselect=mode in ("postselect", "both"),
                              enable_twirl=mode in ("twirl", "both")))
             for m, mode in enumerate(MITIGATION_MODES)]
    for cells in (realizations, modes):
        batched = estimate_cells(_MirrorCircuits(prep, ev), t, cells, plan, _StreamOpener(5))
        assert len(batched) == len(cells)
        for (stream, spec), est in zip(cells, batched):
            [alone] = estimate_cells(_MirrorCircuits(prep, ev), t, [(stream, spec)], plan,
                                     _StreamOpener(5))
            assert est == alone
            assert est.fractions == _noisy_cell_reference(prep, ev, t, plan, 5, stream, spec)


def test_ablation_matches_per_mode_estimates(problem):
    # the ablation shares one set of mirror circuits across steps and modes;
    # a fresh estimate per (step, mode) must give the same rows, against the
    # oracle's exact overlaps and their closed-form fractions
    _, ham, prep = problem
    ev = GateEvolver(ham)
    plan, noise = ShotPlan(60), NoiseSpec(p_pauli=0.02)
    expected = []
    for k in (1, 2, 3):
        t = k * DT
        o_exact = exact_overlap(prep.state(), ev, t)
        exact_f = mirror_fractions(o_exact, ham.reference_energy(), t)
        for m, mode in enumerate(MITIGATION_MODES):
            spec = replace(noise, enable_postselect=mode in ("postselect", "both"),
                           enable_twirl=mode in ("twirl", "both"))
            est = estimate_overlap(prep, ev, t, plan, seed=4, stream=(k, m),
                                   noise=spec)
            expected.append((t, mode, *(abs(f - fx) for f, fx in zip(est.fractions, exact_f)),
                             abs(est.value - o_exact)))
    assert mitigation_ablation(prep, ham, DT, 3, plan, noise, seed=4) == expected


def test_ablation_builds_each_step_gates_once(problem, monkeypatch):
    # the exact reference and the four mode cells of a step read one gate
    # list: one gates(t) call per step (test_ablation_matches_per_mode_estimates
    # checks the rows)
    _, ham, prep = problem
    calls = []
    gates = GateEvolver.gates

    def counted(self, t):
        calls.append(t)
        return gates(self, t)

    monkeypatch.setattr(GateEvolver, "gates", counted)
    mitigation_ablation(prep, ham, DT, 3, ShotPlan(60), NoiseSpec(p_pauli=0.02), seed=4)
    assert calls == [k * DT for k in (1, 2, 3)]


def test_series_builds_each_sampling_cdf_once(problem, monkeypatch):
    # a CDF is built once for each erring shot, the one it samples, and for
    # nothing else: a noiseless sampled series, twirled, of three
    # realizations builds none
    _, ham, prep = problem
    built, erring = [], []
    noisy_pool = mirror_module._noisy_pool

    def counted_cdf(amps):
        built.append(1)
        return sampling_cdf(amps)

    def recorded_pool(*args):
        pool = noisy_pool(*args)
        erring.extend(pool[1])
        return pool

    monkeypatch.setattr(mirror_module, "sampling_cdf", counted_cdf)
    monkeypatch.setattr(statevec_module, "sampling_cdf", counted_cdf)
    monkeypatch.setattr(mirror_module, "_noisy_pool", recorded_pool)
    noise = NoiseSpec(enable_twirl=True)
    for spec in (noise, replace(noise, p_pauli=0.02)):
        built.clear()
        overlap_series_sampled(prep, GateEvolver(ham), DT, 3, ShotPlan(60), seed=4,
                               noise=spec, realizations=(0, 1, 2))
        assert len(built) == len(erring)
    assert erring


@pytest.mark.parametrize("kind", ["exact", "trotter", "floquet"])
def test_exact_cells_equal_exact_overlap(problem, problem12, kind):
    # the exact references, <psi0|W(t)|psi0> from exact_overlaps and their
    # closed-form fractions, must equal the oracle's overlap (bit for bit
    # under a gate evolver) and the all-zero probabilities of the mirrored
    # states it builds one at a time, twirled or not: the noiseless
    # fractions every error-free shot reads, on the 8- and the 12-spin star
    angle = np.pi / 2
    for star, ham, prep in (problem, problem12):
        ev = make_evolver(kind, ham, dt_step=DT)
        psi0 = prep.state()
        for t in (k * DT for k in (1, 2, 7, -3)):
            [value] = exact_overlaps(psi0, ev, [t])
            if kind == "exact":
                assert abs(value - exact_overlap(psi0, ev, t)) <= 1e-13
            else:
                assert value == exact_overlap(psi0, ev, t)
            fractions = mirror_fractions(value, ham.reference_energy(), t)
            assert np.allclose(fractions, exact_fractions(prep, ev, t), rtol=0, atol=1e-14)
            for pass_angle in (None, angle):
                zeros = zero_probabilities(mirror_states(prep, ev, t, pass_angle))
                assert np.allclose(fractions, zeros, rtol=0, atol=1e-14)


def test_noiseless_pass_built_once_per_circuit_and_time(problem, monkeypatch):
    # the mitigation modes of one time and the realizations of a series share
    # each (time, circuit, pool) pass, and each pass is evolved once per time;
    # the ablation's exact references evolve no pass
    _, ham, prep = problem
    evolved, pools, kernel_calls, steps = [], [], [], []
    evolve_passes, noisy_pool = mirror_module._evolve_passes, mirror_module._noisy_pool
    kernel, estimate = statevec_module.apply_gate_amps, mirror_module._estimate_cells

    def counted_kernel(amps, gate):
        kernel_calls.append(gate)
        return kernel(amps, gate)

    def recorded_estimate(*args, **kwargs):
        # per call: the pass evolutions and the kernel calls it makes
        evolutions, calls = len(evolved), len(kernel_calls)
        estimates = estimate(*args, **kwargs)
        steps.append((len(evolved) - evolutions, len(kernel_calls) - calls))
        return estimates

    def recorded_evolve(shots, n):
        evolved.append(list(dict.fromkeys(shot.npass for shot in shots)))
        return evolve_passes(shots, n)

    def recorded_pool(npass, *args):
        pools.append(npass)
        return noisy_pool(npass, *args)

    monkeypatch.setattr(mirror_module, "_evolve_passes", recorded_evolve)
    monkeypatch.setattr(mirror_module, "_noisy_pool", recorded_pool)
    monkeypatch.setattr(statevec_module, "apply_gate_amps", counted_kernel)
    monkeypatch.setattr(mirror_module, "apply_gate_amps", counted_kernel)
    monkeypatch.setattr(mirror_module, "_estimate_cells", recorded_estimate)

    def check(n_times, n_pools):
        # one evolution per time, of distinct passes with distinct gate lists,
        # each run by a pool and by erring shots
        assert [len(passes) for passes in evolved] == [6] * n_times
        for passes in evolved:
            assert len({tuple(map(id, npass.gates)) for npass in passes}) == 6
        ids = [id(npass) for passes in evolved for npass in passes]
        assert len(set(ids)) == len(ids) and set(map(id, pools)) == set(ids)
        assert len(pools) == n_pools

    plan, noise = ShotPlan(60), NoiseSpec(p_pauli=0.02)
    mitigation_ablation(prep, ham, DT, 3, plan, noise, seed=4)
    # per step: 3 circuits untwirled and 3 twirled, run by 18 mode pools
    check(3, 3 * 18)
    # each step makes the pass evolutions and kernel calls of its mode cells
    # estimated on their own
    ablation_steps = steps[:]
    circuits = _MirrorCircuits(prep, GateEvolver(ham))
    for k in (1, 2, 3):
        modes = [((k, m), replace(noise, enable_postselect=mode in ("postselect", "both"),
                                  enable_twirl=mode in ("twirl", "both")))
                 for m, mode in enumerate(MITIGATION_MODES)]
        evolution = circuits.evolver.gates(k * DT)
        value = np.vdot(prep.state(), apply_circuit(prep.state(), evolution))
        recorded_estimate(circuits, k * DT, value, evolution, modes, plan, _StreamOpener(4))
    assert steps[3:] == ablation_steps and [e for e, _ in ablation_steps] == [1, 1, 1]
    evolved.clear()
    pools.clear()
    overlap_series_sampled(prep, GateEvolver(ham), DT, 3, plan, seed=4,
                           noise=replace(noise, enable_twirl=True), realizations=(0, 1))
    # 3 steps in each direction, 6 passes each, run by both realizations' pools
    check(6, 2 * 6 * 6)


def test_unsampled_passes_build_no_cdf(problem, monkeypatch):
    # the allocation study takes its exact values and fractions from
    # exact_overlaps and mirror_fractions: it evolves no pass and builds no CDF
    _, ham, prep = problem
    built, evolved = [], []

    def counted_cdf(amps):
        built.append(1)
        return sampling_cdf(amps)

    def recorded_evolve(shots, n):
        evolved.append(shots)

    monkeypatch.setattr(mirror_module, "sampling_cdf", counted_cdf)
    monkeypatch.setattr(mirror_module, "_evolve_passes", recorded_evolve)
    rows = allocation_study(prep, ham, [DT, 2 * DT], m_totals=(100,), f1_grid=(0.5,),
                            n_realizations=3, seed=1)
    assert rows and built == [] and evolved == []


@pytest.mark.parametrize("kind", ["trotter", "floquet"])
@pytest.mark.parametrize("twirl", [False, True], ids=["plain", "twirl"])
def test_noiseless_passes_share_prefix_states(problem, monkeypatch, kind, twirl):
    # passes evolve as one batch over the leading run of gate objects their
    # lists share; each pass's erring shots must give what they give evolved
    # alone
    _, ham, prep = problem
    evolver = make_evolver(kind, ham, dt_step=DT)
    t, angle = 2 * DT, np.pi / 2 if twirl else None
    angles = list(dict.fromkeys((None, angle)))
    keys = [(i, a) for i in range(3) for a in angles]
    circuits = _MirrorCircuits(prep, evolver)
    rows, cdfs = [], []
    kernel, cdf = mirror_module.apply_gate_amps, mirror_module.sampling_cdf

    def counted_kernel(amps, gate):
        if amps.ndim == 2:  # a gate on a batch, not a Pauli on one row
            rows.append(len(amps))
        return kernel(amps, gate)

    def recorded_cdf(amps):
        cdfs.append(amps.tobytes())
        return cdf(amps)

    monkeypatch.setattr(mirror_module, "apply_gate_amps", counted_kernel)
    monkeypatch.setattr(mirror_module, "sampling_cdf", recorded_cdf)

    evolution = evolver.gates(t)

    def drawn(circuits, key, m, evolution):
        npass = _Pass(circuits.pass_gates(key[0], evolution, key[1]))
        return npass, _noisy_pool(npass, 40, 0.05, 0.0, _StreamOpener(3), (m,))[1]

    # with one erring shot per pass that joins after gate 0, every gate of
    # each distinct gate-list prefix is applied once, to the whole batch;
    # the six passes of one noisy8 time hold 258 gates, 92 of them shared
    passes = {key: _Pass(circuits.pass_gates(key[0], evolution, key[1])) for key in keys}
    shots = [_ErringShot(npass, [(0, npass.gates[0].sites[0], "Y")], 0.5)
             for npass in passes.values()]
    _evolve_passes(shots, prep.n_sites)
    prefixes = {tuple(map(id, npass.gates[:k])) for npass in passes.values()
                for k in range(1, len(npass.gates) + 1)}
    total = sum(len(npass.gates) for npass in passes.values())
    assert len(rows) == len(prefixes) < total
    if kind == "floquet" and twirl:
        assert (total, len(rows)) == (258, 166)

    # F3 shares the U_R preparation and the evolution (and, twirled, the twirl
    # layer) with F2: the noiseless row and the shots of every F2 and F3 pass
    # ride in one batch through the rest of the U_R preparation and the
    # evolution
    shared = len(circuits.preps[1].gates) + len(evolver.gates(t))
    for a in angles:
        layer = 0 if a is None else prep.n_sites
        assert _shared_run(passes[(1, a)].gates, passes[(2, a)].gates) == shared + layer
    assert rows.count(1 + 2 * len(angles)) == shared - 1

    # a pass that no erring shot runs is not evolved: the F1 passes alone
    # apply their own gates once each
    rows.clear()
    f1 = [passes[0, a] for a in angles]
    _evolve_passes([shot for shot in shots if shot.npass in f1], prep.n_sites)
    assert len(rows) == len({tuple(map(id, npass.gates[:k])) for npass in f1
                             for k in range(1, len(npass.gates) + 1)})

    # with the shots the pools draw, each pass's shots' samples and the final
    # states behind them equal those of the pass built alone, on circuits of
    # its own, and evolved alone
    passes = {key: drawn(circuits, key, m, evolution) for m, key in enumerate(keys)}
    assert all(shots for _, shots in passes.values())
    cdfs.clear()
    _evolve_passes([shot for _, shots in passes.values() for shot in shots], prep.n_sites)
    together = sorted(cdfs)
    assert len(together) == sum(len(shots) for _, shots in passes.values())
    cdfs.clear()
    for m, (key, (npass, shots)) in enumerate(passes.items()):
        alone, alone_shots = drawn(_MirrorCircuits(prep, evolver), key, m, evolver.gates(t))
        assert [g.label for g in alone.gates] == [g.label for g in npass.gates]
        assert alone.slots == npass.slots
        _evolve_passes(alone_shots, prep.n_sites)
        assert [s.errors for s in alone_shots] == [s.errors for s in shots]
        assert [s.sample for s in alone_shots] == [s.sample for s in shots]
    assert sorted(cdfs) == together


@pytest.mark.parametrize("kind", ["trotter", "floquet"])
@pytest.mark.parametrize("rows", [2, 3, 7])
def test_batch_rows_bounded(problem, monkeypatch, kind, rows):
    # with a batch of at most `rows` rows, the erring shots that do not fit
    # evolve in later batches, and with rows < 7 some pools draw their slot
    # uniforms in more than one block; every shot's uniform and sample must
    # equal the one-batch evolution's and the per-shot reference's
    _, ham, prep = problem
    evolver = make_evolver(kind, ham, dt_step=DT)
    t, angle, p = 2 * DT, np.pi / 2, 0.05
    keys = [(i, a) for i in range(3) for a in (None, angle)]

    def drawn():
        circuits, evolution = _MirrorCircuits(prep, evolver), evolver.gates(t)
        passes = [_Pass(circuits.pass_gates(i, evolution, a)) for i, a in keys]
        c0s = [_noiseless_zero(npass.gates, prep.n_sites) for npass in passes]
        pools = [_noisy_pool(npass, 30, p, c0, _StreamOpener(5), (m,))
                 for m, (npass, c0) in enumerate(zip(passes, c0s))]
        _evolve_passes([shot for _, shots in pools for shot in shots], prep.n_sites)
        return list(zip(passes, c0s, pools))

    one_batch = drawn()
    assert max(len(shots) for _, _, (_, shots) in one_batch) > rows
    batches = []
    kernel = mirror_module.apply_gate_amps

    def counted_kernel(amps, gate):
        if amps.ndim == 2:
            batches.append(len(amps))
        return kernel(amps, gate)

    monkeypatch.setattr(mirror_module, "apply_gate_amps", counted_kernel)
    monkeypatch.setattr(mirror_module, "_BATCH_BYTES", rows * 16 << prep.n_sites)
    bounded = drawn()
    assert max(batches) == rows
    if rows < 7:
        assert any(8 * (len(npass.slots) + 1) * 30 > mirror_module._BATCH_BYTES
                   for npass, _, _ in bounded)
    for m, ((npass, c0, pool), (_, _, alone)) in enumerate(zip(bounded, one_batch)):
        assert pool[0] == alone[0]
        assert ([(s.errors, s.uniform) for s in pool[1]]
                == [(s.errors, s.uniform) for s in alone[1]])
        assert [s.sample for s in pool[1]] == [s.sample for s in alone[1]]
        _assert_pool_matches(pool, len(npass.slots), p, 5, (m,), c0,
                             _per_shot_noisy_reference(npass.gates, prep.n_sites, 30,
                                                       NoiseSpec(p_pauli=p), 5, (m,)))


def test_waves_at_default_bound_match_per_shot_reference(problem12, monkeypatch):
    # at 12 spins the default bound holds 32 rows, so the erring shots of one
    # Floquet time step run in waves of 31; with six pools whose erring shots
    # span at least three waves, every pool must give the per-shot samples
    _, ham, prep = problem12
    evolver = make_evolver("floquet", ham, dt_step=DT)
    circuits, evolution = _MirrorCircuits(prep, evolver), evolver.gates(DT)
    shots, p = 15, 0.02
    batches, waves, depth = [], [], [0]
    kernel, group = mirror_module.apply_gate_amps, mirror_module._evolve_group

    def counted_kernel(amps, gate):
        if amps.ndim == 2:
            batches.append(len(amps))
        return kernel(amps, gate)

    def recorded_group(passes, start, batch, shots):
        if depth[0] == 0:  # a wave, not a branch of one
            waves.append(len(shots))
        depth[0] += 1
        try:
            group(passes, start, batch, shots)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(mirror_module, "apply_gate_amps", counted_kernel)
    monkeypatch.setattr(mirror_module, "_evolve_group", recorded_group)
    keys = [(i, a) for i in range(3) for a in (None, np.pi / 3)]
    passes = [_Pass(circuits.pass_gates(i, evolution, a)) for i, a in keys]
    c0s = [_noiseless_zero(npass.gates, prep.n_sites) for npass in passes]
    pools = [_noisy_pool(npass, shots, p, c0, _StreamOpener(8), (m,))
             for m, (npass, c0) in enumerate(zip(passes, c0s))]
    erring = [shot for _, pool_shots in pools for shot in pool_shots]
    _evolve_passes(erring, prep.n_sites)
    assert mirror_module._BATCH_BYTES // (16 << prep.n_sites) == 32
    assert len(erring) > 62 and waves == [31, 31, len(erring) - 62]
    assert max(batches) <= 32
    for m, (pool, npass, c0) in enumerate(zip(pools, passes, c0s)):
        _assert_pool_matches(pool, len(npass.slots), p, 8, (m,), c0,
                             _per_shot_noisy_reference(npass.gates, prep.n_sites, shots,
                                                       NoiseSpec(p_pauli=p), 8, (m,)))


def test_twirl_layers_built_once_per_circuits(problem, monkeypatch):
    # all circuits, pools, times and directions of a series share one twirl
    # layer per angle, checked for the reference branch, noisy or not
    _, ham, prep = problem
    built = []

    def counted_twirl_layer(*args):
        built.append(args)
        return twirl_layer(*args)

    monkeypatch.setattr(mirror_module, "twirl_layer", counted_twirl_layer)
    noise = NoiseSpec(p_pauli=0.02, enable_twirl=True)
    for spec in (noise, replace(noise, p_pauli=0.0)):
        built.clear()
        overlap_series_sampled(prep, GateEvolver(ham), DT, 3, ShotPlan(12),
                               seed=4, noise=spec, realizations=(0, 1))
        assert built == [(prep.n_sites, np.pi / 2, len(prep.dimer_pairs))]


def test_noisy_series_realizations_match_single_cells(problem):
    _, ham, prep = problem
    ev = GateEvolver(ham)
    plan = ShotPlan(12)
    noise = NoiseSpec(p_pauli=0.02)
    runs = overlap_series_sampled(prep, ev, DT, 1, plan, seed=4, noise=noise,
                                  realizations=(0, 5))
    for r, (series, estimates) in zip((0, 5), runs):
        pos, neg = (estimate_overlap(prep, ev, sign * DT, plan, seed=4,
                                     stream=(r, sign), noise=noise) for sign in (1, -1))
        assert series.values[1] == pos.value and estimates[0].fractions == pos.fractions
        assert series.neg_values[1] == neg.value


def test_floquet_series_has_both_directions(problem):
    star, ham, prep = problem
    ev = GateEvolver(ham)
    series = overlap_series_exact(prep.state(), ev, DT, 4)
    assert series.neg_values is not None
    assert abs(series.value(-2) - exact_overlap(prep.state(), ev, -2 * DT)) < 1e-12


def test_exact_series_matches_per_step_overlaps(problem):
    # the spectral exact series against the per-step inner products it replaced
    _, ham, prep = problem
    ev = ExactEvolver(ham)
    for state in (prep.state(), reference_superposition(prep, 1).state()):
        series = overlap_series_exact(state, ev, DT, 40)
        loop = [exact_overlap(state, ev, k * DT) for k in range(1, 41)]
        assert series.values[0] == 1.0 and series.neg_values is None
        assert np.max(np.abs(series.values[1:] - loop)) <= 1e-13


@pytest.mark.parametrize("kind", ["exact", "trotter", "floquet"])
def test_exact_overlaps_match_series_and_oracle(problem, kind):
    # exact_overlaps is the series' one source in both directions, and equals
    # the oracle's direct inner product: bit for bit under a gate evolver, and
    # to the spectral sum's 1e-13 (test_autocorrelation_matches_evolve_loop)
    # under the exact evolver
    _, ham, prep = problem
    ev = make_evolver(kind, ham, dt_step=DT)
    psi0 = prep.state()
    series = overlap_series_exact(psi0, ev, DT, 12)
    times = np.arange(1, 13) * DT
    for sign, values in ((1, series.values), (-1, series.neg_values)):
        overlaps = exact_overlaps(psi0, ev, sign * times)
        if values is not None:
            assert np.array_equal(values[1:], overlaps)
        oracle = np.array([exact_overlap(psi0, ev, sign * k * DT) for k in range(1, 13)])
        if kind == "exact":
            assert np.max(np.abs(overlaps - oracle)) <= 1e-13
        else:
            assert np.array_equal(overlaps, oracle)
    assert (series.neg_values is not None) == (kind == "floquet")


@pytest.mark.parametrize("n_tri", [4, 6])
@pytest.mark.parametrize("h", [0.0, 0.3])
def test_mirror_fractions_match_circuit_fractions(n_tri, h):
    # the closed-form fractions of the oracle's exact overlap against the
    # all-zero probabilities of the mirrored states, built gate by gate: three
    # initial states, three evolvers and five times, on each star and field
    star = build_star(n_tri)
    ham = SpinHamiltonian(star, h)
    states = {"dressed": dressed_initial(star), "pinwheel": pinwheel(star),
              "sector_sz1": sector_initial(star, 1)}
    for name, prep in states.items():
        psi0 = prep.state()
        for kind in ("exact", "trotter", "floquet"):
            ev = make_evolver(kind, ham, dt_step=DT)
            for t in (0.1, 0.2, 0.5, 1.3, -0.3):
                fractions = mirror_fractions(exact_overlap(psi0, ev, t),
                                             ham.reference_energy(), t)
                assert np.max(np.abs(np.subtract(fractions, exact_fractions(prep, ev, t)))) \
                    <= 1e-14, (name, kind, t)


def test_mirror_exact_series_matches_direct(problem):
    _, ham, prep = problem
    ev = ExactEvolver(ham)
    direct = overlap_series_exact(prep.state(), ev, DT, 10)
    mirrored = overlap_series_mirror_exact(prep, ev, ham, DT, 10, "eq19")
    assert np.max(np.abs(direct.values - mirrored.values)) < 1e-10


def test_trotter_evolver_step_counts(problem):
    _, ham, _ = problem
    ev = GateEvolver(ham, dt_step=DT)
    assert len(ev.gates(0.0)) == 0
    assert len(ev.gates(DT)) == 4
    assert len(ev.gates(5 * DT)) == 20
    with pytest.raises(ValueError):
        make_evolver("trotter", ham)
    with pytest.raises(ValueError):
        make_evolver("magic", ham)


def test_noise_requires_gate_evolver(problem):
    _, ham, prep = problem
    spec = NoiseSpec(p_pauli=0.01)
    with pytest.raises(ValueError, match="gate-based"):
        estimate_overlap(prep, ExactEvolver(ham), DT, ShotPlan(10), seed=0,
                         noise=spec)


def test_allocation_study_small(problem):
    _, ham, prep = problem
    times = [DT * (k + 1) for k in range(10)]
    rows = allocation_study(prep, ham, times, m_totals=(1000,),
                            f1_grid=(0.1, 1 / 3, 0.8), n_realizations=100, seed=8)
    f1sq = {r["f1_fraction"]: r["typical_error"] for r in rows if r["mode"] == "f1_sqrt"}
    eq19 = {r["f1_fraction"]: r["typical_error"] for r in rows if r["mode"] == "eq19"}
    # equal split beats the lopsided allocations
    assert f1sq[1 / 3] < f1sq[0.1]
    assert f1sq[1 / 3] < f1sq[0.8]
    # magnitude from F1 alone beats the three-way combination
    assert f1sq[1 / 3] < eq19[1 / 3]


def test_sector_error_discards_every_shot(problem):
    # a spin flip on the second site of a dimer pair, after the F1 circuit's
    # last gate, moves the state one sector over; the pair-parity rule then
    # rejects every measured string deterministically.  Every F1 shot of the
    # cell carries that error
    star, ham, prep = problem
    circuits = _MirrorCircuits(prep, GateEvolver(ham))
    npass = _Pass(circuits.pass_gates(0, circuits.evolver.gates(DT), None))
    flip = (len(npass.gates) - 1, prep.dimer_pairs[0][1], "X")
    uniforms = _StreamOpener(1)((0,)).random(90)
    shots = [_ErringShot(npass, [flip], u) for u in uniforms]
    _evolve_passes(shots, prep.n_sites)
    est = _cell_estimate(circuits, DT, NoiseSpec(enable_postselect=True), ham.reference_energy(),
                         [float("nan")] * 3, [(90, 0, shots), (0, 0, []), (0, 0, [])], "f1_sqrt")
    assert est.value is None
    assert "all_shots_discarded" in est.flags
    assert est.discards[0] == 90


def _sampled_preps(star) -> dict:
    """Every initial state with a reference superposition: the dressed and
    pinwheel states and the sector states of S^z = 1 to N - 1."""
    return {"dressed": dressed_initial(star), "pinwheel": pinwheel(star),
            **{f"sector_sz{sz}": sector_initial(star, sz) for sz in range(1, star.n_triangles)}}


@pytest.mark.parametrize("n_tri", [4, 6])
def test_twirl_check_admits_exactly_the_angles_that_keep_the_fractions(n_tri):
    # twirl_layer admits an angle for a psi0 branch of n_down down spins
    # exactly when the twirled noiseless F2 and F3 all-zero probabilities
    # equal the untwirled ones (to 1e-12) at every time, for every state
    # with a reference superposition and every evolver.  The layer multiplies
    # basis state b by e^{i theta (n_up - n_down)} (R_z on every qubit),
    # written here from the popcount; the all-zero amplitude of U^dag x is
    # <U 0|x>.  At S^z = 1 the former rule (a multiple of 2 pi/n) admits
    # pi/2, which moves F2 and F3
    star = build_star(n_tri)
    ham = SpinHamiltonian(star)
    n = star.n_sites
    spin = n - 2 * np.array([bin(b).count("1") for b in range(1 << n)])
    angles = np.pi * np.arange(-30, 121) / 60
    admits: dict = {}
    for name, prep in _sampled_preps(star).items():
        n_down = len(prep.dimer_pairs)
        for angle in angles:
            if (n_down, angle) not in admits:
                try:
                    twirl_layer(n, angle, n_down)
                    admits[n_down, angle] = True
                except ValueError:
                    admits[n_down, angle] = False
        u_r = reference_superposition(prep, 1).state()
        u_ri = reference_superposition(prep, 1j).state()
        for kind in ("exact", "trotter", "floquet"):
            ev = make_evolver(kind, ham, dt_step=DT)
            kept = np.ones(len(angles), dtype=bool)
            for t in (0.3, 0.7, 1.3):
                evolved = evolve(ev, u_r, t)
                twirled = evolved[None, :] * np.exp(1j * np.outer(angles, spin))
                for ref in (u_r, u_ri):
                    plain = np.abs(np.vdot(ref, evolved)) ** 2
                    moved = np.abs(twirled @ ref.conj()) ** 2 - plain
                    kept &= np.abs(moved) <= 1e-12
            assert [admits[n_down, a] for a in angles] == kept.tolist(), (name, kind)
            assert kept.sum() > 1


@pytest.mark.parametrize("n_tri", [4, 6])
def test_noiseless_f1_state_has_no_odd_parity_amplitude(n_tri):
    # post-selection keeps every error-free F1 shot because the noiseless F1
    # state, twirled or not, has exactly zero amplitude on every string the
    # pair-parity rule discards: both full dimer states, three evolvers,
    # h = 0 and 0.7
    star = build_star(n_tri)
    strings = np.arange(1 << star.n_sites)
    for h in (0.0, 0.7):
        ham = SpinHamiltonian(star, h)
        for prep in (dressed_initial(star), pinwheel(star)):
            kept, _ = postselect_f1(strings, prep.dimer_pairs, star.n_sites)
            odd = np.setdiff1d(strings, kept)
            assert len(odd) == len(strings) // 2
            twirl = twirl_layer(star.n_sites, np.pi / 2, len(prep.dimer_pairs))
            for kind in ("exact", "trotter", "floquet"):
                ev = make_evolver(kind, ham, dt_step=DT)
                for t in (0.1, 0.7, -1.3):
                    evolved = evolve(ev, prep.state(), t)
                    for state in (evolved, apply_circuit(evolved, twirl)):
                        f1 = apply_circuit(state, invert(prep).gates)
                        assert np.count_nonzero(f1[odd]) == 0, (h, kind, t)


def _former_zero_probability(circuits, t, i, angle):
    """cdf[0] of circuit i's noiseless state at time t, the former count
    rule's threshold: its preparation, W(t) (``spectral_evolve`` under the
    exact evolver), the twirl layer of ``angle`` and its inverse preparation
    applied to |0..0>, and the CDF of ``sampling_cdf``."""
    ev = circuits.evolver
    state = apply_circuit(zero_amps(circuits.n), circuits.preps[i].gates)
    state = (spectral_evolve(ev.ham, state, t) if ev.kind == "exact"
             else apply_circuit(state, ev.gates(t)))
    if angle is not None:
        state = apply_circuit(state, circuits._twirl(angle))
    return sampling_cdf(apply_circuit(state, circuits.inverses[i]))[0]


@pytest.mark.parametrize("n_tri", [4, 6])
@pytest.mark.parametrize("kind", ["exact", "trotter", "floquet"])
def test_forward_model_counts_match_the_evolved_state_rule(n_tri, kind, monkeypatch):
    # every noisy pool's error-free shots count the same zeros under p_i, the
    # forward model's all-zero probability, as under the former rule,
    # u < cdf[0] of the pass's evolved noiseless state: series runs with the
    # twirl and post-selection at p = 0.001 and 0.5 under the gate evolvers.
    # The two thresholds differ by rounding only, so no uniform may fall
    # between them; the smallest |u - p_i| is reported.  At p = 0, under
    # every evolver, no cell draws a pool, and each circuit's zero count is
    # the noiseless count rule's at the mirrored state's all-zero probability
    star = build_star(n_tri)
    ham = SpinHamiltonian(star)
    prep = dressed_initial(star)
    ev = make_evolver(kind, ham, dt_step=DT)
    pools, noisy_pool = [], mirror_module._noisy_pool

    def recorded(npass, shots, p, p_zero, streams, stream):
        pool = noisy_pool(npass, shots, p, p_zero, streams, stream)
        pools.append((npass, shots, p, p_zero, stream, pool[0]))
        return pool

    monkeypatch.setattr(mirror_module, "_noisy_pool", recorded)
    rates = (0.0,) if kind == "exact" else (0.0, 0.001, 0.5)
    for p in rates:
        total = {0.0: 30000 if n_tri == 4 else 6000, 0.001: 1500 if n_tri == 4 else 300,
                 0.5: 30}[p]
        noise = NoiseSpec(p_pauli=p, enable_postselect=True, enable_twirl=True)
        runs = overlap_series_sampled(prep, ev, DT, 2, ShotPlan(total), seed=n_tri,
                                      noise=noise, realizations=(0, 1))
        if p == 0:
            assert not pools
            for r, (_, estimates) in enumerate(runs):
                for k, est in enumerate(estimates, 1):
                    assert est.fractions == binomial_fractions(
                        n_tri, (r, k), ShotPlan(total).allocate(),
                        exact_fractions(prep, ev, k * DT)), (r, k)
    circuits = _MirrorCircuits(prep, ev)
    margin, counted, former, gap = np.inf, 0, {}, 0.0
    for npass, shots, p, p_zero, stream, zeros in pools:
        assert p > 0
        _, k, i, pool = stream
        t, angle = k * DT, (None, twirl_angle(noise))[pool]
        if (t, i, angle) not in former:
            former[t, i, angle] = _former_zero_probability(circuits, t, i, angle)
        gap = max(gap, abs(p_zero - former[t, i, angle]))
        uniforms, erring = former_pool(n_tri, stream, len(npass.slots), shots, p)
        u = np.delete(uniforms, erring)
        assert (zeros == np.count_nonzero(u < p_zero)
                == np.count_nonzero(u < former[t, i, angle])), (t, i, angle)
        if len(u):
            margin = min(margin, float(np.min(np.abs(u - p_zero))))
        counted += len(u)
    if kind == "exact":
        assert not former
        return
    assert len(former) == (2 if kind == "floquet" else 1) * 2 * 3 * 2
    assert counted > 0
    print(f"{n_tri} triangles, {kind}: {counted} error-free shots, smallest |u - p_i| "
          f"{margin:.3g}, largest |p_i - cdf[0]| {gap:.3g}")
