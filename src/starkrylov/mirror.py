"""Mirror-circuit estimation of O(t) = <psi0| W(t) |psi0>.

Three circuits are sampled in the computational basis and only the all-zero
probability is kept:

  F1 from U0^dag W U0 |0..0>            -> |O|^2
  F2 from U_R^dag W U_R |0..0>          -> (r^2 + 1 + 2 r cos(theta + E_R t))/4
  F3 from U_Ri^dag W U_R |0..0>         -> (r^2 + 1 + 2 r sin(theta + E_R t))/4

with O = r e^{i theta} and E_R the analytic reference-state energy.  The
complex overlap is recovered as
  O = [2 F2 + 2i F3 - (F1 + 1)(i + 1)/2] e^{-i E_R t},
optionally replacing the magnitude by sqrt(F1).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import krylov
from .noise import NoiseSpec, noisy_apply, postselect_f1, twirl_layer
from .prep import PrepCircuit, invert, reference_superposition
from .statevec import (
    StateVector,
    all_zero_fraction,
    apply_circuit,
    evolve_exact,
    inner,
    rng_stream,
    sample_bitstrings,
    zero_state,
)
from .trotter import floquet_step_gates, step_unitaries, triangle_scheme


class EstimateUndefined(RuntimeError):
    """Raised when an estimation cell produces no usable value (for example
    when post-selection discards every shot)."""


# -- evolvers -----------------------------------------------------------------

class ExactEvolver:
    """W(t) = exp(-i H t) via the sector eigendecomposition."""

    kind = "exact"

    def __init__(self, ham):
        self.ham = ham

    def apply(self, state: StateVector, t: float) -> StateVector:
        return evolve_exact(state, self.ham, t)

    def gates(self, t: float):
        return None


class TrotterEvolver:
    """W(t) = m first-order steps of size t/m with m = ceil(|t| / dt_step)."""

    kind = "trotter"

    def __init__(self, ham, dt_step: float, scheme=None, reverse_groups: bool = False):
        self.ham = ham
        self.dt_step = float(dt_step)
        self.scheme = scheme if scheme is not None else triangle_scheme(ham.lattice)
        self.reverse_groups = reverse_groups

    def gates(self, t: float):
        if t == 0:
            return []
        m = max(1, int(np.ceil(abs(t) / self.dt_step - 1e-12)))
        return step_unitaries(self.scheme, self.ham, t / m, self.reverse_groups) * m

    def apply(self, state: StateVector, t: float) -> StateVector:
        return apply_circuit(state, self.gates(t))


class FloquetEvolver:
    """W(t) = F_t, a single triangle-by-triangle step of size t."""

    kind = "floquet"

    def __init__(self, ham, reverse_groups: bool = False):
        self.ham = ham
        self.reverse_groups = reverse_groups

    def gates(self, t: float):
        return [] if t == 0 else floquet_step_gates(self.ham, t, self.reverse_groups)

    def apply(self, state: StateVector, t: float) -> StateVector:
        return apply_circuit(state, self.gates(t))


def make_evolver(kind: str, ham, dt_step: float | None = None,
                 reverse_groups: bool = False):
    if kind == "exact":
        return ExactEvolver(ham)
    if kind == "trotter":
        if dt_step is None:
            raise ValueError("trotter evolver needs dt_step")
        return TrotterEvolver(ham, dt_step, reverse_groups=reverse_groups)
    if kind == "floquet":
        return FloquetEvolver(ham, reverse_groups)
    raise ValueError(f"unknown evolver kind {kind!r}")


# -- plans and estimates --------------------------------------------------------

@dataclass(frozen=True)
class ShotPlan:
    total: int
    fractions: tuple[float, float, float] = (0.4, 0.3, 0.3)
    twirl_fraction: float = 0.5

    def __post_init__(self):
        if self.total < 1:
            raise ValueError("total shots must be >= 1")
        if any(f < 0 for f in self.fractions) or abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must be nonnegative and sum to 1")
        if not 0.0 <= self.twirl_fraction <= 1.0:
            raise ValueError("twirl fraction must lie in [0, 1]")

    def allocate(self) -> tuple[int, int, int]:
        raw = [f * self.total for f in self.fractions]
        counts = [int(np.floor(r)) for r in raw]
        rem = self.total - sum(counts)
        order = np.argsort([c - r for c, r in zip(counts, raw)])
        for i in range(rem):
            counts[order[i]] += 1
        return tuple(counts)


@dataclass
class OverlapEstimate:
    value: complex | None
    magnitude_source: str
    fractions: tuple[float, float, float]
    shots: tuple[int, int, int]
    discards: tuple[int, int, int]
    flags: tuple[str, ...] = ()


# -- exact mirrored states -------------------------------------------------------

def _preparations(psi0_prep: PrepCircuit):
    u_r = reference_superposition(psi0_prep, 1)
    u_ri = reference_superposition(psi0_prep, 1j)
    return psi0_prep, u_r, u_ri


def mirror_states(psi0_prep: PrepCircuit, evolver, t: float,
                  twirl_gates=None) -> tuple[StateVector, StateVector, StateVector]:
    """The three mirrored states |0(t)>, |0_R(t)>, |0_Ri(t)>."""
    u0, u_r, u_ri = _preparations(psi0_prep)
    out = []
    for prep, inv in ((u0, u0), (u_r, u_r), (u_r, u_ri)):
        state = evolver.apply(prep.state(), t)
        if twirl_gates:
            state = apply_circuit(state, twirl_gates)
        out.append(apply_circuit(state, invert(inv).gates))
    return tuple(out)


def exact_fractions(psi0_prep: PrepCircuit, evolver, t: float):
    """Noiseless all-zero probabilities (F1, F2, F3)."""
    return tuple(float(np.abs(s.amplitudes[0]) ** 2)
                 for s in mirror_states(psi0_prep, evolver, t))


def exact_overlap(psi0_state: StateVector, evolver, t: float) -> complex:
    """Direct inner-product oracle <psi0| W(t) |psi0>."""
    return inner(psi0_state, evolver.apply(psi0_state, t))


# -- reconstruction ---------------------------------------------------------------

def reconstruct(f1: float, f2: float, f3: float, e_ref: float, t: float,
                magnitude_source: str = "f1_sqrt"):
    """Complex overlap from the three fractions; returns (value, flags)."""
    if magnitude_source not in ("f1_sqrt", "eq19"):
        raise ValueError("magnitude_source must be 'f1_sqrt' or 'eq19'")
    raw = (2.0 * f2 + 2.0j * f3 - (f1 + 1.0) * (1.0 + 1.0j) / 2.0) * np.exp(-1j * e_ref * t)
    flags: tuple[str, ...] = ()
    if magnitude_source == "eq19":
        return complex(raw), flags
    if abs(raw) < 1e-300:
        flags = ("phase_degenerate",)
        return complex(np.sqrt(max(f1, 0.0))), flags
    return complex(np.sqrt(max(f1, 0.0)) * np.exp(1j * np.angle(raw))), flags


# -- sampled estimation -------------------------------------------------------------

def _circuit_gates(prep, inv_prep, evolver, t, twirled, twirl_angle, n):
    gates = list(prep.gates)
    evo = evolver.gates(t)
    if evo is None:
        raise ValueError("gate-based evolver required (exact evolution has no layers)")
    gates += evo
    if twirled:
        gates += twirl_layer(n, twirl_angle,
                             superposition_role=prep.role != "psi0")
    gates += invert(inv_prep).gates
    return gates


def _sample_circuit(prep, inv_prep, evolver, t, shots, twirled, noise, seed, stream):
    """Sample basis indices from one mirrored circuit, optionally noisy."""
    n = prep.n_sites
    if noise is not None and noise.active:
        gates = _circuit_gates(prep, inv_prep, evolver, t, twirled,
                               noise.twirl_angle, n)
        samples = np.empty(shots, dtype=np.int64)
        for j in range(shots):
            rng = rng_stream(seed, *stream, j)
            state = noisy_apply(zero_state(n), gates, noise, rng)
            probs = np.abs(state.amplitudes) ** 2
            cdf = np.cumsum(probs)
            samples[j] = np.searchsorted(cdf / cdf[-1], rng.random(), side="right")
        return samples
    state = evolver.apply(prep.state(), t)
    if twirled:
        angle = noise.twirl_angle if noise is not None else np.pi / 2
        state = apply_circuit(state, twirl_layer(n, angle,
                                                 superposition_role=prep.role != "psi0"))
    state = apply_circuit(state, invert(inv_prep).gates)
    return sample_bitstrings(state, shots, seed, tuple(stream))


def estimate_overlap(psi0_prep: PrepCircuit, evolver, ham, t: float,
                     plan: ShotPlan, seed: int, stream=(0,),
                     noise: NoiseSpec | None = None,
                     magnitude_source: str = "f1_sqrt") -> OverlapEstimate:
    """Sample the three mirrored circuits and reconstruct the overlap.

    ``stream`` is a tuple of integers naming this estimation cell (time
    index, realization, ...); all randomness is a pure function of
    (seed, stream, circuit, shot), so cells can run in any order.
    """
    m_counts = plan.allocate()
    twirl_on = noise is not None and noise.enable_twirl
    u0, u_r, u_ri = _preparations(psi0_prep)
    circuits = ((u0, u0), (u_r, u_r), (u_r, u_ri))
    fractions = [float("nan")] * 3
    discards = [0, 0, 0]
    flags: list[str] = []
    for i, ((prep, inv), m_i) in enumerate(zip(circuits, m_counts)):
        if m_i == 0:
            continue
        pools = []
        n_twirled = int(round(m_i * plan.twirl_fraction)) if twirl_on else 0
        if m_i - n_twirled > 0:
            pools.append(_sample_circuit(prep, inv, evolver, t, m_i - n_twirled,
                                         False, noise, seed, (*stream, i, 0)))
        if n_twirled > 0:
            pools.append(_sample_circuit(prep, inv, evolver, t, n_twirled,
                                         True, noise, seed, (*stream, i, 1)))
        samples = np.concatenate(pools)
        if i == 0 and noise is not None and noise.enable_postselect:
            samples, discards[0] = postselect_f1(samples, psi0_prep.dimer_pairs,
                                                 psi0_prep.n_sites)
            if len(samples) == 0:
                flags.append("all_shots_discarded")
                continue
        fractions[i] = all_zero_fraction(samples)

    f1, f2, f3 = fractions
    if np.isnan(f1):
        return OverlapEstimate(None, magnitude_source, tuple(fractions),
                               m_counts, tuple(discards),
                               tuple(flags) + ("magnitude_unavailable",))
    if np.isnan(f2) or np.isnan(f3):
        value = complex(np.sqrt(max(f1, 0.0)))
        return OverlapEstimate(value, magnitude_source, tuple(fractions),
                               m_counts, tuple(discards),
                               tuple(flags) + ("phase_unavailable",))
    value, rec_flags = reconstruct(f1, f2, f3, ham.reference_energy(), t,
                                   magnitude_source)
    return OverlapEstimate(value, magnitude_source, tuple(fractions), m_counts,
                           tuple(discards), tuple(flags) + rec_flags)


# -- series builders ----------------------------------------------------------------

def overlap_series_exact(psi0_state: StateVector, evolver, dt: float,
                         kmax: int) -> krylov.OverlapSeries:
    """Series of direct inner products; Floquet evolvers fill both directions."""
    def direction(sign: int) -> np.ndarray:
        return np.array([1.0 + 0.0j] + [exact_overlap(psi0_state, evolver, k * dt)
                                        for k in range(sign, sign * (kmax + 1), sign)])

    if evolver.kind == "floquet":
        return krylov.OverlapSeries(dt, direction(1), direction(-1), "exact", "floquet")
    return krylov.OverlapSeries(dt, direction(1), None, "exact", "unitary")


def overlap_series_mirror_exact(psi0_prep: PrepCircuit, evolver, ham, dt: float,
                                kmax: int,
                                magnitude_source: str = "f1_sqrt") -> krylov.OverlapSeries:
    """Series reconstructed from exact F1/F2/F3 (no sampling)."""
    e_ref = ham.reference_energy()
    values = [1.0 + 0.0j]
    for k in range(1, kmax + 1):
        f1, f2, f3 = exact_fractions(psi0_prep, evolver, k * dt)
        values.append(reconstruct(f1, f2, f3, e_ref, k * dt, magnitude_source)[0])
    return krylov.OverlapSeries(dt, np.array(values), None, "exact_mirror", "unitary")


def overlap_series_sampled(psi0_prep: PrepCircuit, evolver, ham, dt: float,
                           kmax: int, plan: ShotPlan, seed: int,
                           noise: NoiseSpec | None = None, realization: int = 0,
                           magnitude_source: str = "f1_sqrt"):
    """Sampled series; returns (OverlapSeries, per-step OverlapEstimate list).

    For Floquet evolvers the negative-direction values are sampled from the
    reversed-step circuits under the same plan.
    """
    def direction(sign: int) -> list[OverlapEstimate]:
        out = []
        for k in range(sign, sign * (kmax + 1), sign):
            est = estimate_overlap(psi0_prep, evolver, ham, k * dt, plan, seed,
                                   stream=(realization, k), noise=noise,
                                   magnitude_source=magnitude_source)
            if est.value is None:
                raise EstimateUndefined(f"estimate undefined at step {k}: {est.flags}")
            out.append(est)
        return out

    estimates = direction(1)
    values = [1.0 + 0.0j] + [est.value for est in estimates]
    neg = None
    if evolver.kind == "floquet":
        neg = np.array([1.0 + 0.0j] + [est.value for est in direction(-1)])
    provenance = (f"noisy(p={noise.p_pauli:g}, M={plan.total}, seed={seed})"
                  if noise is not None and noise.active
                  else f"sampled(M={plan.total}, seed={seed})")
    kind = "floquet" if evolver.kind == "floquet" else "unitary"
    return krylov.OverlapSeries(dt, np.array(values), neg, provenance, kind), estimates


# -- shot-budget studies ---------------------------------------------------------------

def allocation_study(psi0_prep: PrepCircuit, ham, times, m_totals, f1_grid,
                     n_realizations: int, seed: int,
                     evolver=None):
    """Typical overlap error per (shot budget, F1 fraction, magnitude mode).

    The estimator error O_m - O is zero-mean up to the sqrt(F1) bias, so its
    standard deviation over all (time, realization) cells is the RMS of
    |O - O_m|; that is the typical error reported, along with its spread
    over per-time batches.
    """
    if evolver is None:
        evolver = ExactEvolver(ham)
    e_ref = ham.reference_energy()
    cells = []
    for t in times:
        f_exact = exact_fractions(psi0_prep, evolver, t)
        o_exact = exact_overlap(psi0_prep.state(), evolver, t)
        cells.append((t, f_exact, o_exact))
    rows = []
    for m_total in m_totals:
        for f1_frac in f1_grid:
            rest = (1.0 - f1_frac) / 2.0
            plan = ShotPlan(m_total, (f1_frac, rest, rest), 0.0)
            m1, m2, m3 = plan.allocate()
            errs = {"f1_sqrt": [], "eq19": []}
            for it, (t, (p1, p2, p3), o_exact) in enumerate(cells):
                for r in range(n_realizations):
                    rng = rng_stream(seed, it, r, int(m_total), int(round(f1_frac * 1000)))
                    f1 = rng.binomial(m1, p1) / m1 if m1 else np.nan
                    f2 = rng.binomial(m2, p2) / m2 if m2 else np.nan
                    f3 = rng.binomial(m3, p3) / m3 if m3 else np.nan
                    for mode in ("f1_sqrt", "eq19"):
                        o_m, _ = reconstruct(f1, f2, f3, e_ref, t, mode)
                        errs[mode].append(abs(o_m - o_exact) ** 2)
            for mode, e in errs.items():
                e = np.array(e)
                batches = e.reshape(len(cells), n_realizations)
                batch_rms = np.sqrt(np.mean(batches, axis=1))
                rows.append({
                    "m_total": int(m_total),
                    "f1_fraction": float(f1_frac),
                    "mode": mode,
                    "typical_error": float(np.sqrt(np.mean(e))),
                    "error_spread": float(np.std(batch_rms)),
                })
    return rows


MITIGATION_MODES = ("none", "postselect", "twirl", "both")


def _noise_with_toggles(base: NoiseSpec, mode: str) -> NoiseSpec:
    return NoiseSpec(
        p_pauli=base.p_pauli,
        enable_postselect=mode in ("postselect", "both"),
        enable_twirl=mode in ("twirl", "both"),
        twirl_angle=base.twirl_angle,
        seed=base.seed,
        paulis=base.paulis,
    )


def mitigation_ablation(psi0_prep: PrepCircuit, ham, dt: float, kmax: int,
                        plan: ShotPlan, noise: NoiseSpec, seed: int,
                        magnitude_source: str = "f1_sqrt"):
    """Per-step estimation error with each mitigation combination.

    Uses the single-step evolver (the hardware-style circuit) and compares
    noisy sampled fractions and overlaps against the noiseless exact values.
    Returns rows (t, mode, f1_err, f2_err, f3_err, overlap_err).
    """
    evolver = FloquetEvolver(ham)
    rows = []
    for k in range(1, kmax + 1):
        t = k * dt
        exact_f = exact_fractions(psi0_prep, evolver, t)
        o_exact = exact_overlap(psi0_prep.state(), evolver, t)
        for mode in MITIGATION_MODES:
            spec = _noise_with_toggles(noise, mode)
            est = estimate_overlap(psi0_prep, evolver, ham, t, plan, seed,
                                   stream=(k, MITIGATION_MODES.index(mode)),
                                   noise=spec, magnitude_source=magnitude_source)
            f_errs = [abs(f - fx) if not np.isnan(f) else float("nan")
                      for f, fx in zip(est.fractions, exact_f)]
            o_err = float("nan") if est.value is None else abs(est.value - o_exact)
            rows.append((t, mode, *f_errs, o_err))
    return rows


def shot_noise_reference(psi0_prep: PrepCircuit, evolver, ham, dt: float,
                         kmax: int, plan: ShotPlan, seed: int,
                         n_realizations: int = 100,
                         magnitude_source: str = "f1_sqrt"):
    """Per-step std of the noiseless sampled estimate over realizations."""
    e_ref = ham.reference_energy()
    m1, m2, m3 = plan.allocate()
    sigmas = []
    for k in range(1, kmax + 1):
        p1, p2, p3 = exact_fractions(psi0_prep, evolver, k * dt)
        o_exact = exact_overlap(psi0_prep.state(), evolver, k * dt)
        errors = []
        for r in range(n_realizations):
            rng = rng_stream(seed, k, r)
            f1 = rng.binomial(m1, p1) / m1
            f2 = rng.binomial(m2, p2) / m2
            f3 = rng.binomial(m3, p3) / m3
            o_m, _ = reconstruct(f1, f2, f3, e_ref, k * dt, magnitude_source)
            errors.append(abs(o_m - o_exact))
        sigmas.append(float(np.std(errors)))
    return np.array(sigmas)


# -- CSV surface ------------------------------------------------------------------------

def write_overlap_csv(path, dt, series_values, estimates=None, mode="exact") -> None:
    """``k,t,re,im,F1,F2,F3,discarded1,discarded2,discarded3,mode`` rows."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "t", "re", "im", "F1", "F2", "F3",
                         "discarded1", "discarded2", "discarded3", "mode"])
        for k, v in enumerate(series_values):
            if estimates is not None and k >= 1:
                est = estimates[k - 1]
                fr = ["" if np.isnan(x) else f"{x:.9f}" for x in est.fractions]
                dc = list(est.discards)
            else:
                fr, dc = ["", "", ""], ["", "", ""]
            writer.writerow([k, f"{k * dt:.9f}", f"{v.real:.12e}", f"{v.imag:.12e}",
                             *fr, *dc, mode])


def write_allocation_csv(path, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["m_total", "f1_fraction", "mode", "typical_error",
                         "error_spread"])
        for r in rows:
            writer.writerow([r["m_total"], f"{r['f1_fraction']:.4f}", r["mode"],
                             f"{r['typical_error']:.9e}", f"{r['error_spread']:.9e}"])
