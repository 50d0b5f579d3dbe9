"""Mirror-circuit estimation of O(t) = <psi0| W(t) |psi0>.

Three circuits are sampled in the computational basis and only the all-zero
probability is kept:

  F1 from U0^dag W U0 |0..0>            -> |O|^2
  F2 from U_R^dag W U_R |0..0>          -> (r^2 + 1 + 2 r cos(theta + E_R t))/4
  F3 from U_Ri^dag W U_R |0..0>         -> (r^2 + 1 + 2 r sin(theta + E_R t))/4

with O = r e^{i theta} and E_R the analytic reference-state energy.  The
complex overlap is recovered as
  O = [2 F2 + 2i F3 - (F1 + 1)(i + 1)/2] e^{-i E_R t},
optionally replacing the magnitude by sqrt(F1).  W(t) is exp(-i H t)
(``ExactEvolver``) or m gate steps of t/m (``GateEvolver``: Trotter, or the
single Floquet step F_t); ``_MirrorCircuits`` builds what one time needs once.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import krylov
from .noise import NoiseSpec, noisy_apply, postselect_f1, twirl_angle, twirl_layer
from .prep import PrepCircuit, invert, reference_superposition
from .statevec import (
    _stream_opener,
    all_zero_fraction,
    apply_circuit,
    apply_gate_amps,
    rng_stream,
    sample_bitstrings,
    sampling_cdf,
    stream_uniforms,
    zero_amps,
)
from .trotter import step_unitaries, triangle_scheme


class EstimateUndefined(RuntimeError):
    """Raised when an estimation cell produces no usable value (for example
    when post-selection discards every shot)."""


# -- evolvers -----------------------------------------------------------------

class ExactEvolver:
    """W(t) = exp(-i H t) via the sector eigendecomposition."""

    kind = "exact"

    def __init__(self, ham):
        self.ham = ham

    def apply(self, amps: np.ndarray, t: float) -> np.ndarray:
        return self.ham.evolve(amps, t)

    def gates(self, t: float):
        return None


class GateEvolver:
    """W(t) = m first-order triangle-by-triangle steps of size t/m, with
    m = ceil(|t| / dt_step); without ``dt_step``, m = 1 and W(t) is the
    single step F_t."""

    def __init__(self, ham, dt_step: float | None = None, reverse_groups: bool = False):
        self.ham = ham
        self.dt_step = None if dt_step is None else float(dt_step)
        self.kind = "floquet" if dt_step is None else "trotter"
        self.scheme = triangle_scheme(ham.lattice)
        self.reverse_groups = reverse_groups

    def gates(self, t: float):
        if t == 0:
            return []
        m = 1 if self.dt_step is None else max(1, int(np.ceil(abs(t) / self.dt_step - 1e-12)))
        return step_unitaries(self.scheme, self.ham, t / m, self.reverse_groups) * m

    def apply(self, amps: np.ndarray, t: float) -> np.ndarray:
        return apply_circuit(amps, self.gates(t))


def make_evolver(kind: str, ham, dt_step: float | None = None,
                 reverse_groups: bool = False):
    if kind == "exact":
        return ExactEvolver(ham)
    if kind == "trotter":
        if dt_step is None:
            raise ValueError("trotter evolver needs dt_step")
        return GateEvolver(ham, dt_step, reverse_groups=reverse_groups)
    if kind == "floquet":
        return GateEvolver(ham, reverse_groups=reverse_groups)
    raise ValueError(f"unknown evolver kind {kind!r}")


# -- plans and estimates --------------------------------------------------------

@dataclass(frozen=True)
class ShotPlan:
    total: int = 1000
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
    fractions: tuple[float, float, float]
    discards: tuple[int, int, int]
    flags: tuple[str, ...] = ()


# -- the three mirror circuits ----------------------------------------------------

@dataclass(frozen=True)
class _NoiselessPass:
    """One circuit's gates applied once without errors.  An error slot is
    one site of a gate with two or more sites, in gate order.

    The state before gate k depends only on gates[:k], so two passes whose
    gate lists start with the same run of ``GateOp`` objects (compared by
    identity) hold the same prefix arrays over that run: a pass built from a
    ``base`` shares them instead of applying those gates again.
    """

    gates: list
    prefix: list  # the amplitudes before each gate
    before: list  # the slot count before each gate
    owner: np.ndarray  # the gate index of each slot
    cdf: np.ndarray  # the sampling CDF of the final state


def _shared_run(a: list, b: list) -> int:
    """The length of the leading run of identical objects of a and b."""
    run = 0
    for x, y in zip(a, b):
        if x is not y:
            break
        run += 1
    return run


def _noiseless_pass(gates: list, n: int, base: _NoiselessPass | None) -> _NoiselessPass:
    """The pass of ``gates`` from |0..0>, reusing the prefix arrays of ``base``
    over the leading gates the two lists share."""
    prefix, amps = [], zero_amps(n)
    if base is not None and base.prefix:
        start = min(_shared_run(gates, base.gates), len(base.prefix) - 1)
        prefix, amps = base.prefix[:start], base.prefix[start]
    for g in gates[len(prefix):]:
        prefix.append(amps)
        amps = apply_gate_amps(amps, g)
    before, owner = [], []
    for gi, g in enumerate(gates):
        before.append(len(owner))
        if len(g.sites) >= 2:
            owner += [gi] * len(g.sites)
    return _NoiselessPass(gates, prefix, before, np.array(owner, dtype=np.int64),
                          sampling_cdf(amps))


class _MirrorCircuits:
    """F1, F2, F3 circuits of one psi0 preparation under one evolver.

    The preparations U0, U_R, U_Ri and their inverses are built once, and so
    is each twirl layer.  The noiseless starting states |u0>, |u_R> are
    prepared on first use, so callers that only run noisy trajectories never
    build them.  Everything else is built once per time, on first use, and
    held until the time changes, so every pool, mitigation mode and
    realization at that time shares it: the evolver's gate list, the evolved
    |u0> and |u_R>, the mirrored states and their sampling CDFs per twirl
    angle, and the noiseless pass of each (circuit, twirl angle).

    The circuits at one time share gate objects: F2 and F3 apply the same U_R
    preparation and evolution, the twirled F2 and F3 the same twirl layer
    after them, and a twirled pass equals its untwirled pass up to the layer.
    A new pass therefore starts from the already-built pass at that time whose
    gate list shares the longest leading run of identical ``GateOp`` objects,
    and holds that pass's prefix arrays rather than copies (``_NoiselessPass``).
    """

    def __init__(self, psi0_prep: PrepCircuit, evolver):
        u_r = reference_superposition(psi0_prep, 1)
        u_ri = reference_superposition(psi0_prep, 1j)
        self.n = psi0_prep.n_sites
        self.evolver = evolver
        self.preps = (psi0_prep, u_r, u_r)  # prepared state of F1, F2, F3
        self.inverses = tuple(invert(p).gates for p in (psi0_prep, u_r, u_ri))
        self.starts = None  # |u0>, |u_R>
        self._time, self._built = None, {}  # the current time and what is built at it
        self._twirls: dict[tuple[float, bool], list] = {}

    def _at(self, t: float, key: tuple, build):
        """``build()``, called once per time t and key."""
        if self._time != t:
            self._time, self._built = t, {}
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def _twirl(self, angle: float, superposition_role: bool) -> list:
        key = (angle, superposition_role)
        if key not in self._twirls:
            self._twirls[key] = twirl_layer(self.n, angle, superposition_role)
        return self._twirls[key]

    def gates(self, t: float):
        """The evolver's gate list at t; None for exact evolution."""
        return self._at(t, ("gates",), lambda: self.evolver.gates(t))

    def evolved(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """|u0> and |u_R> evolved to t."""
        if self.starts is None:
            self.starts = (self.preps[0].state(), self.preps[1].state())

        def build():
            gates = self.gates(t)
            return tuple(self.evolver.apply(s, t) if gates is None else apply_circuit(s, gates)
                         for s in self.starts)
        return self._at(t, ("evolved",), build)

    def states(self, t: float, twirl_angle: float | None = None) -> tuple:
        """The mirrored states of F1, F2, F3 at t, with the twirl layer
        after the evolution when ``twirl_angle`` is given.  F3 reuses the
        evolved |u_R> of F2."""
        def build():
            layer = [] if twirl_angle is None else self._twirl(twirl_angle, True)
            u0_t, ur_t = (apply_circuit(s, layer) for s in self.evolved(t))
            return tuple(apply_circuit(s, inv)
                         for s, inv in zip((u0_t, ur_t, ur_t), self.inverses))
        return self._at(t, ("states", twirl_angle), build)

    def cdf(self, i: int, t: float, twirl_angle: float | None) -> np.ndarray:
        """The sampling CDF of circuit i's mirrored state at t."""
        return self._at(t, ("cdf", i, twirl_angle),
                        lambda: sampling_cdf(self.states(t, twirl_angle)[i]))

    def noiseless_pass(self, i: int, t: float, twirl_angle: float | None) -> _NoiselessPass:
        """The noiseless pass of circuit i at t (with the twirl layer when
        ``twirl_angle`` is given)."""
        def build():
            evo = self.gates(t)
            if evo is None:
                raise ValueError("gate-based evolver required (exact evolution has no layers)")
            gates = list(self.preps[i].gates) + evo
            if twirl_angle is not None:
                gates += self._twirl(twirl_angle, i > 0)
            gates += self.inverses[i]
            passes = [p for p in self._built.values() if isinstance(p, _NoiselessPass)]
            base = max(passes, key=lambda p: _shared_run(gates, p.gates), default=None)
            return _noiseless_pass(gates, self.n, base)
        return self._at(t, ("pass", i, twirl_angle), build)


def _zero_probabilities(states) -> tuple[float, float, float]:
    return tuple(float(np.abs(s[0]) ** 2) for s in states)


def exact_overlap(psi0: np.ndarray, evolver, t: float) -> complex:
    """Direct inner-product oracle <psi0| W(t) |psi0>."""
    return complex(np.vdot(psi0, evolver.apply(psi0, t)))


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

def _sample_noisy(npass: _NoiselessPass, shots, noise, seed, stream):
    """One Pauli trajectory per shot, each on its own stream (*stream, shot).

    A shot's stream draws one uniform per error slot of ``npass``, each
    followed, when it falls below p, by one integer that picks the Pauli; then
    the uniform that samples the final state by inverse CDF.  The slot
    uniforms and one more of every shot are drawn as one block
    (``stream_uniforms``).  A shot whose slot uniforms all reach p draws
    nothing else, so its last uniform is its sample uniform; all such shots
    read the pass's noiseless CDF together.  A shot with an error reopens its
    stream (the block's Philox, re-keyed for the shot by ``_stream_opener``),
    redraws the slot uniforms before the erring gate and resumes
    ``noisy_apply`` from the pass's state before that gate.  Callers sample
    here only with p > 0, when every slot draws.
    """
    n_slots = len(npass.owner)
    open_stream = _stream_opener(seed, stream)
    u = stream_uniforms(open_stream, shots, n_slots + 1)
    hit = u[:, :n_slots] < noise.p_pauli
    samples = np.searchsorted(npass.cdf, u[:, n_slots], side="right")
    erring = np.flatnonzero(hit.any(axis=1))
    for j, slot in zip(erring, hit[erring].argmax(axis=1)):
        gi = npass.owner[slot]
        rng = open_stream(j)
        rng.random(npass.before[gi])
        state = noisy_apply(npass.prefix[gi], npass.gates[gi:], noise, rng)
        samples[j] = np.searchsorted(sampling_cdf(state), rng.random(), side="right")
    return samples


def _estimate_cell(circuits: _MirrorCircuits, ham, t, plan, seed, stream, noise,
                   magnitude_source) -> OverlapEstimate:
    """One estimation cell.  Noisy cells run one trajectory per shot;
    noiseless cells draw from the mirrored states' CDFs.  Pool 0 of each
    circuit runs without the twirl layer and pool 1 with it, and the shots
    of circuit i's pool p use the stream (*stream, i, p)."""
    angle = twirl_angle(noise)
    noisy = noise is not None and noise.p_pauli > 0
    fractions = [float("nan")] * 3
    discards = [0, 0, 0]
    flags: tuple[str, ...] = ()
    for i, m_i in enumerate(plan.allocate()):
        n_twirled = int(round(m_i * plan.twirl_fraction)) if angle is not None else 0
        parts = []
        for pool, shots in enumerate((m_i - n_twirled, n_twirled)):
            if shots == 0:
                continue
            key, pool_angle = (*stream, i, pool), angle if pool else None
            if noisy:
                npass = circuits.noiseless_pass(i, t, pool_angle)
                parts.append(_sample_noisy(npass, shots, noise, seed, key))
            else:
                parts.append(sample_bitstrings(circuits.cdf(i, t, pool_angle), shots, seed, key))
        if not parts:
            continue
        samples = np.concatenate(parts)
        if i == 0 and noise is not None and noise.enable_postselect:
            samples, discards[0] = postselect_f1(samples, circuits.preps[0].dimer_pairs,
                                                 circuits.n)
            if len(samples) == 0:
                flags += ("all_shots_discarded",)
                continue
        fractions[i] = all_zero_fraction(samples)

    f1, f2, f3 = fractions
    if np.isnan(f1):
        value, more = None, ("magnitude_unavailable",)
    elif np.isnan(f2) or np.isnan(f3):
        value, more = complex(np.sqrt(max(f1, 0.0))), ("phase_unavailable",)
    else:
        value, more = reconstruct(f1, f2, f3, ham.reference_energy(), t, magnitude_source)
    return OverlapEstimate(value, tuple(fractions), tuple(discards), flags + more)


# -- series builders ----------------------------------------------------------------

def overlap_series_exact(psi0: np.ndarray, evolver, dt: float,
                         kmax: int) -> krylov.OverlapSeries:
    """Series of direct inner products; Floquet evolvers fill both directions.
    The exact evolver sums the series from the sector spectra in one call."""
    if evolver.kind == "exact":
        values = evolver.ham.autocorrelation(psi0, np.arange(1, kmax + 1) * dt)
        return krylov.OverlapSeries(dt, np.concatenate([[1.0 + 0.0j], values]), None,
                                    "exact", "unitary")

    def direction(sign: int) -> np.ndarray:
        return np.array([1.0 + 0.0j] + [exact_overlap(psi0, evolver, k * dt)
                                        for k in range(sign, sign * (kmax + 1), sign)])

    if evolver.kind == "floquet":
        return krylov.OverlapSeries(dt, direction(1), direction(-1), "exact", "floquet")
    return krylov.OverlapSeries(dt, direction(1), None, "exact", "unitary")


def overlap_series_sampled(psi0_prep: PrepCircuit, evolver, ham, dt: float,
                           kmax: int, plan: ShotPlan, seed: int,
                           noise: NoiseSpec | None = None, realizations=(0,),
                           magnitude_source: str = "f1_sqrt"):
    """Sampled series, one ``(OverlapSeries, per-step OverlapEstimate list)``
    pair per entry of ``realizations``.

    Times run in the outer loop, so every realization r at a time draws from
    what the circuits build once at that time, on its own streams
    (r, k, circuit, pool).  For Floquet evolvers the negative-direction values
    are sampled from the reversed-step circuits under the same plan.
    """
    realizations = tuple(realizations)
    circuits = _MirrorCircuits(psi0_prep, evolver)
    noisy = noise is not None and noise.p_pauli > 0

    def direction(sign: int) -> list[list[OverlapEstimate]]:
        out: list[list[OverlapEstimate]] = [[] for _ in realizations]
        for k in range(sign, sign * (kmax + 1), sign):
            for r, estimates in zip(realizations, out):
                est = _estimate_cell(circuits, ham, k * dt, plan, seed, (r, k), noise,
                                     magnitude_source)
                if est.value is None:
                    raise EstimateUndefined(
                        f"estimate undefined at step {k} of realization {r}: {est.flags}")
                estimates.append(est)
        return out

    def values(estimates) -> np.ndarray:
        return np.array([1.0 + 0.0j] + [est.value for est in estimates])

    positive = direction(1)
    negative = direction(-1) if evolver.kind == "floquet" else [None] * len(realizations)
    provenance = (f"noisy(p={noise.p_pauli:g}, M={plan.total}, seed={seed})"
                  if noisy else f"sampled(M={plan.total}, seed={seed})")
    kind = "floquet" if evolver.kind == "floquet" else "unitary"
    return [(krylov.OverlapSeries(dt, values(pos), None if neg is None else values(neg),
                                  provenance, kind), pos)
            for pos, neg in zip(positive, negative)]


# -- shot-budget studies ---------------------------------------------------------------

def _binomial_overlaps(rng, counts, probs, e_ref, t, modes) -> list[complex]:
    """Draw F1, F2, F3 binomially in that order (nan for a circuit with no
    shots) and reconstruct the overlap in each magnitude mode."""
    f1, f2, f3 = (rng.binomial(m, p) / m if m else np.nan for m, p in zip(counts, probs))
    return [reconstruct(f1, f2, f3, e_ref, t, mode)[0] for mode in modes]


def _exact_cells(circuits: _MirrorCircuits, times):
    """(exact fractions, exact overlap) at each time, built as it is read;
    the overlap is <psi0|u0(t)> from the evolved |u0> the F1 state starts from."""
    for t in times:
        u0_t = circuits.evolved(t)[0]
        yield _zero_probabilities(circuits.states(t)), complex(np.vdot(circuits.starts[0], u0_t))


def allocation_plan(m_total: int, f1_frac: float) -> ShotPlan:
    """The plan of one allocation grid point: F1 gets f1_frac, F2 and F3 split the rest."""
    rest = (1.0 - f1_frac) / 2.0
    return ShotPlan(m_total, (f1_frac, rest, rest), 0.0)


def allocation_study(psi0_prep: PrepCircuit, ham, times, m_totals, f1_grid,
                     n_realizations: int, seed: int):
    """Typical overlap error per (shot budget, F1 fraction, magnitude mode).

    The estimator error O_m - O is zero-mean up to the sqrt(F1) bias, so its
    standard deviation over all (time, realization) cells is the RMS of
    |O - O_m|; that is the typical error reported, along with its spread
    over per-time batches.
    """
    e_ref = ham.reference_energy()
    cells = list(_exact_cells(_MirrorCircuits(psi0_prep, ExactEvolver(ham)), times))
    modes = ("f1_sqrt", "eq19")
    rows = []
    for m_total in m_totals:
        for f1_frac in f1_grid:
            counts = allocation_plan(m_total, f1_frac).allocate()
            errs = {mode: [] for mode in modes}
            for it, (t, (probs, o_exact)) in enumerate(zip(times, cells)):
                for r in range(n_realizations):
                    rng = rng_stream(seed, it, r, int(m_total), int(round(f1_frac * 1000)))
                    for mode, o_m in zip(modes, _binomial_overlaps(rng, counts, probs,
                                                                   e_ref, t, modes)):
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


def mitigation_ablation(psi0_prep: PrepCircuit, ham, dt: float, kmax: int,
                        plan: ShotPlan, noise: NoiseSpec, seed: int,
                        magnitude_source: str = "f1_sqrt"):
    """Per-step estimation error with each mitigation combination.

    Uses the single-step evolver (the hardware-style circuit) and compares
    noisy sampled fractions and overlaps against the noiseless exact values.
    Returns rows (t, mode, f1_err, f2_err, f3_err, overlap_err).
    """
    circuits = _MirrorCircuits(psi0_prep, GateEvolver(ham))
    times = [k * dt for k in range(1, kmax + 1)]
    rows = []
    for k, (t, (exact_f, o_exact)) in enumerate(zip(times, _exact_cells(circuits, times)), 1):
        for mode in MITIGATION_MODES:
            spec = replace(noise, enable_postselect=mode in ("postselect", "both"),
                           enable_twirl=mode in ("twirl", "both"))
            est = _estimate_cell(circuits, ham, t, plan, seed,
                                 (k, MITIGATION_MODES.index(mode)), spec, magnitude_source)
            f_errs = [abs(f - fx) if not np.isnan(f) else float("nan")
                      for f, fx in zip(est.fractions, exact_f)]
            o_err = float("nan") if est.value is None else abs(est.value - o_exact)
            rows.append((t, mode, *f_errs, o_err))
    return rows


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
