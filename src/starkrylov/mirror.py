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
single Floquet step F_t).  Either W conserves S^z and has |0..0> as an
eigenstate, so the noiseless fractions are ``mirror_fractions`` of O(t), the
forward model above.  A circuit keeps one statistic, the number of shots
that read |0..0>.  A noiseless circuit draws it as one binomial at its
fraction (``noiseless_fractions``).  Under noise, an error-free shot counts
by its sample uniform against the fraction (``_noisy_pool``), and only the
shots that draw a Pauli error run a circuit (``_evolve_passes``).
Series, allocation and ablation results are returned as values; ``cli``
writes them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import krylov
from .noise import PAULI_NAMES, NoiseSpec, postselect_f1, twirl_angle, twirl_layer
from .prep import PrepCircuit, invert, reference_superposition
from .statevec import (
    _StreamOpener,
    apply_circuit,
    apply_gate_amps,
    pauli_gate,
    sample_bitstrings,
    sampling_cdf,
    zero_amps,
)
from .trotter import step_unitaries, triangle_scheme


class EstimateUndefined(RuntimeError):
    """Raised when an estimation cell produces no usable value (for example
    when post-selection discards every shot)."""


# -- evolvers -----------------------------------------------------------------

class ExactEvolver:
    """W(t) = exp(-i H t) via the sector eigendecomposition; it has no gates."""

    kind = "exact"

    def __init__(self, ham):
        self.ham = ham


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
        if not 1 <= self.total <= 2 ** 53:  # ``allocate`` holds the total exactly as a float
            raise ValueError("total shots must lie in [1, 2**53]")
        if any(f < 0 for f in self.fractions) or abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must be nonnegative and sum to 1")
        if not 0.0 <= self.twirl_fraction <= 1.0:
            raise ValueError("twirl fraction must lie in [0, 1]")
        self.allocate()  # a sum within 1e-9 of 1 can still miss a large total

    def allocate(self) -> tuple[int, int, int]:
        raw = [f * self.total for f in self.fractions]
        counts = [int(np.floor(r)) for r in raw]
        rem = self.total - sum(counts)
        if not 0 <= rem <= len(counts):
            raise ValueError(f"fractions cannot split {self.total} shots: the floors of "
                             f"their shares leave {rem} to hand out, not 0 to 3")
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

def _shared_run(a: list, b: list) -> int:
    """The length of the leading run of identical objects of a and b."""
    run = 0
    for x, y in zip(a, b):
        if x is not y:
            break
        run += 1
    return run


class _MirrorCircuits:
    """F1, F2, F3 circuits of one psi0 preparation under one evolver.

    The preparations U0, U_R, U_Ri and their inverses are built once, and so
    is the twirl layer of each angle; ``pass_gates`` puts them around the
    gate list of one time.  The circuits hold nothing per time: each
    ``_estimate_cells`` call builds its time's passes.

    The gate lists of the passes share gate objects: F2 and F3 apply the
    same U_R preparation and evolution, the twirled F2 and F3 the same twirl
    layer after them, and a twirled pass equals its untwirled pass up to the
    layer.  ``_evolve_passes`` applies each leading run of identical gate
    objects once for all the passes that share it.
    """

    def __init__(self, psi0_prep: PrepCircuit, evolver):
        u_r = reference_superposition(psi0_prep, 1)
        u_ri = reference_superposition(psi0_prep, 1j)
        self.n = psi0_prep.n_sites
        self.evolver = evolver
        self.preps = (psi0_prep, u_r, u_r)  # prepared state of F1, F2, F3
        self.inverses = tuple(invert(p).gates for p in (psi0_prep, u_r, u_ri))
        self._twirls: dict[float, list] = {}

    def _twirl(self, angle: float) -> list:
        """The twirl layer of ``angle``, checked for the reference branch (one
        down spin per dimer): F2 and F3 carry it, and F1 shares the layer."""
        if angle not in self._twirls:
            self._twirls[angle] = twirl_layer(self.n, angle, len(self.preps[0].dimer_pairs))
        return self._twirls[angle]

    def pass_gates(self, i: int, evolution: list, twirl_angle: float | None) -> list:
        """The gates of circuit i from |0..0> around ``evolution``, the
        evolver's gate list of one time, with the twirl layer after it when
        ``twirl_angle`` is given."""
        gates = list(self.preps[i].gates) + evolution
        if twirl_angle is not None:
            gates += self._twirl(twirl_angle)
        return gates + list(self.inverses[i])


# -- reconstruction ---------------------------------------------------------------

def mirror_fractions(value, e_ref: float, t):
    """The noiseless (F1, F2, F3) of the overlap ``value`` at time t: the
    forward model that ``reconstruct`` inverts."""
    ref = np.exp(-1j * e_ref * t)
    return np.abs(value) ** 2, np.abs(value + ref) ** 2 / 4, np.abs(ref - 1j * value) ** 2 / 4


def noiseless_fractions(rng, counts, probs, size=()) -> list:
    """The noiseless (F1, F2, F3) of circuits of ``counts`` shots: circuit i's
    zero count is one ``binomial(counts[i], probs[i])`` of shape ``size``,
    drawn in circuit order from ``rng``, with p_i, ``mirror_fractions``,
    clipped to [0, 1] against rounding; nan for a circuit with no shots."""
    return [rng.binomial(m, np.clip(p, 0.0, 1.0), size) / m if m else np.full(size, np.nan)
            for m, p in zip(counts, probs)]


def reconstruct(f1, f2, f3, e_ref: float, t, magnitude_source: str = "f1_sqrt"):
    """Complex overlaps from the three fractions, element by element (scalars
    are 0-d), and the mask of f1_sqrt values whose raw value is 0: they keep
    the magnitude and have no phase.  Real products, with each part set on
    its own, give every value the bits of the one complex expression."""
    if magnitude_source not in ("f1_sqrt", "eq19"):
        raise ValueError("magnitude_source must be 'f1_sqrt' or 'eq19'")
    half = (f1 + 1.0) / 2.0
    a, b = 2.0 * f2 - half, 2.0 * f3 - half
    ref = np.exp(-1j * e_ref * t)
    re, im = a * ref.real - b * ref.imag, a * ref.imag + b * ref.real
    degenerate = (np.hypot(re, im) < 1e-300) & (magnitude_source == "f1_sqrt")
    if magnitude_source == "f1_sqrt":
        mag = np.sqrt(np.maximum(f1, 0.0))
        unit = np.exp(1j * np.arctan2(im, re))
        re = np.where(degenerate, mag, mag * unit.real - 0.0 * unit.imag)
        im = np.where(degenerate, 0.0, mag * unit.imag + 0.0 * unit.real)
    values = np.empty(np.shape(re), dtype=complex)
    values.real, values.imag = re, im
    return values, degenerate


# -- sampled estimation -------------------------------------------------------------

class _Pass:
    """The gates of one circuit at one time, with or without the twirl layer.
    An error slot is one site of a gate with two or more sites, in gate
    order; ``slots`` holds the (gate index, site) of each."""

    def __init__(self, gates: list):
        self.gates = gates
        self.slots = [(gi, q) for gi, g in enumerate(gates) if len(g.sites) >= 2
                      for q in g.sites]


@dataclass(eq=False)
class _ErringShot:
    """A shot with an error: its pass, its errors as (gate index, site, Pauli
    name) in stream order, the uniform that samples its final state, and its
    sample, set by ``_evolve_passes``."""

    npass: _Pass
    errors: list
    uniform: float
    sample: int = -1


def _replay_errors(slots: list, streams, stream: tuple, first: int, p: float):
    """The errors and the sample uniform of the shot on ``stream`` whose first
    slot uniform below p is that of slot ``first``.

    The shot's draws are replayed from its reopened stream in the order of the
    stream contract (``noise``), with block draws: the slot uniforms up to a
    hit as one ``random(k)``, then the hit's ``integers(3)``.  After each hit
    one block draws the remaining slot uniforms and the sample uniform.  When
    that block shows another hit, its draws past that hit are void: the
    generator goes back to the Philox state it saved after the last hit and
    draws up to the new hit.
    """
    rng = streams(stream)
    rng.random(first + 1)
    hits, picks = [first], [int(rng.integers(len(PAULI_NAMES)))]
    while True:
        saved = rng.bit_generator.state
        done = hits[-1] + 1
        rest = rng.random(len(slots) - done + 1)
        more = np.flatnonzero(rest[:-1] < p)
        if len(more) == 0:
            return [(*slots[h], PAULI_NAMES[k]) for h, k in zip(hits, picks)], float(rest[-1])
        rng.bit_generator.state = saved
        rng.random(more[0] + 1)
        hits.append(done + int(more[0]))
        picks.append(int(rng.integers(len(PAULI_NAMES))))


# the most bytes one block of a pool's slot uniforms, or one batch of rows,
# holds; the erring shots run in waves that fit a batch (``_evolve_passes``)
_BATCH_BYTES = 1 << 21


def _noisy_pool(npass: _Pass, shots: int, p: float, p_zero: float, streams,
                stream: tuple) -> tuple[int, list]:
    """The noisy pool whose shot j runs one Pauli trajectory through ``npass``
    on the stream (*stream, j), as (zeros, erring shots).

    The slot uniforms and one more of every shot are drawn as one block
    (``_StreamOpener.uniforms``) per at most ``_BATCH_BYTES`` of them.  A shot
    whose slot uniforms all reach p draws nothing else, so its last uniform is
    its sample uniform: by inverse CDF it draws |0..0> exactly when that
    uniform lies below ``p_zero``, the noiseless all-zero probability, and
    ``zeros`` counts those shots.  A shot with a hit becomes an
    ``_ErringShot``, with its errors replayed from its stream
    (``_replay_errors``) and its sample left to ``_evolve_passes``.
    """
    n_slots = len(npass.slots)
    block = max(1, _BATCH_BYTES // (8 * (n_slots + 1)))
    zeros, erring = 0, []
    for start in range(0, shots, block):
        u = streams.uniforms(stream, min(block, shots - start), n_slots + 1, start)
        hit = u[:, :n_slots] < p
        erred = hit.any(axis=1)
        zeros += np.count_nonzero(u[~erred, n_slots] < p_zero)
        rows = np.flatnonzero(erred)
        erring += [_ErringShot(npass, *_replay_errors(npass.slots, streams,
                                                      (*stream, start + j), first, p))
                   for j, first in zip(rows, hit[rows].argmax(axis=1))]
    return zeros, erring


def _evolve_passes(shots: list, n: int) -> None:
    """Evolve the erring ``shots`` from |0..0> through their passes and set
    each shot's ``sample``.

    The rows of one (B, 2^n) batch are the noiseless state, row 0, and the
    erring shots that have joined it.  A shot joins at its first erring gate
    as a copy of row 0 after that gate, and each of its errors is a Pauli on
    its row after the error's gate.  Passes whose gate lists start with the
    same run of ``GateOp`` objects (compared by identity) share one batch, and
    so apply each gate of that run once, until their lists diverge.

    A batch holds at most ``_BATCH_BYTES`` (and at least two rows), so memory
    does not grow with the shot count: the shots, sorted by first erring
    gate, are split up front into waves that leave one row for the noiseless
    state, and each wave runs from |0..0> through the passes its shots run.
    """
    row = zero_amps(n)
    wave = max(2, _BATCH_BYTES // row.nbytes) - 1
    shots = sorted(shots, key=lambda shot: shot.errors[0][0])
    for first in range(0, len(shots), wave):
        group = shots[first:first + wave]
        _evolve_group(list(dict.fromkeys(shot.npass for shot in group)), 0, row[None], group)


def _evolve_group(passes: list, start: int, batch: np.ndarray, shots: list) -> None:
    """Evolve a group of ``passes`` that share their first ``start`` gates.

    ``shots`` are the group's erring shots, sorted by first erring gate;
    ``batch`` holds the state after those gates: row 0 noiseless, and row
    1 + k for each shot k that erred among them.
    """
    gates = passes[0].gates
    end = min(_shared_run(gates, npass.gates) for npass in passes)
    joined = len(batch) - 1
    errors: dict[int, list] = {}  # gate index -> (row, site, Pauli name) after it
    for row, shot in enumerate(shots, 1):
        for gi, q, name in shot.errors:
            errors.setdefault(gi, []).append((row, q, name))
    for gi in range(start, end):
        batch = apply_gate_amps(batch, gates[gi])
        joining = joined
        while joining < len(shots) and shots[joining].errors[0][0] == gi:
            joining += 1
        if joining > joined:
            batch = np.concatenate([batch, np.repeat(batch[:1], joining - joined, axis=0)])
            joined = joining
        for row, q, name in errors.get(gi, ()):
            batch[row] = apply_gate_amps(batch[row], pauli_gate(name, q))
    branches: dict[int, list] = {}  # the passes that go on, by their next gate
    for npass in passes:
        if len(npass.gates) > end:
            branches.setdefault(id(npass.gates[end]), []).append(npass)
    for row, shot in enumerate(shots, 1):
        if len(shot.npass.gates) == end:
            shot.sample = int(sample_bitstrings(sampling_cdf(batch[row]), shot.uniform))
    for group in branches.values():
        members = [k for k, shot in enumerate(shots) if shot.npass in group]
        _evolve_group(group, end, batch[[0] + [k + 1 for k in members if k < joined]],
                      [shots[k] for k in members])


def _estimate_cells(circuits: _MirrorCircuits, t, value, evolution: list | None, cells,
                    plan: ShotPlan, streams, magnitude_source="f1_sqrt") -> list[OverlapEstimate]:
    """The estimation cells at time t, one per (stream, noise) pair of
    ``cells``: a realization of a series step or a mitigation mode of an
    ablation step.  The plan's shot counts, E_R and each circuit's noiseless
    all-zero probability p_i = ``mirror_fractions`` of ``value`` = O(t),
    twirled or not (``twirl_layer`` admits no angle that moves it), are
    worked out once for all cells.  A noiseless cell (no noise, or p = 0)
    draws its zero counts from its stream (``noiseless_fractions``).  A noisy
    cell's circuit i runs pool 0 without the twirl layer and pool 1 with it,
    shot j from the stream (*stream, i, pool, j), and its error-free shots
    count against p_i (``_noisy_pool``).  Each pass, one per (circuit, twirl)
    that a noisy pool runs, is built once on ``evolution``, the gate list of
    W(t), and ``_evolve_passes`` runs the erring shots of every cell.
    """
    counts, e_ref = plan.allocate(), circuits.evolver.ham.reference_energy()
    probs = mirror_fractions(value, e_ref, t)
    passes: dict = {}  # (circuit, twirl angle) -> _Pass

    def npass(i, angle):
        if (i, angle) not in passes:
            passes[i, angle] = _Pass(circuits.pass_gates(i, evolution, angle))
        return passes[i, angle]

    erring: list[_ErringShot] = []
    drawn = []  # per cell: its noiseless fractions, or nan and its noisy circuits' counts
    for stream, noise in cells:
        angle = twirl_angle(noise)
        if angle is not None:
            circuits._twirl(angle)  # checked whether or not a circuit runs
        if noise is None or noise.p_pauli == 0:
            drawn.append((noiseless_fractions(streams(stream), counts, probs), ()))
            continue
        if circuits.evolver.kind == "exact":
            raise ValueError("gate-based evolver required (exact evolution has no error slots)")
        circuit_counts = []
        for i, m_i in enumerate(counts):
            n_twirled = int(round(m_i * plan.twirl_fraction)) if angle is not None else 0
            pools = [_noisy_pool(npass(i, angle if pool else None), shots, noise.p_pauli,
                                 probs[i], streams, (*stream, i, pool))
                     for pool, shots in enumerate((m_i - n_twirled, n_twirled)) if shots]
            circuit_counts.append((m_i, sum(zeros for zeros, _ in pools),
                                   [shot for _, shots in pools for shot in shots]))
            erring += circuit_counts[-1][2]
        drawn.append(([float("nan")] * 3, circuit_counts))
    _evolve_passes(erring, circuits.n)
    return [_cell_estimate(circuits, t, noise, e_ref, *cell, magnitude_source)
            for (_, noise), cell in zip(cells, drawn)]


def _cell_estimate(circuits: _MirrorCircuits, t, noise, e_ref: float, fractions,
                   circuit_counts, magnitude_source) -> OverlapEstimate:
    """The estimate of one cell from its ``fractions``: a noiseless cell's
    binomial ones, or nan where a noisy cell gives, per circuit, its shot
    count, its error-free shots that drew |0..0> and its erring shots
    (``_noisy_pool``).  Circuit i's fraction is then (zeros + erring shots
    with sample 0) / kept, and nan when it keeps no shot.  F1 under
    post-selection keeps every error-free shot (the noiseless F1 state has no
    amplitude on a discarded string) and drops the erring shots the rule
    discards.  E_R is the reference energy of the evolver's Hamiltonian."""
    fractions = [float(f) for f in fractions]
    discards = [0, 0, 0]
    flags: tuple[str, ...] = ()
    for i, (kept, zeros, erring) in enumerate(circuit_counts):
        if i == 0 and noise.enable_postselect and kept:
            samples = np.array([shot.sample for shot in erring], dtype=np.int64)
            discards[0] = postselect_f1(samples, circuits.preps[0].dimer_pairs, circuits.n)[1]
            kept -= discards[0]
            if kept == 0:
                flags += ("all_shots_discarded",)
        if kept:
            fractions[i] = (zeros + sum(shot.sample == 0 for shot in erring)) / kept

    f1, f2, f3 = fractions
    if np.isnan(f1):
        value, more = None, ("magnitude_unavailable",)
    elif np.isnan(f2) or np.isnan(f3):
        value, more = complex(np.sqrt(max(f1, 0.0))), ("phase_unavailable",)
    else:
        value, degenerate = reconstruct(f1, f2, f3, e_ref, t, magnitude_source)
        value, more = complex(value), ("phase_degenerate",) if degenerate else ()
    return OverlapEstimate(value, tuple(fractions), tuple(discards), flags + more)


# -- series builders ----------------------------------------------------------------

def exact_overlaps(psi0: np.ndarray, evolver, times) -> np.ndarray:
    """<psi0|W(t)|psi0> for every t in ``times``, with no circuit: the
    spectral sum for the exact evolver, psi0 evolved through each time's
    gates for a gate evolver."""
    if evolver.kind == "exact":
        return evolver.ham.autocorrelation(psi0, times)
    return np.array([value for value, _ in _forward_model(psi0, evolver, times)])


def _forward_model(psi0: np.ndarray, evolver, times):
    """(O(t), gate list of W(t)) per t in ``times``: one ``exact_overlaps``
    call and no gates for the exact evolver, else each time's gates, built
    once for its overlap and its noisy passes."""
    if evolver.kind == "exact":
        return zip(exact_overlaps(psi0, evolver, times), [None] * len(times))
    return ((np.vdot(psi0, apply_circuit(psi0, gates)), gates)
            for gates in map(evolver.gates, times))


def overlap_series_exact(psi0: np.ndarray, evolver, dt: float,
                         kmax: int) -> krylov.OverlapSeries:
    """Series of exact overlaps (``exact_overlaps``); Floquet evolvers fill
    both directions."""
    times = np.arange(1, kmax + 1) * dt
    values = {sign: np.concatenate([[1.0 + 0.0j], exact_overlaps(psi0, evolver, sign * times)])
              for sign in ((1, -1) if evolver.kind == "floquet" else (1,))}
    return krylov.OverlapSeries(dt, values[1], values.get(-1))


def overlap_series_sampled(psi0_prep: PrepCircuit, evolver, dt: float,
                           kmax: int, plan: ShotPlan, seed: int,
                           noise: NoiseSpec | None = None, realizations=(0,),
                           magnitude_source: str = "f1_sqrt"):
    """Sampled series, one ``(OverlapSeries, per-step OverlapEstimate list)``
    pair per entry of ``realizations``.

    Times run in the outer loop, and all realizations at a time are estimated
    together (``_estimate_cells``): each draws from what ``_forward_model``
    gives at that time, on its own streams (r, k, circuit, pool).  For Floquet
    evolvers the negative-direction values are sampled from the
    reversed-step circuits under the same plan.
    """
    realizations = tuple(realizations)
    circuits = _MirrorCircuits(psi0_prep, evolver)
    streams = _StreamOpener(seed)
    psi0 = psi0_prep.state()

    def direction(sign: int) -> list[list[OverlapEstimate]]:
        out: list[list[OverlapEstimate]] = [[] for _ in realizations]
        steps = range(sign, sign * (kmax + 1), sign)
        times = [k * dt for k in steps]
        for k, t, (value, evolution) in zip(steps, times,
                                            _forward_model(psi0, evolver, times)):
            cells = [((r, k), noise) for r in realizations]
            ests = _estimate_cells(circuits, t, value, evolution, cells, plan, streams,
                                   magnitude_source)
            for r, est, estimates in zip(realizations, ests, out):
                if est.value is None:
                    raise EstimateUndefined(
                        f"estimate undefined at step {k} of realization {r}: {est.flags}")
                estimates.append(est)
        return out

    def values(estimates) -> np.ndarray:
        return np.array([1.0 + 0.0j] + [est.value for est in estimates])

    positive = direction(1)
    negative = direction(-1) if evolver.kind == "floquet" else [None] * len(realizations)
    return [(krylov.OverlapSeries(dt, values(pos), None if neg is None else values(neg),
                                  sampled=True), pos)
            for pos, neg in zip(positive, negative)]


# -- shot-budget studies ---------------------------------------------------------------

def allocation_plan(m_total: int, f1_frac: float) -> ShotPlan:
    """The plan of one allocation grid point: F1 gets f1_frac, F2 and F3 split the rest."""
    rest = (1.0 - f1_frac) / 2.0
    return ShotPlan(m_total, (f1_frac, rest, rest), 0.0)


def allocation_study(psi0_prep: PrepCircuit, ham, times, m_totals, f1_grid,
                     n_realizations: int, seed: int):
    """Typical overlap error per (shot budget, F1 fraction, magnitude mode).

    Each point draws from its stream (m_total, round(1000 f1_fraction)) the
    F1, F2 and F3 fractions as (time, realization) arrays
    (``noiseless_fractions``).  The error O_m - O is zero-mean
    up to the sqrt(F1) bias, so the RMS of |O - O_m| over all cells is the
    typical error reported, with its spread over per-time batches.
    """
    e_ref = ham.reference_energy()
    streams = _StreamOpener(seed)
    times = np.asarray(times, dtype=float)
    values = exact_overlaps(psi0_prep.state(), ExactEvolver(ham), times)
    probs = mirror_fractions(values[:, None], e_ref, times[:, None])
    size = (len(times), n_realizations)
    rows = []
    for m_total in m_totals:
        for f1_frac in f1_grid:
            rng = streams((int(m_total), int(round(f1_frac * 1000))))
            fractions = noiseless_fractions(rng, allocation_plan(m_total, f1_frac).allocate(),
                                            probs, size)
            for mode in ("f1_sqrt", "eq19"):
                estimates, _ = reconstruct(*fractions, e_ref, times[:, None], mode)
                errors = np.abs(estimates - values[:, None]) ** 2
                rows.append({
                    "m_total": int(m_total),
                    "f1_fraction": float(f1_frac),
                    "mode": mode,
                    "typical_error": float(np.sqrt(np.mean(errors))),
                    "error_spread": float(np.std(np.sqrt(np.mean(errors, axis=1)))),
                })
    return rows


MITIGATION_MODES = ("none", "postselect", "twirl", "both")


def mitigation_ablation(psi0_prep: PrepCircuit, ham, dt: float, kmax: int,
                        plan: ShotPlan, noise: NoiseSpec, seed: int,
                        magnitude_source: str = "f1_sqrt"):
    """Per-step estimation error with each mitigation combination.

    Uses the single-step evolver (the hardware-style circuit) and compares
    noisy sampled fractions and overlaps against each step's exact overlap
    and its fractions (``mirror_fractions``); the exact overlap, psi0 evolved
    through the step's gates, and the four mode cells read one gate list.
    Returns rows (t, mode, f1_err, f2_err, f3_err, overlap_err).
    """
    circuits = _MirrorCircuits(psi0_prep, GateEvolver(ham))
    streams = _StreamOpener(seed)
    specs = [replace(noise, enable_postselect=mode in ("postselect", "both"),
                     enable_twirl=mode in ("twirl", "both")) for mode in MITIGATION_MODES]
    e_ref = ham.reference_energy()
    steps = range(1, kmax + 1)
    times = [k * dt for k in steps]
    rows = []
    for k, t, (value, evolution) in zip(steps, times, _forward_model(
            psi0_prep.state(), circuits.evolver, times)):
        value = complex(value)
        cells = [((k, m), spec) for m, spec in enumerate(specs)]
        ests = _estimate_cells(circuits, t, value, evolution, cells, plan, streams,
                               magnitude_source)
        fractions = mirror_fractions(value, e_ref, t)
        for mode, est in zip(MITIGATION_MODES, ests):
            f_errs = [abs(f - fx) if not np.isnan(f) else float("nan")
                      for f, fx in zip(est.fractions, fractions)]
            o_err = float("nan") if est.value is None else abs(est.value - value)
            rows.append((t, mode, *f_errs, o_err))
    return rows
