"""Dense statevector engine; a state is a raw 1-D array of 2^n complex amplitudes.

Bit convention: site i is bit i of the basis index, bit 0 least significant;
bit value 1 is spin down (S^z = -1/2), so the all-zero state is all-up.
Gate matrices are indexed with sites[0] as the most significant local bit,
i.e. a CNOT on sites (c, t) is the textbook matrix in the |c t> basis.

One kernel, ``apply_gate_amps``, applies a gate to one state, and
``apply_circuit`` loops it over a gate list.  The kernel has two paths:

- A general gate gathers the amplitudes into a (2^k, 2^(n-k)) block through a
  cached index, multiplies by the matrix and puts the result back in basis
  order through the inverse index.
- A monomial gate, one whose matrix has exactly one nonzero in each row and
  column and every nonzero exactly 1, -1, 1j or -1j (X, Y, Z, CNOT, CZ), is a
  signed permutation of the basis.  It is applied as ``amps[src]``,
  ``amps * phase`` or ``amps[src] * phase`` from full-length arrays cached
  per (n, sites, pattern).  Every product with 0, +-1 or +-i is exact in
  IEEE arithmetic, and adding the zero terms of the matrix product changes
  at most the sign of a zero, so both paths give the same amplitudes up to
  the sign of zeros, which ``np.array_equal`` and |amp|^2 ignore.
  ``GateOp`` classifies its matrix once, at construction; a rotation by
  pi/2 is not monomial, because ``np.exp(1j * np.pi / 2)`` is not exactly 1j.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

UNITARY_TOL = 1e-10
MAX_QUBITS = 14  # dense amplitudes only, enforced by SpinHamiltonian; geometry has no cap

_SQ2 = 1.0 / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)

PAULIS = {"X": _X, "Y": _Y, "Z": _Z}


def zero_amps(n_qubits: int) -> np.ndarray:
    """The amplitudes of |0..0>, the all-up state."""
    return np.eye(1, 1 << n_qubits, dtype=complex)[0]


_UNIT_PHASES = (1, -1, 1j, -1j)


def _monomial_pattern(m: np.ndarray):
    """``(src, phases)`` when the unitary m is monomial with every nonzero
    exactly one of 1, -1, 1j, -1j: row r's only nonzero is
    ``m[r, src[r]] == phases[r]``, and ``phases`` is None when every phase is
    1.  None otherwise.  A unitary has no zero row or column, so it is
    monomial exactly when it has as many nonzeros as rows."""
    rows, cols = np.nonzero(m)
    if len(rows) != len(m):
        return None
    src = tuple(cols.tolist())
    phases = m[rows, cols].tolist()
    if not all(p in _UNIT_PHASES for p in phases):
        return None
    if all(p == 1 for p in phases):
        return src, None
    return src, tuple(_UNIT_PHASES[_UNIT_PHASES.index(p)] for p in phases)


@dataclass(frozen=True)
class GateOp:
    sites: tuple[int, ...]
    matrix: np.ndarray
    label: str = ""
    # (src, phases) of a monomial matrix (see ``_monomial_pattern``), else None
    monomial: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.sites)
        if not 1 <= k <= 3:
            raise ValueError("GateOp supports 1 to 3 sites")
        if len(set(self.sites)) != k:
            raise ValueError(f"gate sites must be distinct: {self.sites}")
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (1 << k, 1 << k):
            raise ValueError(f"matrix shape {m.shape} does not match {k} sites")
        # first: a NaN norm passes the tolerance test, and inf warns in the product
        if (not np.isfinite(m).all()
                or np.linalg.norm(m.conj().T @ m - np.eye(1 << k)) > UNITARY_TOL):
            raise ValueError(f"gate {self.label!r} is not unitary")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "monomial", _monomial_pattern(m))

    @cached_property
    def inverse(self) -> "GateOp":
        """The adjoint gate, built once per gate, whose own inverse is this
        gate: ``prep.invert`` and a pass's backward sweep read it."""
        inverse = GateOp(self.sites, self.matrix.conj().T, self.label + "+")
        inverse.__dict__["inverse"] = self  # where cached_property keeps it
        return inverse


def x_gate(q: int) -> GateOp:
    return GateOp((q,), _X, "X")


def h_gate(q: int) -> GateOp:
    return GateOp((q,), _H, "H")


@lru_cache(maxsize=None)  # at most 3 * MAX_QUBITS entries
def pauli_gate(name: str, q: int) -> GateOp:
    """The shared X/Y/Z gate on site q."""
    return GateOp((q,), PAULIS[name], name)


def rz_gate(q: int, theta: float) -> GateOp:
    """diag(e^{i theta}, e^{-i theta}), the twirl-layer convention."""
    return GateOp((q,), np.diag([np.exp(1j * theta), np.exp(-1j * theta)]), f"RZ({theta:g})")


def phase_gate(q: int, phi: float) -> GateOp:
    return GateOp((q,), np.diag([1.0, np.exp(1j * phi)]), f"P({phi:g})")


def cnot_gate(control: int, target: int) -> GateOp:
    return GateOp((control, target), _CNOT, "CNOT")


def cz_gate(a: int, b: int) -> GateOp:
    return GateOp((a, b), _CZ, "CZ")


def _site_index(n: int, sites: tuple[int, ...]) -> np.ndarray:
    """Basis indices as a (2**k, 2**(n-k)) array: row r holds the basis states
    whose sites' local index (sites[0] most significant) is r, and the other
    qubits, most significant first, run along the columns."""
    for q in sites:
        if not 0 <= q < n:
            raise ValueError(f"site {q} out of range for {n} qubits")
    axes = [n - 1 - q for q in sites]  # axis of site q in the (2,)*n tensor
    idx = np.moveaxis(np.arange(1 << n).reshape([2] * n), axes, range(len(sites)))
    return idx.reshape(1 << len(sites), -1)


@lru_cache(maxsize=None)  # one entry per general gate placement the circuits use
def _general_index(n: int, sites: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``(gather, scatter)`` of a general gate: ``amps.take(gather)``, reshaped
    to (2**k, 2**(n-k)), is the gate's block (``_site_index`` flattened), and
    ``block.take(scatter)`` puts a flattened block back in basis order."""
    gather = _site_index(n, sites).reshape(-1)
    scatter = np.argsort(gather)
    gather.flags.writeable = scatter.flags.writeable = False
    return gather, scatter


@lru_cache(maxsize=None)  # one entry per monomial gate placement the circuits use
def _monomial_index(n: int, sites: tuple[int, ...], pattern: tuple):
    """Full-length ``(src, phase)`` of a monomial gate: the gate maps ``amps``
    to ``amps[src] * phase``.  ``src`` is None for the identity permutation and
    ``phase`` is None when every phase is 1; ``phase`` is float64 when every
    phase is real."""
    local_src, phases = pattern
    blocks = _site_index(n, sites)
    src = None
    if local_src != tuple(range(len(local_src))):
        src = np.empty(1 << n, dtype=np.intp)
        src[blocks] = blocks[list(local_src)]
        src.flags.writeable = False
    phase = None
    if phases is not None:
        local = np.array(phases, dtype=float if all(p in (1, -1) for p in phases) else complex)
        phase = np.empty(1 << n, dtype=local.dtype)
        phase[blocks] = local[:, None]
        phase.flags.writeable = False
    return src, phase


def apply_gate_amps(amps: np.ndarray, gate: GateOp) -> np.ndarray:
    """The amplitudes of ``gate`` applied to the state ``amps``, a 1-D array
    of 2^n amplitudes, as a new array (the module docstring describes the
    two paths)."""
    n = len(amps).bit_length() - 1
    if gate.monomial is None:
        gather, scatter = _general_index(n, gate.sites)
        return (gate.matrix @ amps.take(gather).reshape(len(gate.matrix), -1)).take(scatter)
    src, phase = _monomial_index(n, gate.sites, gate.monomial)
    if phase is None:
        return amps.copy() if src is None else amps.take(src)
    return (amps if src is None else amps.take(src)) * phase


def apply_circuit(amps: np.ndarray, gates) -> np.ndarray:
    for g in gates:
        amps = apply_gate_amps(amps, g)
    return amps


_KEY_MASK = (1 << 64) - 1
_KEY_STEP = 0x9E3779B97F4A7C15


def _fold(stream: tuple) -> int:
    """The parts of ``stream`` folded into one 64-bit word, one at a time."""
    word = 0
    for part in stream:
        word = (word * _KEY_STEP + int(part) + 1) & _KEY_MASK
    return word


class _StreamOpener:
    """The streams (seed, *stream) of one seed, on one Philox.

    A stream's Philox key is two words: the seed masked to 64 bits, and the
    stream's parts folded onto 0 (``_fold``).  Draw j of a stream is a pure
    function of its key and j (a counter-based Philox), so consumers that own
    distinct streams never interact.

    Opening a stream re-keys the Philox and returns the same Generator over
    it, so a generator opened earlier is reset too.  The Philox state it sets
    holds plain ints: the stream's key, counter zero and an empty buffer, where
    a Philox constructed with that key starts, without the entropy draw its
    constructor makes.
    """

    def __init__(self, seed: int):
        self._key = [int(seed) & _KEY_MASK, 0]
        self._bits = np.random.Philox(key=np.array(self._key, dtype=np.uint64))
        self._gen = np.random.Generator(self._bits)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0, 0, 0, 0], "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
                       "uinteger": 0}

    def _rekey(self, word: int) -> np.random.Generator:
        self._key[1] = word
        self._bits.state = self._state
        return self._gen

    def __call__(self, stream: tuple) -> np.random.Generator:
        """A generator at the start of stream (seed, *stream)."""
        return self._rekey(_fold(stream))

    def uniforms(self, stream: tuple, count: int, n: int, start: int = 0) -> np.ndarray:
        """The first n uniforms of each stream (seed, *stream, j),
        start <= j < start + count, as row j - start of a (count, n) array."""
        step = _fold(stream) * _KEY_STEP + 1  # folding j onto it is (step + j) & mask
        out = np.empty((count, n))
        for j, row in enumerate(out, start):
            self._rekey((step + j) & _KEY_MASK).random(out=row)
        return out


def sampling_cdf(amps: np.ndarray) -> np.ndarray:
    """Cumulative |amplitude|^2 normalized to end at 1, the CDF that
    ``sample_bitstrings`` samples."""
    cdf = np.cumsum(np.abs(amps) ** 2)
    return cdf / cdf[-1]


def sample_bitstrings(cdf: np.ndarray, uniforms) -> np.ndarray:
    """The one inverse-CDF rule (``mirror._sample_erring``): uniform u draws
    from ``cdf`` (a ``sampling_cdf``) the basis index that counts the CDF
    entries at or below u, so a uniform on a step draws the next index."""
    return np.searchsorted(cdf, uniforms, side="right").astype(np.int64)

