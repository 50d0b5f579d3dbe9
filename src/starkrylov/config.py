"""Run configuration: a single JSON document whose defaults reproduce the
published experiment settings (dt = 0.1, delta grid, 40/30/30 shot split).

The dataclass annotations are the schema, so a new field needs only its
annotation and default.  ``_parse`` reads them: a section dataclass takes an
object without unknown keys, a ``tuple`` a list of that length, a ``Literal``
one of its strings, ``X | None`` also null, an int no float or bool, and a
float any real number within float range, kept as given, but no bool.  The
sections ``shots`` (``mirror.ShotPlan``), ``noise`` (``noise.NoiseSpec``) and
``allocation`` check themselves; a ValueError of theirs is a configuration
error.  ``RunConfig.validate`` checks the rest, ``magnet.sector_solver_settings``
the ``magnet`` solver, threshold, first step and h = 0 time step for it."""
from __future__ import annotations

import itertools
import json
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from numbers import Integral, Real
from typing import Literal, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import krylov
from .hamiltonian import QUBIT_CAP, SpinHamiltonian, check_time_step
from .lattice import StarPlaquette, build_star
from .magnet import sector_solver_settings
from .mirror import ShotPlan, allocation_plan
from .noise import NoiseSpec, postselect_f1, twirl_angle, twirl_layer
from .prep import PrepCircuit, dressed_initial, pinwheel, reference_superposition, sector_initial


class ConfigError(ValueError):
    """Invalid configuration; commands exit with code 2."""


# the most elements one array of a run may hold (``RunConfig.largest_arrays``):
# 2^26, 1 GiB as complex128
MAX_ELEMENTS = 1 << 26


class Build(NamedTuple):  # what RunConfig.validate built; the command runs on it
    star: StarPlaquette
    ham: SpinHamiltonian  # at the config's h_field
    prep: PrepCircuit  # the initial state's preparation


@dataclass
class InitialStateSpec:
    kind: Literal["dressed", "pinwheel", "sector"] = "dressed"
    sz: int = 0
    cz_bonds: tuple[tuple[int, int], ...] | None = None  # None = all free outer bonds


@dataclass
class MagnetSpec:
    solver: str = "uvqpe"
    delta: float | None = None  # None = per-lattice default
    n_steps: int | None = None
    dt: float | None = None


@dataclass
class AllocationSpec:
    m_totals: tuple[int, ...] = (100, 1000, 10000)
    f1_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 1.0 / 3.0, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    n_times: int = 10
    realizations: int = 100

    def __post_init__(self):
        if self.n_times < 1 or self.realizations < 1 or not self.f1_grid:
            raise ValueError("needs n_times >= 1, realizations >= 1 and an f1_grid")
        for m_total, f1_frac in itertools.product(self.m_totals, self.f1_grid):
            allocation_plan(m_total, f1_frac)  # as allocation_study builds it


_SCALAR_NAMES = {int: "an integer", bool: "true or false",
                 float: "a real number within float range", str: "a string"}


def _has_type(value, kind) -> bool:
    if isinstance(value, bool) or kind is bool:
        return type(value) is kind
    if kind is int:
        return isinstance(value, Integral)
    if kind is float:  # exact comparison: no NaN, no int that overflows a float
        return isinstance(value, Real) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _parse(kind, value, where: str):
    """``value`` checked against the annotation ``kind``: objects become section
    dataclasses and lists tuples; ``where`` names the value in errors."""
    origin, args = get_origin(kind), get_args(kind)
    if type(None) in args:  # X | None
        return None if value is None else _parse(args[0], value, where)
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigError(f"{where or 'a configuration'} must be an object, got {value!r}")
        types = get_type_hints(kind)
        unknown = set(value) - {f.name for f in fields(kind)}
        if unknown:
            raise ConfigError(f"unknown keys in {where or 'the configuration'}: {sorted(unknown)}")
        prefix = f"{where}." if where else ""
        parsed = {k: _parse(types[k], v, prefix + k) for k, v in value.items()}
        try:
            return kind(**parsed)
        except ValueError as exc:  # the section's own checks (ShotPlan)
            raise ConfigError(f"{where}: {exc}") from exc
    if origin is tuple:
        size = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
            raise ConfigError(f"{where} must be a list{f' of {size} items' if size else ''}, "
                              f"got {value!r}")
        kinds = args if size else args[:1] * len(value)
        return tuple(_parse(k, v, f"{where}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    if origin is Literal:
        if not (isinstance(value, str) and value in args):
            raise ConfigError(f"{where} must be one of {list(args)}, got {value!r}")
        return value
    if not _has_type(value, kind):
        raise ConfigError(f"{where} must be {_SCALAR_NAMES[kind]}, got {value!r}")
    return value


@dataclass
class RunConfig:
    n_triangles: int = 4
    h_field: float = 0.0
    dt: float = 0.1
    steps: int = 60
    solvers: tuple[str, ...] = ("uvqpe", "odmd")
    deltas: tuple[float, ...] = (1e-1, 1e-3, 1e-5)
    evolver: Literal["exact", "trotter", "floquet"] = "exact"
    initial: InitialStateSpec = field(default_factory=InitialStateSpec)
    shots: ShotPlan | None = None  # None = exact expectation values
    noise: NoiseSpec | None = None  # None = noiseless
    realizations: int = 1
    magnitude_source: Literal["f1_sqrt", "eq19"] = "f1_sqrt"
    eigenvalue_band: tuple[float, float] = krylov.DEFAULT_BAND
    odmd_window: int | None = None
    odmd_real_part: bool = False
    reverse_trotter_groups: bool = False
    seed: int = 0
    magnet: MagnetSpec = field(default_factory=MagnetSpec)
    allocation: AllocationSpec = field(default_factory=AllocationSpec)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path) as f:
                raw = json.load(f)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return _parse(cls, raw, "")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=str)

    def initial_prep(self, star) -> PrepCircuit:
        spec = self.initial
        if spec.kind == "pinwheel":
            return pinwheel(star)
        if spec.kind == "dressed":
            return dressed_initial(star, spec.cz_bonds)
        return sector_initial(star, spec.sz)

    def largest_arrays(self) -> dict[str, int]:
        """The element count of the largest array that the fields of each key
        make a command build, in closed form, from the config alone: the list
        of ``realizations`` series; the sweep's stack of d + 1 Toeplitz or
        Hankel rows of d values per distinct series (sampled realizations,
        or the one exact series), up to d = steps; a pool's one uniform per
        shot; a magnetization sector's stack (n_steps None takes the default
        of ``magnet.sector_solver_settings``, at most 150); and the allocation
        study's three (n_times, realizations) fraction arrays.  Every other array is smaller, or comes
        in blocks of bounded size (``mirror._BATCH_BYTES``)."""
        series = self.realizations if self.shots is not None else 1
        n_steps = self.magnet.n_steps or 0
        return {
            "realizations": self.realizations,
            "steps and realizations": series * (self.steps + 1) * self.steps,
            "shots.total": 0 if self.shots is None else self.shots.total,
            "magnet.n_steps": (n_steps + 1) * n_steps,
            "allocation.n_times and allocation.realizations":
                3 * self.allocation.n_times * self.allocation.realizations,
        }

    def validate(self, command: str | None = None) -> Build:
        """Check everything a command builds from the config, before any ED,
        and return the star, Hamiltonian and initial preparation built for the
        checks: ``cli.main`` runs the command on them, so a run builds each once.

        ``deltas`` must pass ``krylov.check_deltas`` (the ``krylov`` module
        docstring says why), and the ``magnet`` section
        ``magnet.sector_solver_settings``.  No array of ``largest_arrays`` may
        exceed ``MAX_ELEMENTS``, checked before any star or Hamiltonian is
        built.  The initial state's reference superposition must exist for
        ``shots`` and for the ``allocation`` study, whose fractions are the
        mirror circuits'.  Configs built in Python are re-parsed first, so
        they get the type checks of ``from_dict``."""
        _parse(type(self), asdict(self), "")
        if self.steps < 1 or self.realizations < 1:
            raise ConfigError("steps and realizations must be >= 1")
        if not 0 <= self.seed < 2 ** 64:  # the random streams key on 64 bits
            raise ConfigError("seed must lie in [0, 2**64 - 1]")
        for names, size in self.largest_arrays().items():
            if size > MAX_ELEMENTS:
                raise ConfigError(f"{names} too large: an array of more than "
                                  f"{MAX_ELEMENTS} elements")
        if self.odmd_window is not None and not 1 <= self.odmd_window <= self.steps:
            raise ConfigError(f"odmd_window must lie in [1, steps={self.steps}]")
        try:
            krylov.check_deltas(self.deltas, "deltas")
            if 2 * self.n_triangles > QUBIT_CAP:  # 2 sites each, checked before build_star
                raise ValueError(f"n_triangles must be at most {QUBIT_CAP // 2} (qubit cap)")
            star = build_star(self.n_triangles)
            check_time_step(star, self.dt, self.h_field)
            ham = SpinHamiltonian(star, self.h_field)
            for s in self.solvers:
                first = krylov.solver_spec(s, self.evolver == "floquet").first_step
                if self.steps < first:
                    raise ValueError(f"steps must be >= {first} for {s}")
            prep = self.initial_prep(star)
            noise = self.noise or NoiseSpec()
            if noise.enable_twirl:
                twirl_layer(star.n_sites, twirl_angle(noise))
            if noise.p_pauli > 0 and self.evolver == "exact":
                raise ValueError("noise.p_pauli > 0 needs a gate-based evolver "
                                 "(trotter or floquet)")
            if self.shots is None and (noise.p_pauli > 0 or noise.enable_postselect
                                       or noise.enable_twirl):
                raise ValueError("noise.p_pauli > 0, post-selection and twirl need shots")
            if self.shots is not None or command == "allocation":
                reference_superposition(prep, 1)
            if self.shots is not None and noise.enable_postselect:
                postselect_f1(np.zeros(0, dtype=np.int64), prep.dimer_pairs, star.n_sites)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        spec = self.magnet
        try:  # magnetization solves exact unitary series at h = 0
            sector_solver_settings(star, spec.solver, spec.delta, spec.n_steps, spec.dt)
        except ValueError as exc:
            raise ConfigError(f"magnet: {exc}") from exc
        lo, hi = self.eigenvalue_band
        if not 0 < lo < 1 < hi:
            raise ConfigError("eigenvalue_band must bracket the unit circle")
        return Build(star, ham, prep)
