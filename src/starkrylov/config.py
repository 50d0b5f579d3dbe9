"""Run configuration: a single JSON document whose defaults reproduce the
published experiment settings (dt = 0.1, delta grid, 40/30/30 shot split)."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from numbers import Integral, Real

from . import krylov
from .hamiltonian import SpinHamiltonian
from .lattice import build_star
from .mirror import ShotPlan
from .noise import NoiseSpec, twirl_layer
from .prep import PrepCircuit, dressed_initial, pinwheel, sector_initial


class ConfigError(ValueError):
    """Invalid configuration; commands exit with code 2."""


@dataclass
class InitialStateSpec:
    kind: str = "dressed"  # dressed | pinwheel | sector
    sz: int = 0
    cz_bonds: list | None = None  # None = all free outer bonds


@dataclass
class NoiseConfig:
    p_pauli: float = 0.0
    enable_postselect: bool = False
    enable_twirl: bool = False
    twirl_angle: float | None = None  # None = pi/2


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


_SECTIONS = {"initial": InitialStateSpec, "shots": ShotPlan, "noise": NoiseConfig,
             "magnet": MagnetSpec, "allocation": AllocationSpec}
_TUPLE_FIELDS = ("solvers", "deltas", "eigenvalue_band", "fractions", "m_totals", "f1_grid")


# The type of every numeric or boolean field, per section ("" is the top
# level): int takes no float or bool, float any finite real number but no
# bool, (kind, ...) a list of any length and (kind, kind) a pair.  A field or
# section whose default is None may also be null.
_FIELD_TYPES = {
    "": {"n_triangles": int, "steps": int, "realizations": int, "seed": int,
         "odmd_window": int, "h_field": float, "dt": float, "deltas": (float, ...),
         "eigenvalue_band": (float, float), "odmd_real_part": bool,
         "reverse_trotter_groups": bool},
    "initial": {"sz": int},
    "shots": {"total": int, "fractions": (float,) * 3, "twirl_fraction": float},
    "noise": {"p_pauli": float, "twirl_angle": float, "enable_postselect": bool,
              "enable_twirl": bool},
    "magnet": {"n_steps": int, "delta": float, "dt": float},
    "allocation": {"m_totals": (int, ...), "f1_grid": (float, ...), "n_times": int,
                   "realizations": int},
}
_TYPE_NAMES = {int: ("an integer", "integers"), bool: ("true or false", "booleans"),
               float: ("a finite real number", "finite real numbers")}


def _with_tuples(fields: dict) -> dict:
    return {k: tuple(v) if k in _TUPLE_FIELDS else v for k, v in fields.items()}


def _has_type(value, kind) -> bool:
    if isinstance(kind, tuple):
        if not isinstance(value, tuple):
            return False
        kinds = kind[:1] * len(value) if kind[-1] is Ellipsis else kind
        return len(value) == len(kinds) and all(map(_has_type, value, kinds))
    if isinstance(value, bool) or kind is bool:
        return type(value) is kind
    if kind is int:
        return isinstance(value, Integral)
    return isinstance(value, Real) and abs(value) < math.inf  # no NaN, no overflow


def _describe(kind) -> str:
    if not isinstance(kind, tuple):
        return _TYPE_NAMES[kind][0]
    size = "" if kind[-1] is Ellipsis else f"{len(kind)} "
    return f"a list of {size}{_TYPE_NAMES[kind[0]][1]}"


@dataclass
class RunConfig:
    n_triangles: int = 4
    h_field: float = 0.0
    dt: float = 0.1
    steps: int = 60
    solvers: tuple[str, ...] = ("uvqpe", "odmd")
    deltas: tuple[float, ...] = (1e-1, 1e-3, 1e-5)
    evolver: str = "exact"  # exact | trotter | floquet
    initial: InitialStateSpec = field(default_factory=InitialStateSpec)
    shots: ShotPlan | None = None  # None = exact expectation values
    noise: NoiseConfig | None = None
    realizations: int = 1
    magnitude_source: str = "f1_sqrt"
    eigenvalue_band: tuple[float, float] = (0.5, 1.5)
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
        if not isinstance(raw, dict):
            raise ConfigError("a configuration must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            kwargs = _with_tuples(raw)
            for key, spec_cls in _SECTIONS.items():
                if kwargs.get(key) is not None:
                    kwargs[key] = spec_cls(**_with_tuples(dict(kwargs[key])))
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=str)

    def initial_prep(self, star) -> PrepCircuit:
        spec = self.initial
        if spec.kind == "pinwheel":
            return pinwheel(star)
        if spec.kind == "dressed":
            bonds = None if spec.cz_bonds is None else [tuple(b) for b in spec.cz_bonds]
            return dressed_initial(star, bonds)
        return sector_initial(star, spec.sz)

    def noise_spec(self) -> NoiseSpec | None:
        if self.noise is None:
            return None
        angle = self.noise.twirl_angle if self.noise.twirl_angle is not None else math.pi / 2
        return NoiseSpec(self.noise.p_pauli, self.noise.enable_postselect,
                         self.noise.enable_twirl, angle, self.seed)

    def _check_types(self) -> None:
        for section, types in _FIELD_TYPES.items():
            obj = getattr(self, section) if section else self
            if obj is None:
                if self.__dataclass_fields__[section].default is None:
                    continue
                raise ConfigError(f"{section} must be an object")
            for name, kind in types.items():
                value = getattr(obj, name)
                if value is None and obj.__dataclass_fields__[name].default is None:
                    continue
                if not _has_type(value, kind):
                    where = f"{section}.{name}" if section else name
                    raise ConfigError(f"{where} must be {_describe(kind)}, got {value!r}")

    def validate(self) -> None:
        """Check everything a command builds from the config, before any ED.

        Thresholds (``deltas``, ``magnet.delta``) must be at least
        ``krylov.DELTA_FLOOR``: below it the SVD keeps rounding noise and the
        solvers report energies far below the spectrum (the ``krylov`` module
        docstring gives the measurement)."""
        self._check_types()
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.odmd_window is not None and not 1 <= self.odmd_window <= self.steps:
            raise ConfigError(f"odmd_window must lie in [1, steps={self.steps}]")
        magnet_delta = () if self.magnet.delta is None else (self.magnet.delta,)
        if any(d < krylov.DELTA_FLOOR for d in (*self.deltas, *magnet_delta)):
            raise ConfigError(f"deltas and magnet.delta must be >= "
                              f"{krylov.DELTA_FLOOR:g}, the rounding floor of the SVD")
        if self.evolver not in ("exact", "trotter", "floquet"):
            raise ConfigError(f"unknown evolver {self.evolver!r}")
        if self.initial.kind not in ("dressed", "pinwheel", "sector"):
            raise ConfigError(f"unknown initial state kind {self.initial.kind!r}")
        try:
            star = build_star(self.n_triangles)
            SpinHamiltonian(star, self.h_field).check_time_step(self.dt)
            series_kind = "floquet" if self.evolver == "floquet" else "unitary"
            for s in self.solvers:
                first = krylov.solver_spec(s, series_kind).first_step
                if self.steps < first:
                    raise ValueError(f"steps must be >= {first} for {s}")
            self.initial_prep(star)
            noise = self.noise_spec()
            if noise is not None and noise.enable_twirl:
                twirl_layer(star.n_sites, noise.twirl_angle, superposition_role=True)
            if noise is not None and noise.active and self.evolver == "exact":
                raise ValueError("noise.p_pauli > 0 needs a gate-based evolver "
                                 "(trotter or floquet)")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:  # magnetization solves exact unitary series at h = 0
            first = krylov.solver_spec(self.magnet.solver).first_step
            if self.magnet.n_steps is not None and self.magnet.n_steps < first:
                raise ValueError(f"n_steps must be >= {first} for {self.magnet.solver}")
            if self.magnet.dt is not None:
                SpinHamiltonian(star).check_time_step(self.magnet.dt)
        except ValueError as exc:
            raise ConfigError(f"magnet: {exc}") from exc
        if self.magnitude_source not in ("f1_sqrt", "eq19"):
            raise ConfigError("magnitude_source must be 'f1_sqrt' or 'eq19'")
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        lo, hi = self.eigenvalue_band
        if not 0 < lo < 1 < hi:
            raise ConfigError("eigenvalue_band must bracket the unit circle")
