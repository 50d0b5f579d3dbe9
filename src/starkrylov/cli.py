"""Command-line front door.

Subcommands: spectrum | overlaps | converge | magnetization | allocation.
Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
Identical config and seed produce byte-identical output files on one machine,
whatever its BLAS thread count: ``main`` runs each command on one OpenBLAS
thread and restores the previous count afterwards.

A process that imports this module before numpy (``python -m starkrylov.cli``,
the ``starkrylov`` script) starts OpenBLAS with one thread, so it never spawns
the thread pool that ``main`` would leave idle.  ``OPENBLAS_NUM_THREADS`` is
set only while numpy loads, and only when unset, so a count the user chose is
kept and child processes see the environment unchanged.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

_ONE_THREAD_START = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
if _ONE_THREAD_START:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np  # noqa: E402  (OpenBLAS reads its thread count on load)

if _ONE_THREAD_START:
    del os.environ["OPENBLAS_NUM_THREADS"]

from . import krylov, magnet, mirror, noise
from .config import ConfigError, RunConfig
from .hamiltonian import SpinHamiltonian, write_spectrum_csv
from .lattice import build_star


class NumericalFailure(RuntimeError):
    """Unconverged magnetization sectors; exit code 3.  Flagged estimates do not raise."""


def _build_problem(cfg: RunConfig):
    star = build_star(cfg.n_triangles)
    return star, SpinHamiltonian(star, cfg.h_field)


def _series_for(cfg: RunConfig, star, ham):
    """One (series, estimates) pair per realization; the exact series has no
    estimates and stands for every realization."""
    prep = cfg.initial_prep(star)
    evolver = mirror.make_evolver(cfg.evolver, ham, dt_step=cfg.dt,
                                  reverse_groups=cfg.reverse_trotter_groups)
    if cfg.shots is None:
        series = mirror.overlap_series_exact(prep.state(), evolver, cfg.dt, cfg.steps)
        return [(series, None)] * cfg.realizations
    return mirror.overlap_series_sampled(
        prep, evolver, ham, cfg.dt, cfg.steps, cfg.shots, cfg.seed,
        noise=cfg.noise, realizations=range(cfg.realizations),
        magnitude_source=cfg.magnitude_source)


def _solver_steps(cfg: RunConfig, solver: str) -> range:
    """Valid prefix lengths; an ODMD window of d rows needs at least d steps."""
    first = krylov.SOLVERS[solver].first_step
    if solver == "odmd" and cfg.odmd_window is not None:
        first = max(first, cfg.odmd_window)
    return range(first, cfg.steps + 1)


def cmd_spectrum(cfg: RunConfig, out: Path) -> None:
    star, ham = _build_problem(cfg)
    write_spectrum_csv(out / "spectrum.csv", ham)
    summary = {
        "n_sites": star.n_sites,
        "h_field": cfg.h_field,
        "ground_energy": ham.ground_state_energy(),
        "sector_ground_energies": {f"{sz:g}": e for sz, e
                                   in sorted(ham.sector_ground_energies().items())},
    }
    (out / "spectrum_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))


def cmd_overlaps(cfg: RunConfig, out: Path) -> None:
    star, ham = _build_problem(cfg)
    if cfg.shots is None:
        series, _ = _series_for(cfg, star, ham)[0]
        mirror.write_overlap_csv(out / "overlaps.csv", cfg.dt, series.values,
                                 None, mode="exact")
        if series.neg_values is not None:
            mirror.write_overlap_csv(out / "overlaps_negative.csv", -cfg.dt,
                                     series.neg_values, None, mode="exact")
        return
    mode = "noisy" if (cfg.noise is not None and cfg.noise.p_pauli > 0) else "sampled"
    for r, (series, estimates) in enumerate(_series_for(cfg, star, ham)):
        name = "overlaps.csv" if cfg.realizations == 1 else f"overlaps_r{r:03d}.csv"
        mirror.write_overlap_csv(out / name, cfg.dt, series.values, estimates, mode=mode)
    if mode == "noisy":
        # emulator-style ablation over at most 20 time steps (4 mitigation
        # combinations per step, each a full trajectory-sampled estimate)
        rows = mirror.mitigation_ablation(cfg.initial_prep(star), ham, cfg.dt,
                                          min(cfg.steps, 20), cfg.shots,
                                          cfg.noise, cfg.seed, cfg.magnitude_source)
        noise.write_mitigation_csv(out / "mitigation_ablation.csv", rows)


def cmd_converge(cfg: RunConfig, out: Path) -> None:
    star, ham = _build_problem(cfg)
    sector = cfg.initial.sz if cfg.initial.kind == "sector" else 0
    e_exact = ham.ground_state_energy(sector=float(sector))
    runs = [series for series, _ in _series_for(cfg, star, ham)]
    distinct = {id(series): series for series in runs}  # an exact series serves every run
    slot = {key: i for i, key in enumerate(distinct)}
    csv_rows = []
    spread_rows = []
    summary = {}
    for solver in cfg.solvers:
        solved = krylov.sweep(solver, list(distinct.values()), _solver_steps(cfg, solver),
                              cfg.deltas, tuple(cfg.eigenvalue_band), cfg.odmd_window,
                              cfg.odmd_real_part)
        for delta in cfg.deltas:
            steps_to_tol = None
            flag_counts: Counter = Counter()
            for ns in _solver_steps(cfg, solver):
                cell = [solved[ns, delta][slot[id(series)]] for series in runs]
                flag_counts.update(flag for est in cell for flag in est.flags)
                energies = [est.energy for est in cell if est.energy is not None]
                if not energies:
                    csv_rows.append((solver, delta, ns, None, None, 0))
                    spread_rows.append((solver, delta, ns, None, None, 0))
                    continue
                mean_e = float(np.mean(energies))
                mean_err = float(np.mean([abs(e - e_exact) for e in energies]))
                rank = int(round(np.mean([est.retained_rank for est in cell])))
                csv_rows.append((solver, delta, ns, mean_e, mean_e - e_exact, rank))
                spread_rows.append((solver, delta, ns, float(np.std(energies)),
                                    mean_err, rank))
                if steps_to_tol is None and mean_err < 1e-6:
                    steps_to_tol = ns
            final = csv_rows[-1]
            summary[f"{solver}:delta={delta:g}"] = {
                "final_energy": final[3],
                "final_error": final[4],
                "steps_to_1e-6": steps_to_tol,
                "flag_counts": dict(sorted(flag_counts.items())),
            }
    krylov.write_convergence_csv(out / "convergence.csv", csv_rows)
    if cfg.realizations > 1:
        # same schema; 'energy' holds the std across realizations and
        # 'energy_error' the mean absolute error
        krylov.write_convergence_csv(out / "convergence_spread.csv", spread_rows)
    summary["exact_ground_energy"] = e_exact
    summary["realizations"] = cfg.realizations
    (out / "convergence_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True))


def cmd_magnetization(cfg: RunConfig, out: Path) -> None:
    star = build_star(cfg.n_triangles)
    ham = SpinHamiltonian(star)  # sector energies at h = 0
    ed_energies = {sz: ham.ground_state_energy(sector=sz)
                   for sz in range(star.n_sites // 2 + 1)}
    ed_curve = magnet.build_curve(ed_energies, star.n_sites)
    magnet.write_sector_csv(out / "sectors_ed.csv", ed_energies)
    magnet.write_curve_csv(out / "magnetization_ed.csv", ed_curve)

    spec = cfg.magnet
    solver_energies, meta = magnet.estimate_sector_energies(
        ham, method=spec.solver, delta=spec.delta, n_steps=spec.n_steps, dt=spec.dt)
    unconverged = [sz for sz, m in meta.items() if not m["converged"]]
    magnet.write_sector_csv(out / f"sectors_{spec.solver}.csv", solver_energies)
    summary = {
        "crossing_fields_ed": list(ed_curve.crossing_fields),
        "sector_errors": {str(sz): meta[sz]["final_error"] for sz in sorted(meta)},
        "sector_ranks": {str(sz): meta[sz]["retained_rank"] for sz in sorted(meta)},
        "sector_flags": {str(sz): list(meta[sz]["flags"]) for sz in sorted(meta)},
        "unconverged_sectors": unconverged,
    }
    if not unconverged:
        solver_curve = magnet.build_curve(solver_energies, star.n_sites)
        magnet.write_curve_csv(out / f"magnetization_{spec.solver}.csv", solver_curve)
        ed_fields, solver_fields = ed_curve.crossing_fields, solver_curve.crossing_fields
        summary[f"crossing_fields_{spec.solver}"] = list(solver_fields)
        if len(ed_fields) != len(solver_fields):
            deviation = math.inf  # different plateau counts: no crossings pair up
        else:
            deviation = max((abs(a - b) for a, b in zip(ed_fields, solver_fields)),
                            default=0.0)
        summary["max_crossing_deviation"] = deviation
    (out / "magnetization_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True))
    if unconverged:
        raise NumericalFailure(f"sectors did not converge: {unconverged}")


def cmd_allocation(cfg: RunConfig, out: Path) -> None:
    star, ham = _build_problem(cfg)
    prep = cfg.initial_prep(star)
    spec = cfg.allocation
    times = [(k + 1) * cfg.dt for k in range(spec.n_times)]
    rows = mirror.allocation_study(prep, ham, times, spec.m_totals, spec.f1_grid,
                                   spec.realizations, cfg.seed)
    mirror.write_allocation_csv(out / "allocation.csv", rows)
    best = {}
    for m in spec.m_totals:
        sub = [r for r in rows if r["m_total"] == m and r["mode"] == "f1_sqrt"]
        best[str(m)] = min(sub, key=lambda r: r["typical_error"])["f1_fraction"]
    (out / "allocation_summary.json").write_text(
        json.dumps({"best_f1_fraction_f1_sqrt": best}, indent=2, sort_keys=True))


COMMANDS = {
    "spectrum": cmd_spectrum,
    "overlaps": cmd_overlaps,
    "converge": cmd_converge,
    "magnetization": cmd_magnetization,
    "allocation": cmd_allocation,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkrylov",
        description="Hybrid Krylov ground-state estimation on Heisenberg star plaquettes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON run configuration (defaults reproduce the "
                            "published settings)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=Path, default=Path("results"),
                       help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility, at least 1; has no effect "
                            "(runs are serial)")
    return parser


def _openblas_threads():
    """The get and set thread-count functions of numpy's bundled OpenBLAS, or
    None when they are not found (the run then stays unpinned)."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        get, set_ = (getattr(dll, f"scipy_openblas_{op}_num_threads64_", None)
                     for op in ("get", "set"))
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    blas = _openblas_threads()
    previous = blas[0]() if blas else None
    if blas:
        blas[1](1)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.validate()
        out = args.out
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"cannot create the output directory {out}: {exc.strerror}") from exc
        (out / "run_config.json").write_text(cfg.to_json())
        COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, mirror.EstimateUndefined) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if blas:
            blas[1](previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
