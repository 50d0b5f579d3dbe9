"""Command-line front door.

Subcommands: spectrum | overlaps | converge | magnetization | allocation.
Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
Identical config and seed produce byte-identical output files on one machine,
whatever its BLAS thread count: ``main`` runs each command on one OpenBLAS
thread and restores the previous count afterwards.

Every output file is written here: its name, CSV or JSON schema and number
formats sit next to the command that writes it.  A missing value (None, or a
NaN left by a circuit with no shots) is an empty cell.

A process that imports this module before numpy (``python -m starkrylov.cli``,
the ``starkrylov`` script) starts OpenBLAS with one thread, so it never spawns
the thread pool that ``main`` would leave idle.  ``OPENBLAS_NUM_THREADS`` is
set only while numpy loads, and only when unset, so a count the user chose is
kept and child processes see the environment unchanged.  Such a process ends
``main`` with ``gc.freeze()``, so the garbage collections at its exit skip
the run's objects.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

_FRESH_PROCESS = "numpy" not in sys.modules
_ONE_THREAD_START = _FRESH_PROCESS and "OPENBLAS_NUM_THREADS" not in os.environ
if _ONE_THREAD_START:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np  # noqa: E402  (OpenBLAS reads its thread count on load)

if _ONE_THREAD_START:
    del os.environ["OPENBLAS_NUM_THREADS"]

# csv loads after numpy; the 0.08 MB more peak RSS once measured on noisy8 for
# the other order is within the 0.2-0.45 MB heap-layout flips of that metric
import csv  # noqa: E402
import io  # noqa: E402

from . import krylov, magnet, mirror
from .config import Build, ConfigError, RunConfig


class NumericalFailure(RuntimeError):
    """Unconverged magnetization sectors; exit code 3.  Flagged estimates do not raise."""


def _write_csv(path: Path, header, rows) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(text.getvalue(), newline="")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))


def _cell(value, spec: str) -> str:
    """``value`` in the format ``spec``, or an empty cell when it is missing:
    None or NaN."""
    if value is None or math.isnan(value):
        return ""
    return format(value, spec)


def _series_for(cfg: RunConfig, build: Build):
    """One (series, estimates) pair per distinct series of the run: a sampled
    series per realization, or the one exact series, which has no estimates
    and stands for every realization."""
    evolver = mirror.make_evolver(cfg.evolver, build.ham, dt_step=cfg.dt,
                                  reverse_groups=cfg.reverse_trotter_groups)
    if cfg.shots is None:
        series = mirror.overlap_series_exact(build.prep.state(), evolver, cfg.dt, cfg.steps)
        return [(series, None)]
    return mirror.overlap_series_sampled(
        build.prep, evolver, cfg.dt, cfg.steps, cfg.shots, cfg.seed,
        noise=cfg.noise, realizations=range(cfg.realizations),
        magnitude_source=cfg.magnitude_source)


def cmd_spectrum(cfg: RunConfig, build: Build, out: Path) -> None:
    star, ham, _ = build
    _write_csv(out / "spectrum.csv", ["sector", "index", "energy"],
               ([f"{sz:g}", i, f"{e:.12f}"] for sz, energies in ham.sector_spectra().items()
                for i, e in enumerate(energies)))
    summary = {
        "n_sites": star.n_sites,
        "h_field": cfg.h_field,
        "ground_energy": ham.ground_state_energy(),
        "sector_ground_energies": {f"{sz:g}": e for sz, e
                                   in sorted(ham.sector_ground_energies().items())},
    }
    _write_json(out / "spectrum_summary.json", summary)


def _write_overlaps(path: Path, dt: float, values, estimates, mode: str) -> None:
    """Row k holds s_k at t = k dt and, for k >= 1 of a sampled series, the
    fractions and discard counts of its estimate ``estimates[k - 1]``."""
    def row(k, v):
        est = estimates[k - 1] if estimates is not None and k >= 1 else None
        fractions = (None,) * 3 if est is None else est.fractions
        discards = ("",) * 3 if est is None else est.discards
        return [k, f"{k * dt:.9f}", f"{v.real:.12e}", f"{v.imag:.12e}",
                *(_cell(f, ".9f") for f in fractions), *discards, mode]

    _write_csv(path, ["k", "t", "re", "im", "F1", "F2", "F3",
                      "discarded1", "discarded2", "discarded3", "mode"],
               (row(k, v) for k, v in enumerate(values)))


def _write_ablation(path: Path, rows) -> None:
    """Rows of (t, mode, f1_err, f2_err, f3_err, overlap_err)."""
    _write_csv(path, ["t", "mode", "f1_err", "f2_err", "f3_err", "overlap_err"],
               ([f"{t:.9f}", mode, *(_cell(e, ".9e") for e in errors)]
                for t, mode, *errors in rows))


def cmd_overlaps(cfg: RunConfig, build: Build, out: Path) -> None:
    mode = ("exact" if cfg.shots is None
            else "noisy" if cfg.noise is not None and cfg.noise.p_pauli > 0 else "sampled")
    runs = _series_for(cfg, build)
    for r, (series, estimates) in enumerate(runs):
        name = "overlaps.csv" if len(runs) == 1 else f"overlaps_r{r:03d}.csv"
        _write_overlaps(out / name, cfg.dt, series.values, estimates, mode)
        if mode == "exact" and series.neg_values is not None:
            _write_overlaps(out / "overlaps_negative.csv", -cfg.dt, series.neg_values, None, mode)
    if mode == "noisy":
        # emulator-style ablation over at most 20 time steps (4 mitigation
        # combinations per step, each a full trajectory-sampled estimate)
        rows = mirror.mitigation_ablation(build.prep, build.ham, cfg.dt, min(cfg.steps, 20),
                                          cfg.shots, cfg.noise, cfg.seed, cfg.magnitude_source)
        _write_ablation(out / "mitigation_ablation.csv", rows)


def _write_convergence(path: Path, rows) -> None:
    """Rows of (algorithm, delta, step, energy, energy_error, retained_rank)."""
    _write_csv(path, ["algorithm", "delta", "step", "energy", "energy_error",
                      "retained_rank"],
               ([algorithm, f"{delta:g}", step, f"{energy:.12f}", f"{error:.12e}", rank]
                for algorithm, delta, step, energy, error, rank in rows))


def cmd_converge(cfg: RunConfig, build: Build, out: Path) -> None:
    runs = [series for series, _ in _series_for(cfg, build)]
    # after the series, whose spectral sum keeps the sector's energies: one ED
    sector = cfg.initial.sz if cfg.initial.kind == "sector" else 0
    e_exact = build.ham.ground_state_energy(sector=float(sector))
    repeat = cfg.realizations // len(runs)  # the exact series' cell stands for every run
    csv_rows = []
    spread_rows = []
    summary = {}
    for solver in cfg.solvers:
        steps = krylov.SOLVERS[solver].steps(cfg.steps, cfg.odmd_window)
        solved = krylov.sweep(solver, runs, steps, cfg.deltas, tuple(cfg.eigenvalue_band),
                              cfg.odmd_window, cfg.odmd_real_part)
        for delta in cfg.deltas:
            steps_to_tol = None
            flag_counts: Counter = Counter()
            for ns in steps:
                cell = solved[ns, delta] * repeat
                flag_counts.update(flag for est in cell for flag in est.flags)
                energies = [est.energy for est in cell]
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
    _write_convergence(out / "convergence.csv", csv_rows)
    if cfg.realizations > 1:
        # same schema; 'energy' holds the std across realizations and
        # 'energy_error' the mean absolute error
        _write_convergence(out / "convergence_spread.csv", spread_rows)
    summary["exact_ground_energy"] = e_exact
    summary["realizations"] = cfg.realizations
    _write_json(out / "convergence_summary.json", summary)


def _write_sectors(path: Path, sector_energies: dict) -> None:
    _write_csv(path, ["sector", "E0"],
               ([sz, f"{sector_energies[sz]:.12f}"] for sz in sorted(sector_energies)))


def _write_curve(path: Path, curve: magnet.MagnetizationCurve) -> None:
    """One row per plateau; the saturated plateau's h_end prints as inf."""
    _write_csv(path, ["h_start", "h_end", "Sz", "energy_at_h_start"],
               ([f"{p.h_start:.12f}", f"{p.h_end:.12f}", p.sz, f"{p.energy_at_h_start:.12f}"]
                for p in curve.plateaus))


def cmd_magnetization(cfg: RunConfig, build: Build, out: Path) -> None:
    spec = cfg.magnet
    # one pass over the sectors at h = 0; meta carries each sector's ED energy
    solver_energies, meta = magnet.estimate_sector_energies(
        build.star, method=spec.solver, delta=spec.delta, n_steps=spec.n_steps, dt=spec.dt)
    ed_energies = {sz: meta[sz]["exact"] for sz in meta}
    ed_curve = magnet.build_curve(ed_energies, build.star.n_sites)
    _write_sectors(out / "sectors_ed.csv", ed_energies)
    _write_curve(out / "magnetization_ed.csv", ed_curve)
    unconverged = [sz for sz, m in meta.items() if not m["converged"]]
    _write_sectors(out / f"sectors_{spec.solver}.csv", solver_energies)
    summary = {
        "crossing_fields_ed": list(ed_curve.crossing_fields),
        "sector_errors": {str(sz): meta[sz]["final_error"] for sz in sorted(meta)},
        "sector_ranks": {str(sz): meta[sz]["retained_rank"] for sz in sorted(meta)},
        "sector_flags": {str(sz): list(meta[sz]["flags"]) for sz in sorted(meta)},
        "unconverged_sectors": unconverged,
    }
    if not unconverged:
        solver_curve = magnet.build_curve(solver_energies, build.star.n_sites)
        _write_curve(out / f"magnetization_{spec.solver}.csv", solver_curve)
        ed_fields, solver_fields = ed_curve.crossing_fields, solver_curve.crossing_fields
        summary[f"crossing_fields_{spec.solver}"] = list(solver_fields)
        if len(ed_fields) != len(solver_fields):
            deviation = math.inf  # different plateau counts: no crossings pair up
        else:
            deviation = max((abs(a - b) for a, b in zip(ed_fields, solver_fields)),
                            default=0.0)
        summary["max_crossing_deviation"] = deviation
    _write_json(out / "magnetization_summary.json", summary)
    if unconverged:
        raise NumericalFailure(f"sectors did not converge: {unconverged}")


def cmd_allocation(cfg: RunConfig, build: Build, out: Path) -> None:
    spec = cfg.allocation
    times = [(k + 1) * cfg.dt for k in range(spec.n_times)]
    rows = mirror.allocation_study(build.prep, build.ham, times, spec.m_totals, spec.f1_grid,
                                   spec.realizations, cfg.seed)
    _write_csv(out / "allocation.csv",
               ["m_total", "f1_fraction", "mode", "typical_error", "error_spread"],
               ([r["m_total"], f"{r['f1_fraction']:.4f}", r["mode"],
                 _cell(r["typical_error"], ".9e"), _cell(r["error_spread"], ".9e")]
                for r in rows))
    best = {}  # a grid point whose F1 or F2/F3 circuits get no shots has no error
    for m in spec.m_totals:
        sub = [r for r in rows if r["m_total"] == m and r["mode"] == "f1_sqrt"
               and not math.isnan(r["typical_error"])]
        best[str(m)] = min(sub, key=lambda r: r["typical_error"])["f1_fraction"] if sub else None
    _write_json(out / "allocation_summary.json", {"best_f1_fraction_f1_sqrt": best})


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
        build = cfg.validate(args.command)
        out = args.out
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"cannot create the output directory {out}: {exc.strerror}") from exc
        (out / "run_config.json").write_text(cfg.to_json())
        COMMANDS[args.command](cfg, build, out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, mirror.EstimateUndefined) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if blas:
            blas[1](previous)
        if _FRESH_PROCESS:
            gc.freeze()
    return 0


if __name__ == "__main__":
    sys.exit(main())
