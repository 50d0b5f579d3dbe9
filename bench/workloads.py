"""The benchmark's workloads: one CLI command and config each, plus an oracle.

Every run passes the benchmark seed as ``--seed`` and ``--threads 1``; the
configs below are written to disk by the harness and handed to the CLI.
An oracle reads the files a run wrote and returns a list of problems
(empty when the outputs are correct).
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _check_magnet12(out: Path) -> list[str]:
    problems = []
    summary = json.loads((out / "magnetization_summary.json").read_text())
    if summary.get("unconverged_sectors") != []:
        problems.append(f"unconverged sectors {summary.get('unconverged_sectors')}")
    deviation = summary.get("max_crossing_deviation")
    if deviation is None or not deviation <= 1e-3:
        problems.append(f"max_crossing_deviation {deviation} > 1e-3")
    e0 = min(float(row["E0"]) for row in _read_csv(out / "sectors_ed.csv"))
    if abs(e0 + 18.0) > 1e-9:
        problems.append(f"ED ground energy {e0} != -18")
    if len(_read_csv(out / "sectors_uvqpe.csv")) != 7:
        problems.append("sectors_uvqpe.csv does not hold 7 sectors")
    return problems


# Bounds on |final error| at delta = 0.1, fixed from the seed run (0.0025 for
# uvqpe, 0.0091 for odmd at seed 0) with room for other seeds' shot noise;
# seeds 0-3, 11-15, 99, 1000 and 123456 stayed within 0.007 and 0.02.
SAMPLED8_FINAL_ERROR_BOUND = {"uvqpe": 0.02, "odmd": 0.05}


def _check_sampled8(out: Path) -> list[str]:
    problems = []
    summary = json.loads((out / "convergence_summary.json").read_text())
    if abs(summary["exact_ground_energy"] + 12.0) > 1e-9:
        problems.append(f"exact energy {summary['exact_ground_energy']} != -12")
    for solver, bound in SAMPLED8_FINAL_ERROR_BOUND.items():
        err = summary[f"{solver}:delta=0.1"]["final_error"]
        if err is None or not abs(err) <= bound:
            problems.append(f"{solver} final error {err} exceeds {bound}")
    rows = _read_csv(out / "convergence.csv")
    if len(rows) != 3 * 55 + 3 * 54:
        problems.append(f"convergence.csv has {len(rows)} rows, expected 327")
    return problems


_MAX_MAGNITUDE = 3.0 / math.sqrt(2.0) + 1e-12
_ABLATION_MODES = {"none", "postselect", "twirl", "both"}


def _check_noisy8(out: Path) -> list[str]:
    problems = []
    overlaps = _read_csv(out / "overlaps.csv")
    if len(overlaps) != 11:
        problems.append(f"overlaps.csv has {len(overlaps)} rows, expected 11")
    for row in overlaps:
        try:
            int(row["k"])
            # the k = 0 row is s_0 = 1 and carries no measured fractions
            fields = ("t", "re", "im") if row["k"] == "0" else (
                "t", "re", "im", "F1", "F2", "F3",
                "discarded1", "discarded2", "discarded3")
            re, im = (float(row[f]) for f in ("re", "im"))
            for f in fields:
                float(row[f])
        except (ValueError, KeyError) as exc:
            problems.append(f"overlaps.csv row {row}: {exc}")
            continue
        if abs(complex(re, im)) > _MAX_MAGNITUDE:
            problems.append(f"overlap magnitude {abs(complex(re, im))} > 3/sqrt(2)")
    ablation = _read_csv(out / "mitigation_ablation.csv")
    if len(ablation) != 40:
        problems.append(f"mitigation_ablation.csv has {len(ablation)} rows, expected 40")
    for row in ablation:
        try:
            for f in ("t", "f1_err", "f2_err", "f3_err", "overlap_err"):
                float(row[f])
        except (ValueError, KeyError) as exc:
            problems.append(f"mitigation_ablation.csv row {row}: {exc}")
        if row.get("mode") not in _ABLATION_MODES:
            problems.append(f"unknown ablation mode {row.get('mode')!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    oracle: Callable[[Path], list[str]]
    # the traced invocation also runs the --threads check on THREADS_CHECK
    check_threads: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("magnet12", "magnetization", {"n_triangles": 6}, _check_magnet12),
        Workload("sampled8", "converge",
                 {"steps": 55, "shots": {"total": 1000}, "realizations": 10},
                 _check_sampled8),
        Workload("noisy8", "overlaps",
                 {"evolver": "floquet", "steps": 10, "shots": {"total": 200},
                  "noise": {"p_pauli": 0.001, "enable_postselect": True,
                            "enable_twirl": True}},
                 _check_noisy8, check_threads=True),
    )
}

# sampled8 is the only workload whose command uses the thread pool, so it is
# the one run at --threads 1 and 2 to check that output bytes do not depend on
# the thread count (ROADMAP aim 3).  noisy8 hosts the check because its traced
# invocation is the cheapest one the benchmark's driver list makes.
THREADS_CHECK = WORKLOADS["sampled8"]


def cli_args(workload: Workload, config: Path, seed: int, out: Path,
             threads: int = 1) -> list[str]:
    """Arguments after ``python -m starkrylov.cli`` (or for ``cli.main``)."""
    return [workload.command, "--config", str(config), "--seed", str(seed),
            "--out", str(out), "--threads", str(threads)]
