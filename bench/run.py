"""starkrylov benchmark: timed CLI runs per workload, or one traced run.

    python3 bench/run.py --workload {magnet12,sampled8,noisy8} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Every program run is a fresh
``python -m starkrylov.cli`` child with ``PYTHONPATH=src`` and an empty output
directory; runs go one at a time (a closed loop with one client).

``--trace 0``: run the CLI in a closed loop for ``--seconds`` (at least one
run) and report the medians of wall time, child CPU time and child peak RSS,
plus set-up time (median of fresh interpreters that import ``starkrylov.cli``
and load and validate the config, probed before and after the timed runs).
``--trace 1``: one CLI run as the untraced reference, then one traced
in-process run (``bench/tracer.py``), reporting the per-layer metrics.

Each run's outputs go through the workload's oracle and their sha256 digests
must equal the first recorded run of the same source tree, workload and seed.
The traced invocation of a workload with ``check_threads`` also runs
``THREADS_CHECK`` (sampled8) at ``--threads 1`` and ``2``, untimed, and
requires the same bytes.  The last line of standard output is the JSON
result; every result is also saved under ``.bench_out/results`` with an
environment stamp (see ``bench/compare.py``) and, for a traced run, the
aggregated span table.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import THREADS_CHECK, WORKLOADS, Workload, cli_args

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SETUP_REPS = 6
DEADLINE_S = 170.0  # an invocation must end within 180 s

SETUP_CODE = """\
import sys
import starkrylov.cli
from starkrylov.config import RunConfig
cfg = RunConfig.from_json(sys.argv[1])
cfg.seed = int(sys.argv[2])
cfg.validate()
"""

STAMP_CODE = """\
import ctypes, json, pathlib, sys
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in sorted((pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
    dll = ctypes.CDLL(str(lib))
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(dll, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
            break
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": threads}))
"""


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], deadline: float, stderr_path: Path) -> ChildRun:
    """Spawn one child and wait for it; wall time is spawn to exit, CPU and
    peak RSS come from the child's own rusage.  Killed at ``deadline``."""
    killed = threading.Event()
    done = threading.Lock()
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill():
            with done:
                if proc.returncode is None:
                    killed.set()
                    proc.kill()

        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            with done:
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    message = stderr_path.read_text(errors="replace")[-2000:]
    if killed.is_set():
        message += "\nkilled at the benchmark deadline"
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, message)


def file_digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def environment_stamp(workload: str, seed: int, deadline: float) -> dict:
    stamp = {"workload": workload, "seed": seed, "git_commit": None,
             "source_sha256": source_digest(), "nproc": os.cpu_count(),
             "cpu_model": None}
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        stamp["git_commit"] = git.stdout.strip() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                stamp["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    probe = subprocess.run([sys.executable, "-c", STAMP_CODE], cwd=ROOT, env=child_env(),
                           capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    if probe.returncode != 0:
        raise RuntimeError(f"environment probe failed: {probe.stderr[-2000:]}")
    stamp.update(json.loads(probe.stdout))
    return stamp


class Ledger:
    """Attempted/failed program runs and the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: " + "; ".join(problems))


class Digests:
    """Output digests of the first run of this source tree, workload and seed;
    every later run must reproduce them byte for byte."""

    def __init__(self, workload: str, seed: int, source_sha: str):
        self.path = OUT / "digests" / source_sha[:16] / f"{workload}-s{seed}.json"
        self.reference = json.loads(self.path.read_text()) if self.path.exists() else None

    def check(self, digests: dict[str, str]) -> list[str]:
        if self.reference is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(digests, indent=1, sort_keys=True))
            self.reference = digests
            return []
        differ = sorted(k for k in set(digests) | set(self.reference)
                        if digests.get(k) != self.reference.get(k))
        return [f"output bytes differ from the first run: {differ}"] if differ else []


def seed_commit_comparison(workload: str, seed: int, digests: dict[str, str] | None) -> str:
    """Informational: do the outputs equal those recorded on the seed commit?"""
    recorded = json.loads((BENCH / "seed_digests.json").read_text())
    expected = recorded["workloads"].get(workload, {}).get(str(seed))
    if expected is None or digests is None:
        return "not recorded for this seed"
    differ = sorted(k for k in set(digests) | set(expected)
                    if digests.get(k) != expected.get(k))
    return "match" if not differ else "differ: " + ", ".join(differ)


def cli_run(workload: Workload, config: Path, seed: int, out: Path, deadline: float,
            threads: int = 1) -> ChildRun:
    argv = [sys.executable, "-m", "starkrylov.cli", *cli_args(workload, config, seed, out,
                                                              threads)]
    return run_child(argv, deadline, out.with_suffix(".stderr"))


def judge(workload: Workload, run: ChildRun, out: Path) -> list[str]:
    if run.code != 0:
        return [f"exit code {run.code}: {run.stderr.strip()[-500:]}"]
    try:
        return workload.oracle(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"oracle could not read the outputs: {exc!r}"]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least 10 samples
    beyond it, or None with 10 samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure_setup(config: Path, seed: int, deadline: float, work: Path, ledger: Ledger,
                  reps: int, warm_up: bool = False) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and load and
    validate the config; a warm-up probe fills the file cache and is dropped."""
    argv = [sys.executable, "-c", SETUP_CODE, str(config), str(seed)]
    times = []
    for i in range(reps + warm_up):
        run = run_child(argv, deadline, work / "setup.stderr")
        ledger.record("set-up probe",
                      [] if run.code == 0 else [f"exit code {run.code}: {run.stderr}"])
        if i >= warm_up:
            times.append(run.wall_s)
    return times


def timed_runs(workload: Workload, config: Path, seed: int, seconds: float, deadline: float,
               work: Path, ledger: Ledger, digests: Digests, max_runs: int | None = None):
    runs: list[ChildRun] = []
    last_digests = None
    start = time.monotonic()
    while not runs or (time.monotonic() - start < seconds
                       and (max_runs is None or len(runs) < max_runs)
                       and deadline - time.monotonic() > 2 * max(r.wall_s for r in runs)):
        out = work / f"run{len(runs)}"
        run = cli_run(workload, config, seed, out, deadline)
        runs.append(run)
        problems = judge(workload, run, out)
        if run.code == 0:
            last_digests = file_digests(out)
            problems += digests.check(last_digests)
        ledger.record(f"timed run {len(runs) - 1}", problems)
        shutil.rmtree(out, ignore_errors=True)
    return runs, last_digests


def write_config(workload: Workload, path: Path) -> Path:
    path.write_text(json.dumps(workload.config, indent=1, sort_keys=True))
    return path


def threads_check(seed: int, deadline: float, work: Path, ledger: Ledger,
                  source_sha: str) -> str:
    """Run THREADS_CHECK at --threads 1 and 2, untimed: both must pass its
    oracle and write the bytes of the first recorded run for this seed."""
    workload = THREADS_CHECK
    config = write_config(workload, work / f"{workload.name}.json")
    digests = Digests(workload.name, seed, source_sha)
    problems = []
    for threads in (1, 2):
        out = work / f"{workload.name}-threads{threads}"
        run = cli_run(workload, config, seed, out, deadline, threads=threads)
        found = judge(workload, run, out)
        if run.code == 0:
            found += digests.check(file_digests(out))
        ledger.record(f"{workload.name} --threads {threads} run", found)
        problems += found
        shutil.rmtree(out, ignore_errors=True)
    return (f"{workload.name} bytes equal at --threads 1 and 2" if not problems
            else "; ".join(problems))


def traced_run(workload: Workload, config: Path, seed: int, deadline: float, work: Path,
               ledger: Ledger, digests: Digests) -> dict | None:
    out = work / "traced"
    report_path = work / "trace.json"
    argv = [sys.executable, str(BENCH / "tracer.py"), str(report_path),
            *cli_args(workload, config, seed, out)]
    run = run_child(argv, deadline, work / "traced.stderr")
    problems = judge(workload, run, out)
    if run.code == 0:
        problems += digests.check(file_digests(out))
    ledger.record("traced run", problems)
    if not report_path.exists():
        return None
    report = json.loads(report_path.read_text())
    report["metrics"]["cli.bytes_written"] = sum(p.stat().st_size for p in out.rglob("*")
                                                 if p.is_file())
    return report


def print_trace_report(report: dict, wall_s: float, setup_s: float) -> None:
    m = report["metrics"]
    command_s = m["cli.command_s"]
    print("layer self time in the traced run (LAPACK calls count toward the enclosing layer):")
    for layer, seconds in sorted(report["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {seconds:10.4f} s  {100 * seconds / command_s:6.2f} %")
    total = sum(report["layer_self_s"].values())
    print(f"  {'sum':<12} {total:10.4f} s   (cli.command_s {command_s:.4f} s)")
    print(f"  untraced wall_s - setup_s = {wall_s - setup_s:.4f} s; "
          f"cli.trace_overhead_s = {m['cli.trace_overhead_s']:.4f} s")
    for entry in report["lapack"]:
        print(f"  LAPACK {entry['call']:<14} in {entry['layer']:<12} "
              f"{entry['calls']:8d} calls {entry['seconds']:10.4f} s")
    exact = {k: v for k, v in m.items()
             if k.endswith(("_calls", "_new", "_computed", "_written"))
             or k in ("noise.trajectories", "noise.pauli_errors")}
    print("exact counts: " + ", ".join(f"{k}={int(v)}" for k, v in sorted(exact.items())))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "starkrylov" / "cli.py").is_file():
        print(f"no starkrylov sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    work = OUT / "work" / f"{workload.name}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = write_config(workload, work / "config.json")
        stamp = environment_stamp(workload.name, args.seed, deadline)
        ledger = Ledger()
        digests = Digests(workload.name, args.seed, stamp["source_sha256"])

        # set-up is probed before and after the timed runs, so its median
        # spans more of the machine's speed drift (tens of seconds)
        setup = measure_setup(config, args.seed, deadline, work, ledger,
                              SETUP_REPS // 2, warm_up=True)
        runs, last_digests = timed_runs(workload, config, args.seed, args.seconds, deadline,
                                        work, ledger, digests,
                                        max_runs=1 if args.trace else None)
        setup += measure_setup(config, args.seed, deadline, work, ledger,
                               SETUP_REPS - SETUP_REPS // 2)
        setup_s = statistics.median(setup)
        ok = [r for r in runs if r.code == 0] or runs
        walls = [r.wall_s for r in ok]
        end_to_end = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in ok), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in ok), "MB"),
            "setup_s": (setup_s, "s"),
        }
        threads = (threads_check(args.seed, deadline, work, ledger, stamp["source_sha256"])
                   if args.trace and workload.check_threads else None)
        report = (traced_run(workload, config, args.seed, deadline, work, ledger, digests)
                  if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    seed_commit = seed_commit_comparison(workload.name, args.seed, last_digests)
    print(f"stamp: {json.dumps(stamp, sort_keys=True)}")
    print(f"workload {workload.name}: {workload.command}, seed {args.seed}, "
          f"{len(runs)} timed run(s), closed loop with one client")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<12} {value:12.6f} {unit}")
    tail = tail_percentile(walls)
    if tail is not None:
        print(f"  wall_s p{tail[0]:.1f}  {tail[1]:12.6f} s")
    print(f"  digests vs seed commit (informational): {seed_commit}")
    if threads is not None:
        print(f"  --threads invariance: {threads}")
    if report is not None:
        report["metrics"]["cli.trace_overhead_s"] = (
            report["metrics"]["cli.command_s"] - (end_to_end["wall_s"][0] - setup_s))
        print_trace_report(report, end_to_end["wall_s"][0], setup_s)
    for problem in ledger.problems:
        print(f"  FAILED {problem}")
    print(f"failed {ledger.failed} of {ledger.attempted} attempted program runs")

    if args.trace:
        units = {"_s": "s", "_ms": "ms", "_frac": "ratio", "_mean": "rank",
                 "_computed": "B", "_written": "B"}
        metrics = {k: {"value": v, "unit": next((u for suf, u in units.items()
                                                 if k.endswith(suf)), "count")}
                   for k, v in sorted((report or {"metrics": {}})["metrics"].items())}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    result = {"correct": ledger.failed == 0 and report is not None if args.trace
              else ledger.failed == 0,
              "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    saved = OUT / "results" / (f"{workload.name}-s{args.seed}-trace{args.trace}-"
                               f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    saved.parent.mkdir(parents=True, exist_ok=True)
    saved.write_text(json.dumps({**result, "stamp": stamp, "digests": last_digests,
                                 "seed_commit_digests": seed_commit,
                                 "runs": [{k: v for k, v in vars(r).items() if k != "stderr"}
                                          for r in runs],
                                 "problems": ledger.problems, "trace": report}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
