"""Traced in-process run of the starkrylov CLI.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python bench/tracer.py REPORT.json <cli arguments ...>

Wraps every public function and method of each layer module, the numpy and
scipy LAPACK entry points, the output writers and ``Path.write_text``, then
calls ``starkrylov.cli.main`` once inside a root span ``cli.command`` and
writes the per-layer metrics and the aggregated span table to REPORT.json.
The process exits with the CLI's exit code.

Modules bind the functions they import, so a wrapper replaces the original
object under every name that holds it in every ``starkrylov`` module.  Spans
stay in memory, aggregated per (name, parent).  A span's self time is its
duration minus the time covered by its child spans; a LAPACK call is a child
span whose time is credited to the layer of the span that encloses it.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import pathlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("lattice", "hamiltonian", "statevec", "prep", "trotter", "mirror",
          "noise", "krylov", "magnet")
LAPACK = (("numpy.linalg", ("eigh", "svd", "eig")),
          ("scipy.linalg", ("eigh", "svd", "eig")))
# spans whose per-call inclusive durations are kept for percentiles
SAMPLED = ("krylov.solve", "mirror.estimate_overlap")
# called millions of times: counted, not timed
COUNTED_ONLY = {"krylov.OverlapSeries.value": "krylov.series_value_calls",
                "statevec.GateOp.__post_init__": "statevec.gateop_new"}
# span names become metric names by this table: (metric prefix, span name)
SPAN_METRICS = (
    ("hamiltonian.evolve", "hamiltonian.SpinHamiltonian.evolve"),
    ("statevec.apply_gate", "statevec.apply_gate"),
    ("statevec.sample", "statevec.sample_bitstrings"),
    ("prep.state", "prep.PrepCircuit.state"),
    ("trotter.step_unitaries", "trotter.step_unitaries"),
    ("mirror.estimate_overlap", "mirror.estimate_overlap"),
    ("krylov.solve", "krylov.solve"),
)


class Tracer:
    """Span stack and aggregates for one traced run.

    One stack serves the whole process, so only one thread may run traced
    code at a time; with ``--threads 1`` the CLI's pool runs one worker while
    the calling thread waits."""

    def __init__(self):
        # a frame is [span name, layer, seconds covered by child spans]
        self.stack = [["(outside)", "(outside)", 0.0]]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.layer_self: dict[str, float] = defaultdict(float)
        self.lapack: dict[tuple[str, str], list] = {}  # (call, layer) -> [calls, s]
        self.durations = {name: [] for name in SAMPLED}
        self.counts: Counter = Counter()
        # next() on an itertools.count returns the number of calls so far
        self.call_counters = {key: itertools.count() for key in COUNTED_ONLY.values()}
        self.trajectory_hit = False

    # -- wrappers ---------------------------------------------------------------

    def span(self, name: str, layer: str | None, fn, after=None):
        """Wrap ``fn`` in a span; ``layer=None`` takes the enclosing layer
        (LAPACK calls).  ``after(result, args)`` runs on normal return."""
        stack, spans, layer_self = self.stack, self.spans, self.layer_self
        durations = self.durations.get(name)
        lapack = self.lapack if layer is None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, layer or parent[1], 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent[2] += dur
                own = dur - frame[2]
                stat = spans.get((name, parent[0]))
                if stat is None:
                    stat = spans[(name, parent[0])] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += dur
                stat[2] += own
                layer_self[frame[1]] += own
                if durations is not None:
                    durations.append(dur)
                if lapack is not None:
                    entry = lapack.setdefault((name, frame[1]), [0, 0.0])
                    entry[0] += 1
                    entry[1] += dur
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- hooks for counts measured where the work happens ------------------------

    def _after_apply_gate(self, result, args):
        self.counts["statevec.gate_bytes_computed"] += 2 * 16 * (1 << args[0].n_qubits)

    def _after_pauli_gate(self, result, args):
        if self.stack[-1][0] == "noise.noisy_apply":
            self.counts["noise.pauli_errors"] += 1
            self.trajectory_hit = True

    def _after_noisy_apply(self, result, args):
        self.counts["noise.trajectories"] += 1
        if not self.trajectory_hit:
            self.counts["noise.error_free_trajectories"] += 1
        self.trajectory_hit = False

    def _after_postselect(self, result, args):
        self.counts["noise.postselect_shots"] += len(args[0])
        self.counts["noise.postselect_discards"] += result[1]

    def _after_solve(self, result, args):
        self.counts["krylov.retained_rank_sum"] += result.retained_rank
        self.counts["krylov.flagged"] += bool(result.flags)

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        import starkrylov.cli  # noqa: F401  (imports every layer module)

        modules = [m for n, m in sys.modules.items()
                   if n == "starkrylov" or n.startswith("starkrylov.")]
        hooks = {
            "statevec.apply_gate": self._after_apply_gate,
            "statevec.pauli_gate": self._after_pauli_gate,
            "noise.noisy_apply": self._after_noisy_apply,
            "noise.postselect_f1": self._after_postselect,
            "krylov.solve": self._after_solve,
        }

        def rebind(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for layer in LAYERS:
            module = sys.modules[f"starkrylov.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if _traceable(obj):
                    if attr.startswith("write_"):
                        rebind(obj, self.span(f"cli.write.{attr}", "cli", obj))
                    else:
                        name = f"{layer}.{attr}"
                        rebind(obj, self.span(name, layer, obj, hooks.get(name)))
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        name = f"{layer}.{attr}.{meth_name}"
                        if (not meth_name.startswith("_") and _traceable(meth)
                                and name not in COUNTED_ONLY):
                            setattr(obj, meth_name, self.span(name, layer, meth))

        # too hot to time: counted through fixed-signature wrappers, since a
        # generic *args wrapper costs three times as much per call
        krylov = sys.modules["starkrylov.krylov"]
        statevec = sys.modules["starkrylov.statevec"]
        series_calls, gateop_new = self.call_counters.values()
        value, post_init = krylov.OverlapSeries.value, statevec.GateOp.__post_init__

        def counted_value(series, m):
            next(series_calls)
            return value(series, m)

        def counted_post_init(gate):
            next(gateop_new)
            post_init(gate)

        krylov.OverlapSeries.value = functools.wraps(value)(counted_value)
        statevec.GateOp.__post_init__ = functools.wraps(post_init)(counted_post_init)
        pathlib.Path.write_text = self.span("cli.write.Path.write_text", "cli",
                                            pathlib.Path.write_text)
        for module_name, calls in LAPACK:
            module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
            for call in calls:
                setattr(module, call, self.span(f"lapack.{call}", None,
                                                getattr(module, call)))

    # -- results ---------------------------------------------------------------------

    def metrics(self, command_s: float) -> dict[str, float]:
        """Per-layer metrics; ``cli.bytes_written`` and ``cli.trace_overhead_s``
        are added by the harness, which sees the untraced runs and outputs."""
        out: dict[str, float] = {}

        def span_totals(name):
            calls = sum(s[0] for (n, _), s in self.spans.items() if n == name)
            own = sum(s[2] for (n, _), s in self.spans.items() if n == name)
            return calls, own

        def lapack_s(call, layer):
            return self.lapack.get((f"lapack.{call}", layer), [0, 0.0])

        for prefix, name in SPAN_METRICS:
            out[f"{prefix}_calls"], out[f"{prefix}_s"] = span_totals(name)
        for prefix in SAMPLED:
            calls = sorted(self.durations[prefix])
            out[f"{prefix}_p50_ms"] = 1e3 * statistics.median(calls) if calls else 0.0
            out[f"{prefix}_ptail_ms"] = 1e3 * tail_value(calls)
        out["hamiltonian.eigh_calls"], out["hamiltonian.eigh_s"] = lapack_s("eigh", "hamiltonian")
        out["krylov.svd_s"] = lapack_s("svd", "krylov")[1]
        out["krylov.eig_s"] = lapack_s("eig", "krylov")[1]
        c = self.counts
        out["statevec.gate_bytes_computed"] = c["statevec.gate_bytes_computed"]
        out["statevec.gateop_new"] = c["statevec.gateop_new"]
        out["prep.reference_superposition_calls"] = span_totals("prep.reference_superposition")[0]
        out["prep.invert_calls"] = span_totals("prep.invert")[0]
        out["mirror.ablation_s"] = span_totals("mirror.mitigation_ablation")[1]
        out["noise.trajectories"] = c["noise.trajectories"]
        out["noise.noisy_apply_s"] = span_totals("noise.noisy_apply")[1]
        out["noise.pauli_errors"] = c["noise.pauli_errors"]
        out["noise.error_free_frac"] = _ratio(c["noise.error_free_trajectories"],
                                              c["noise.trajectories"])
        out["noise.postselect_discard_frac"] = _ratio(c["noise.postselect_discards"],
                                                      c["noise.postselect_shots"])
        out["krylov.series_value_calls"] = c["krylov.series_value_calls"]
        out["krylov.retained_rank_mean"] = _ratio(c["krylov.retained_rank_sum"],
                                                  out["krylov.solve_calls"])
        out["krylov.flagged_frac"] = _ratio(c["krylov.flagged"], out["krylov.solve_calls"])
        out["magnet.estimate_s"] = span_totals("magnet.estimate_sector_energies")[1]
        out["magnet.curve_s"] = span_totals("magnet.build_curve")[1]
        out["cli.command_s"] = command_s
        out["cli.write_s"] = sum(s[2] for (n, _), s in self.spans.items()
                                 if n.startswith("cli.write."))
        return out

    def report(self, command_s: float) -> dict:
        for key, calls in self.call_counters.items():
            self.counts[key] = next(calls)
        return {
            "metrics": self.metrics(command_s),
            "layer_self_s": dict(sorted(self.layer_self.items())),
            "lapack": [{"call": n, "layer": layer, "calls": c, "seconds": s}
                       for (n, layer), (c, s) in sorted(self.lapack.items())],
            "spans": [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                      for (n, p), (c, t, s) in sorted(self.spans.items())],
            "counts": dict(sorted(self.counts.items())),
        }


def _traceable(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_value(sorted_values: list[float]) -> float:
    """Highest percentile with at least 10 values beyond it: the value at
    rank n - 10 of n, or 0 when there are 10 values or fewer."""
    n = len(sorted_values)
    return sorted_values[n - 11] if n > 10 else 0.0


def main(argv: list[str]) -> int:
    report_path, cli_argv = pathlib.Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from starkrylov import cli

    command = tracer.span("cli.command", "cli", cli.main)
    t0 = perf_counter()
    code = command(cli_argv)
    command_s = perf_counter() - t0
    report = tracer.report(command_s)
    report["exit_code"] = code
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
