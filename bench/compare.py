"""Compare two sets of saved benchmark results.

    python3 bench/compare.py BASE NEW

BASE and NEW are result files written by ``bench/run.py`` (under
``.bench_out/results``) or directories holding them.  For each workload and
metric this prints the median of each set, the relative change and the
metric's bound from ``BENCHMARK.json``.  The comparison is refused (exit code
2) when the two sets' environment stamps differ in BLAS thread count or
``nproc``, because those change both wall and CPU time.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP_KEYS = ("blas_threads", "nproc")


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def stamp_values(results: list[dict]) -> set[tuple]:
    return {tuple(r["stamp"].get(k) for k in STAMP_KEYS) for r in results}


def medians(results: list[dict]) -> dict[tuple[str, str], tuple[float, float, int]]:
    """(workload, metric) -> (median, quartile spread / median, runs)."""
    values = defaultdict(list)
    for r in results:
        for name, metric in r["metrics"].items():
            values[(r["stamp"]["workload"], name)].append(metric["value"])
    out = {}
    for key, v in values.items():
        med = statistics.median(v)
        spread = 0.0
        if len(v) >= 2 and med:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med)
        out[key] = (med, spread, len(v))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(a)) for a in argv)
    stamps = stamp_values(base) | stamp_values(new)
    if len(stamps) > 1:
        print(f"refusing to compare: stamps differ in {STAMP_KEYS}: {sorted(stamps, key=str)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in spec["end_to_end"] + spec["per_layer"]}
    base_m, new_m = medians(base), medians(new)
    print(f"{'workload':<10} {'metric':<36} {'base':>14} {'new':>14} {'change':>8}  verdict")
    for key in sorted(base_m.keys() & new_m.keys()):
        (b, b_spread, b_n), (n, _, n_n) = base_m[key], new_m[key]
        change = (n - b) / abs(b) if b else 0.0
        worse = change if lower_is_better.get(key[1], True) else -change
        bound = bounds.get(key[1])
        if bound is None:
            verdict = "per-layer, no bound"
        elif b_spread > bound:
            verdict = f"unresolved (base spread {b_spread:.3f} > bound)"
        elif worse > bound:
            verdict = f"WORSE than bound {bound}"
        else:
            verdict = f"within bound {bound}"
        print(f"{key[0]:<10} {key[1]:<36} {b:14.6g} {n:14.6g} {100 * change:7.2f}%  "
              f"{verdict} (runs {b_n}/{n_n})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
