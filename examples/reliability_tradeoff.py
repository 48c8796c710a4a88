"""Sweep the reliability-overhead tradeoff on one benchmark (Figs. 4-5).

Assigns an increasing fraction of the DC set with the ranking-based
algorithm and synthesises each point under the delay and power objectives,
printing the normalised error rate and overheads.

Run:  python examples/reliability_tradeoff.py [benchmark] [points]
"""

import sys

from repro.benchgen import benchmark_names, mcnc_benchmark
from repro.flows import format_table, fraction_sweep, relative_metrics


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "bench"
    points = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    if name not in benchmark_names():
        raise SystemExit(f"pick one of {benchmark_names()}")
    if points < 2:
        raise SystemExit(f"points must be at least 2 (fractions 0 and 1), got {points}")
    spec = mcnc_benchmark(name)
    fractions = [i / (points - 1) for i in range(points)]

    for objective in ("delay", "power"):
        results = fraction_sweep(spec, fractions, objective=objective)
        rows = []
        for fraction, result in zip(fractions, results):
            rel = relative_metrics(result, results[0])
            rows.append(
                [fraction, rel["error_rate"], rel["area"], rel["delay"], rel["power"]]
            )
        print(f"\n{name}, {objective}-optimised (normalised to fraction 0):")
        print(format_table(["fraction", "error", "area", "delay", "power"], rows))

    print("\nerror rate falls as more DCs are assigned for reliability;")
    print("area/power overhead grows — the Figs. 4-5 tradeoff.")


if __name__ == "__main__":
    main()
