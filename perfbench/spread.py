"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed (tracing off) from the repository root and
prints, for every metric in the reports, the median and the distance
between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), the figure each bound is checked
against.

    python3 perfbench/spread.py offline-int 30 1 2 3 4 5 6 7 8 9 10
"""

import json
import statistics
import subprocess
import sys


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    workload, seconds, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
        check=True,
    )
    values = {}
    for seed in seeds:
        subprocess.run(
            ["cargo", "run", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml", "--",
             "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0"],
            check=True, stdout=subprocess.DEVNULL,
        )
        with open(f".bench_out/report-{workload}-seed{seed}-trace0.json") as f:
            report = json.load(f)
        for name, m in report["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:36s} median {med:14.6g}  spread {spread:.3f}")


if __name__ == "__main__":
    main()
