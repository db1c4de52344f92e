"""Run the benchmark over several seeds and record a baseline.

    python3 perfbench/prove.py [--workloads NAME ...] [--seeds 1 2 ...]
                               [--traced] [--out perfbench/baseline.json]

For every workload and seed it runs
``run.py`` with ``BENCHMARK.json``'s ``run_seconds``, then reports each
end-to-end metric's median and its spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  A spread must stay
below a third of its bound (``setup_s`` excepted) for the benchmark to
count as steady.  ``--traced`` adds one ``--trace 1`` run per workload
(first seed) to the record.  ``--out`` writes everything, with the
provenance of the measurement (git sha, CPUs, python/numpy versions,
source digest), as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import repo_root, source_digest  # noqa: E402


def bench(spec, workload, seed, trace):
    start = time.monotonic()
    proc = subprocess.run(
        spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def git_sha():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None):
    os.chdir(repo_root())
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+",
        default=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, default=list(range(1, 11))
    )
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    import numpy

    record = {
        "provenance": {
            "git_sha": git_sha(),
            "src_sha256": source_digest(repo_root()),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "recorded_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "run_seconds": spec["run_seconds"],
            "seeds": args.seeds,
        },
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = bench(spec, workload, seed, 0)
            runs.append(result)
            print(
                f"{workload} seed={seed} wall={result['wall_s']:.1f}s "
                f"correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']} "
                + ", ".join(
                    f"{k}={v['value']:.4g} {v['unit']}"
                    for k, v in result["metrics"].items()
                ),
                flush=True,
            )
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            ok = name == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            summary[name] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "values": values,
            }
            print(
                f"  {name:<20} median={statistics.median(values):.5g} "
                f"spread={spread:.4f} bound={metric['bound']} "
                f"{'ok' if ok else 'WIDE'}",
                flush=True,
            )
        entry = {
            "end_to_end": summary,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "max_wall_s": max(r["wall_s"] for r in runs),
            "mean_wall_s": statistics.fmean(r["wall_s"] for r in runs),
        }
        if args.traced:
            traced = bench(spec, workload, args.seeds[0], 1)
            entry["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
            entry["traced_wall_s"] = traced["wall_s"]
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
