#!/usr/bin/env python
"""Result fingerprints: one hex digest per (workload, seed).

A digest covers everything a run reports about the modelled machine:
throughput, FMAR, the global stats, every per-process row and the
latency summary, serialised with exact float reprs.  Two source trees
that print the same digests produce bit-identical results, so a
refactor that must not move any number is checked by running this
script on both trees and diffing the output:

    python scripts/fingerprint.py --seeds 1 2 3
    python scripts/fingerprint.py traffic-1024 --seeds 1
    python scripts/fingerprint.py pressured-16x256 --seeds 0 1 2
    python scripts/fingerprint.py tournament --seeds 1 --cells

Targets are the four workloads of ``perfbench/workloads.py`` (read,
never changed: the same configurations the benchmark times) plus
``pressured-16x256``, the 12 tournament policies on the pressured
16 x 256-page pmbench fleet of ``tests/test_pressured_oracle.py``
(one line per policy).  With no target named, the four perfbench
workloads run.  ``tournament`` prints one digest over all its cells;
``--cells`` adds one line per cell.  Caches are off throughout.
"""

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
os.environ["CHRONO_NO_CACHE"] = "1"

from workloads import WORKLOADS  # noqa: E402

PRESSURED = "pressured-16x256"
SECOND_NS = 1_000_000_000
MILLISECOND_NS = 1_000_000


def digest(result):
    """Hex digest of one run's reported numbers (``RunResult`` or
    ``RunSummary``)."""
    material = json.dumps(
        {
            "throughput": result.throughput_per_sec,
            "fmar": result.fmar,
            "stats": result.stats,
            "per_process": result.per_process,
            "latency": result.latency_summary,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def run_single(config, seed, policy=None):
    """One ``run``/``traffic`` workload, configured as the benchmark
    worker configures it."""
    from repro.harness.experiments import StandardSetup, build_fleet
    from repro.harness.runner import run_experiment
    from repro.obs.hub import ObsHub

    setup = StandardSetup(seed=seed, **config["setup_kwargs"])
    fleet_kwargs = dict(config["fleet_kwargs"])
    hub = None
    if config["kind"] == "traffic":
        hub = fleet_kwargs["obs"] = ObsHub.create(metrics=True)
    try:
        processes = build_fleet(setup, config["fleet"], **fleet_kwargs)
        return run_experiment(
            processes,
            setup.build_policy(policy or config["policy"]),
            setup.run_config(),
            obs=hub,
        )
    finally:
        if hub is not None:
            hub.close()


def pressured_config():
    """The pressured fleet of ``tests/test_pressured_oracle.py``."""
    return {
        "kind": "run",
        "fleet": "pmbench",
        "fleet_kwargs": {"n_procs": 16, "pages_per_proc": 256},
        "setup_kwargs": {
            "duration_ns": 10 * SECOND_NS,
            "fast_pages": 1_024,
            "slow_pages": 32_768,
            "quantum_ns": 5 * MILLISECOND_NS,
        },
    }


def tournament_digests(config, seed, jobs):
    """``(label, digest)`` per tournament cell, in grid order."""
    from repro.harness.sweep import run_cells
    from repro.harness.tournament import tournament_cells

    cells = tournament_cells(
        seeds=(seed,), setup_kwargs=dict(config["setup_kwargs"])
    )
    summaries = run_cells(cells, jobs=jobs, use_cache=False)
    return [
        (f"{cell.label or cell.policy}/{cell.workload}", digest(summary))
        for cell, summary in zip(cells, summaries)
    ]


def fingerprint(target, seed, jobs, cells):
    """Print the target's digest line(s) for one seed."""
    if target == PRESSURED:
        from repro.harness.experiments import TOURNAMENT_POLICIES

        config = pressured_config()
        for policy in TOURNAMENT_POLICIES:
            line = digest(run_single(config, seed, policy))
            print(f"{target} seed={seed} {policy} {line}", flush=True)
        return
    config = WORKLOADS[target]
    if config["kind"] == "tournament":
        rows = tournament_digests(config, seed, jobs)
        if cells:
            for label, line in rows:
                print(f"{target} seed={seed} {label} {line}", flush=True)
        whole = hashlib.sha256(
            "".join(line for _, line in rows).encode()
        ).hexdigest()[:16]
        print(f"{target} seed={seed} {whole}", flush=True)
        return
    print(f"{target} seed={seed} {digest(run_single(config, seed))}",
          flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    targets = sorted(WORKLOADS) + [PRESSURED]
    parser.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help=f"one of {', '.join(targets)} "
        "(default: the four perfbench workloads)",
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the tournament's cells",
    )
    parser.add_argument(
        "--cells", action="store_true",
        help="also print one digest per tournament cell",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.targets) - set(targets))
    if unknown:
        parser.error(f"unknown target(s): {', '.join(unknown)}")
    for target in args.targets or list(WORKLOADS):
        for seed in args.seeds:
            fingerprint(target, seed, args.jobs, args.cells)
    return 0


if __name__ == "__main__":
    sys.exit(main())
