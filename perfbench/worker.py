"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` spawns this once per repetition so that imports and the
process-global workload-table cache start cold, as they do for a user:

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --t0 MONOTONIC [--smoke] [--spans PATH]

Modes:

* ``import``  -- import the product stack only (warm-up and set-up probe);
* ``timed``   -- the workload with tracing off;
* ``traced``  -- the workload with spans around the public calls into
  each layer, the ``Profiler`` and a metrics ``ObsHub`` attached;
* ``oracle``  -- the same configuration on the per-page reference path,
  ``run_experiment(..., fast_path=False)`` (tournament: its chrono cells).

``--t0`` is the parent's ``time.monotonic()`` just before the spawn
(one system-wide clock on Linux), so set-up time includes interpreter
start.  The last line of stdout is one JSON object.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from catalog import PER_LAYER, PROFILE_BUCKETS  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import config_for  # noqa: E402

#: FMAR is a ratio of float sums; allow rounding past the [0, 1] ends
FMAR_SLACK = 1e-9

LAYER_NAMES = {name for name, _, _ in PER_LAYER}


def peak_rss_mb():
    """Peak RSS of this process or any child it waited for, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def sim_metrics(result):
    """The modelled machine's outputs of one run (``RunResult`` or
    ``RunSummary``): deterministic at a fixed seed and source tree."""
    return {
        "sim.throughput": result.throughput_per_sec,
        "sim.fmar": result.fmar,
        "sim.pgpromote": result.stats["pgpromote"],
        "sim.pgdemote": result.stats["pgdemote"],
        "sim.hint_faults": result.stats["hint_faults"],
        "sim.kernel_time_fraction": result.kernel_time_fraction,
        "sim.latency_p99_ns": result.latency_summary["p99"],
    }


def run_problems(result):
    """Output-check failures of one simulated run (``RunResult`` or
    ``RunSummary``); empty when it passes."""
    problems = []
    values = dict(sim_metrics(result))
    values.update(
        (f"stats.{k}", v) for k, v in result.stats.items()
    )
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    if bad:
        problems.append(f"non-finite {', '.join(bad)}")
    if not -FMAR_SLACK <= result.fmar <= 1 + FMAR_SLACK:
        problems.append(f"FMAR {result.fmar!r} outside [0, 1]")
    total = result.throughput_per_sec * result.duration_ns / 1e9
    booked = sum(row["accesses"] for row in result.per_process)
    if not math.isclose(booked, total, rel_tol=1e-9, abs_tol=1e-6):
        problems.append(
            f"per-process accesses sum to {booked!r}, total {total!r}"
        )
    return problems


def fidelity_point(result):
    return {"fmar": result.fmar, "throughput": result.throughput_per_sec}


# ----------------------------------------------------------------------
# Single-run workloads (chrono-sim run / chrono-sim traffic)
# ----------------------------------------------------------------------
def run_single(config, seed, mode, t0, t_import, spans_path):
    from repro.harness import runner
    from repro.harness.engine import QuantumEngine
    from repro.harness.experiments import StandardSetup, build_fleet
    from repro.kernel.kernel import Kernel
    from repro.obs.hub import ObsHub
    from repro.workloads.base import table_cache_stats

    traced = mode == "traced"
    recorder = SpanRecorder() if traced else None
    build = build_fleet
    if traced:
        recorder.patch(Kernel, "register_process", "kernel.register")
        recorder.patch(Kernel, "allocate_initial_placement", "kernel.place")
        recorder.patch(Kernel, "set_policy", "policy.attach")
        recorder.patch(Kernel, "advance_to", "kernel.advance")
        recorder.patch(Kernel, "deliver_faults", "kernel.deliver_faults")
        recorder.patch(QuantumEngine, "run", "engine.run")
        recorder.patch(runner, "summarize_run", "report.summarize")
        build = recorder.wrap("workloads.build", build_fleet)

    marks = {}
    engine_run = QuantumEngine.run

    def marked_run(engine, *args, **kwargs):
        marks["first_quantum"] = time.monotonic()
        try:
            return engine_run(engine, *args, **kwargs)
        finally:
            marks["run_end"] = time.monotonic()

    QuantumEngine.run = marked_run

    setup = StandardSetup(seed=seed, **config["setup_kwargs"])
    policy = setup.build_policy(config["policy"])
    if traced:
        for hook in ("on_fault", "on_quantum", "on_lru_age"):
            if hasattr(policy, hook):
                recorder.patch(policy, hook, f"policy.{hook}")
    # chrono-sim traffic always carries a metrics hub; chrono-sim run
    # carries none unless asked.
    hub = None
    if traced or config["kind"] == "traffic":
        hub = ObsHub.create(metrics=True)
    fleet_kwargs = dict(config["fleet_kwargs"])
    if config["kind"] == "traffic":
        fleet_kwargs["obs"] = hub
    try:
        processes = build(setup, config["fleet"], **fleet_kwargs)
        result = runner.run_experiment(
            processes,
            policy,
            setup.run_config(),
            profile=traced,
            obs=hub,
            fast_path=mode != "oracle",
        )
    finally:
        if hub is not None:
            hub.close()
    t_end = time.monotonic()

    problems = run_problems(result)
    out = {
        "import_s": t_import - t0,
        "setup_s": marks["first_quantum"] - t0,
        "run_s": marks["run_end"] - marks["first_quantum"],
        "peak_rss_mb": peak_rss_mb(),
        "sim": sim_metrics(result),
        "fidelity": {"run": fidelity_point(result)},
        "ops": 1,
        "failed_ops": ["; ".join(problems)] if problems else [],
    }
    if traced:
        recorder.write(spans_path)
        out["layers"] = single_layers(
            recorder.totals(), result, table_cache_stats(),
            t_import - t0, t_end - t0,
        )
    return out


def single_layers(spans, result, tables, import_s, wall_s):
    """Per-layer metrics of one traced single-run repetition."""
    def span(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    counters = result.metrics["counters"]
    gauges = result.metrics["gauges"]
    engine = result.engine
    profile = result.profile or {}
    layers = {
        "import_s": import_s,
        "workloads.table_hits": tables["hits"],
        "workloads.table_misses": tables["misses"],
        "workloads.table_mb": tables["bytes"] / 2**20,
        "vm.fault_s": span("kernel.deliver_faults", "self_s"),
        "engine.self_s": span("engine.run", "self_s"),
        "engine.quanta": engine.quanta_run,
        "engine.steps": engine.steps_run,
        "engine.fusion_ratio": (
            engine.fused_quanta / engine.quanta_run
            if engine.quanta_run else 0.0
        ),
        "arena.interned_classes": gauges["arena.interned_classes"],
        "arena.interned_segments": gauges["arena.interned_segments"],
        "arena.repriced_segments": counters["arena.repriced_segments"],
        "arena.reprice_skipped_segments": (
            counters["arena.reprice_skipped_segments"]
        ),
        # Wall time from interpreter start to the end of reporting
        # that no profiler section covers (imports, set-up, reporting).
        "profile.unattributed_s": wall_s - sum(
            row["seconds"] for row in profile.values()
        ),
    }
    for name in (
        "workloads.build", "kernel.register", "kernel.place",
        "policy.attach", "kernel.advance", "kernel.deliver_faults",
        "policy.on_fault", "policy.on_quantum", "policy.on_lru_age",
        "engine.run", "report.summarize",
    ):
        layers[f"{name}_s"] = span(name)
        if f"{name}_calls" in LAYER_NAMES:
            layers[f"{name}_calls"] = span(name, "calls")
    for bucket in PROFILE_BUCKETS:
        layers[f"profile.{bucket}_s"] = profile.get(bucket, {}).get(
            "seconds", 0.0
        )
    return layers


# ----------------------------------------------------------------------
# The tournament
# ----------------------------------------------------------------------
def _jobs(config):
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return max(1, min(config["max_jobs"], cpus))


def run_tournament(config, seed, mode, t0, t_import, spans_path):
    from repro.harness import tournament
    from repro.obs.hub import ObsHub

    traced = mode == "traced"
    jobs = _jobs(config)
    # Every CellResult is watched (in both modes) so the output checks
    # can see where each summary came from.
    records = []
    iter_cells = tournament.iter_cells

    def watched_iter_cells(*args, **kwargs):
        for cell_result in iter_cells(*args, **kwargs):
            records.append((time.perf_counter_ns(), cell_result))
            yield cell_result

    tournament.iter_cells = watched_iter_cells
    hub = ObsHub.create(metrics=True) if traced else None
    start = time.perf_counter_ns()
    try:
        result = tournament.run_tournament(
            seeds=(seed,),
            jobs=jobs,
            use_cache=False,
            setup_kwargs=dict(config["setup_kwargs"]),
            obs=hub,
        )
    finally:
        if hub is not None:
            hub.close()
    end = time.perf_counter_ns()
    run_s = (end - start) / 1e9

    failed = []
    for _, cell_result in records:
        cell = cell_result.cell
        label = f"{cell.label or cell.policy}/{cell.workload}"
        if cell_result.source != "run":
            failed.append(f"{label}: served from {cell_result.source}")
            continue
        problems = run_problems(cell_result.summary)
        if problems:
            failed.append(f"{label}: {'; '.join(problems)}")
    for row in result.cells:
        if not math.isfinite(row["slowdown"]):
            failed.append(
                f"{row['policy']}/{row['workload']}: slowdown "
                f"{row['slowdown']!r}"
            )
    ranks = [row.policy for row in result.leaderboard]
    if ranks[0] != config["policy"]:
        failed.append(
            f"leaderboard: {ranks[0]} ranks first, not {config['policy']}"
        )

    chrono = {
        r.cell.workload: r.summary
        for _, r in records
        if r.cell.policy == config["policy"] and r.cell.label != "all-dram"
    }
    sim = {
        name: statistics.fmean(
            sim_metrics(summary)[name] for summary in chrono.values()
        )
        for name in sim_metrics(next(iter(chrono.values())))
    }
    sim["tournament.chrono_rank"] = ranks.index(config["policy"]) + 1
    sim["tournament.slowdowns"] = [
        row["slowdown"] for row in result.cells
    ]
    out = {
        "import_s": t_import - t0,
        "setup_s": t_import - t0,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "sim": sim,
        "fidelity": {
            workload: fidelity_point(summary)
            for workload, summary in chrono.items()
        },
        "ops": len(records) + 1,
        "failed_ops": failed,
    }
    if traced:
        # Cells run in pool workers: each becomes a span ending when its
        # result arrived and lasting its worker-side wall time.
        recorder = SpanRecorder()
        recorder.add("tournament.run", start, end)
        run_cells = [r for _, r in records if r.source == "run"]
        per_policy = {}
        for arrived, r in records:
            label = r.cell.label or r.cell.policy
            recorder.add(
                f"sweep.cell.{label}.{r.cell.workload}",
                arrived - int(r.wall_sec * 1e9), arrived, parent=0,
            )
            per_policy[label] = per_policy.get(label, 0.0) + r.wall_sec
        walls = sorted(r.wall_sec for r in run_cells)
        quartiles = statistics.quantiles(walls, n=4)
        layers = {
            "import_s": t_import - t0,
            "sweep.first_result_s": (records[0][0] - start) / 1e9,
            "sweep.cell_s.p50": quartiles[1],
            "sweep.cell_s.p75": quartiles[2],
            "sweep.cell_s.max": walls[-1],
            "sweep.busy_fraction": sum(walls) / (jobs * run_s),
            "sweep.cells_run": len(run_cells),
            "sweep.cells_cached": len(records) - len(run_cells),
            # Leaderboard assembly after the last cell arrived.
            "report.summarize_s": (end - records[-1][0]) / 1e9,
        }
        for label, seconds in per_policy.items():
            layers[f"sweep.policy_s.{label}"] = seconds
        recorder.write(spans_path)
        out["layers"] = layers
    return out


def tournament_oracle(config, seed):
    """The tournament's chrono cells on the per-page reference path."""
    from repro.harness.experiments import StandardSetup, build_fleet
    from repro.harness.runner import run_experiment
    from repro.harness.tournament import tournament_cells

    points = {}
    for cell in tournament_cells(
        policies=(config["policy"],),
        seeds=(seed,),
        setup_kwargs=dict(config["setup_kwargs"]),
    ):
        if cell.label != config["policy"]:
            continue  # the all-DRAM references
        setup = StandardSetup(seed=cell.seed, **cell.setup_kwargs)
        result = run_experiment(
            build_fleet(setup, cell.workload, **cell.workload_kwargs),
            setup.build_policy(cell.policy, **cell.policy_kwargs),
            setup.run_config(**cell.config_overrides),
            fast_path=False,
        )
        points[cell.workload] = {
            **fidelity_point(result),
            "failed": run_problems(result),
        }
    return points


# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", required=True,
        choices=("import", "timed", "traced", "oracle"),
    )
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.cli  # noqa: F401  (the product's own import cost)

    t_import = time.monotonic()
    config = config_for(args.workload, smoke=args.smoke)
    if args.mode == "import":
        out = {"import_s": t_import - args.t0}
    elif args.mode == "oracle" and config["kind"] == "tournament":
        out = tournament_oracle(config, args.seed)
    else:
        runner = (
            run_tournament if config["kind"] == "tournament" else run_single
        )
        out = runner(
            config, args.seed, args.mode, args.t0, t_import, args.spans
        )
        if args.mode == "oracle":
            out = {
                "run": {**out["fidelity"]["run"], "failed": out["failed_ops"]}
            }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
