"""The benchmark's four workloads, as plain data.

Each entry names the product entry point it mirrors (``kind``), the
fleet builder and policy, and the ``StandardSetup`` overrides.  No
stepping-mode flag (fusion, arena, interning) is ever set: every timed
run measures the product defaults.  The only non-default path is the
oracle, ``run_experiment(..., fast_path=False)``.

This module imports nothing from ``repro``, so ``run.py`` can hash a
workload's configuration into the oracle cache key without paying for
the simulator's import.
"""

SECOND_NS = 1_000_000_000
MILLISECOND_NS = 1_000_000

WORKLOADS = {
    # The paper's headline single run (Fig 6a panel) as ``chrono-sim run``
    # runs it: 8 pmbench procs x 4096 pages on the StandardSetup machine
    # (4096 fast / 32768 slow pages, page_scale 64), R/W 0.95, 60 s
    # simulated (the CLI default).  Time goes to kernel windows and
    # Chrono's own hooks; with 8 segments arena and interning do little.
    "pmbench-chrono": {
        "kind": "run",
        "fleet": "pmbench",
        "policy": "chrono",
        "fleet_kwargs": {
            "n_procs": 8,
            "pages_per_proc": 4_096,
            "read_write_ratio": 0.95,
        },
        "setup_kwargs": {"duration_ns": 60 * SECOND_NS},
    },
    # The stepping-bound pressured fleet of scripts/bench_engine.py's
    # arena section: 96 pmbench procs x 256 pages (24576-page working
    # set) on 8192 fast pages, linux-nb, 5 ms quantum, 5 s scan, 1 s
    # aging, 10 s simulated.  The policy is thin, so stepping dominates;
    # interning's multi-member classes price under placement pressure
    # here, which is where the fast path's FMAR bias shows.
    "fleet-pressured": {
        "kind": "run",
        "fleet": "pmbench",
        "policy": "linux-nb",
        "fleet_kwargs": {"n_procs": 96, "pages_per_proc": 256},
        "setup_kwargs": {
            "duration_ns": 10 * SECOND_NS,
            "fast_pages": 8_192,
            "slow_pages": 32_768,
            "scan_period_ns": 5 * SECOND_NS,
            "aging_period_ns": SECOND_NS,
            "quantum_ns": 5 * MILLISECOND_NS,
        },
    },
    # ``chrono-sim traffic`` on a 1024-tenant generated fleet: 8 shared
    # patterns, Zipf 1.1, 400-unit think time, 10% churn and 10% phase
    # shifters, fast tier 294912 pages, policy chrono, 2 s simulated.
    # The only workload where set-up (fleet build, registration,
    # placement) is a real share, and where per-tenant fault delivery
    # dominates the run.
    "traffic-1024": {
        "kind": "traffic",
        "fleet": "traffic",
        "policy": "chrono",
        "fleet_kwargs": {
            "n_tenants": 1_024,
            "n_users": 1_000_000,
            "pages_per_tenant": 256,
            "n_patterns": 8,
            "zipf_s": 1.1,
            "base_delay_units": 400,
            "churn_fraction": 0.1,
            "phase_shift_fraction": 0.1,
        },
        "setup_kwargs": {
            "duration_ns": 2 * SECOND_NS,
            "fast_pages": 294_912,
            "slow_pages": 32_768,
        },
    },
    # ``run_tournament`` over the default field (12 policies x
    # pmbench/graph500/memcached x 1 seed + 3 all-DRAM references = 39
    # cells), jobs = min(2, cpus), caches off, 30 s simulated -- long
    # enough that chrono ranks first on every seed tried (at 10 s
    # multiclock can win).  The only workload through the sweep fan-out
    # and the only one running the other ten policies.
    "tournament": {
        "kind": "tournament",
        "policy": "chrono",
        "setup_kwargs": {"duration_ns": 30 * SECOND_NS},
        "max_jobs": 2,
    },
}

#: simulated-duration divisor for ``run.py --smoke`` (metric-name check)
SMOKE_DURATION_DIVISOR = 10


def config_for(name, smoke=False):
    """The workload's configuration, shortened for smoke runs."""
    config = dict(WORKLOADS[name])
    if smoke:
        setup = dict(config["setup_kwargs"])
        setup["duration_ns"] //= SMOKE_DURATION_DIVISOR
        config["setup_kwargs"] = setup
    return config
