"""Every metric the benchmark emits: name, unit, and direction.

``END_TO_END`` is printed with ``--trace 0``; ``PER_LAYER`` with
``--trace 1``.  ``README.md`` documents each one; ``run.py --smoke``
checks that every workload emits every name here and every name in
``BENCHMARK.json``.
"""

#: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("fmar_fidelity", "fraction", "higher"),
    ("throughput_fidelity", "fraction", "higher"),
)

#: the tournament's default field, plus its all-DRAM reference label
TOURNAMENT_FIELD = (
    "linux-nb", "autotiering", "multiclock", "tpp", "memtis",
    "telescope", "flexmem", "nomad", "tierbpf", "arms", "jenga",
    "chrono", "all-dram",
)

#: existing ``Profiler`` sections reported one by one
PROFILE_BUCKETS = (
    "fault_partition", "engine", "segment_fold", "dcsc_fold", "policy",
    "aging", "migrate", "arena_build", "scan", "scan_pass",
    "reclaim_select", "fault", "accounting",
)

#: (name, unit, better) -- per-layer metrics have no bound
PER_LAYER = (
    ("import_s", "s", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("kernel.register_s", "s", "lower"),
    ("kernel.place_s", "s", "lower"),
    ("policy.attach_s", "s", "lower"),
    ("kernel.advance_s", "s", "lower"),
    ("kernel.advance_calls", "count", "lower"),
    ("kernel.deliver_faults_s", "s", "lower"),
    ("kernel.deliver_faults_calls", "count", "lower"),
    ("policy.on_fault_s", "s", "lower"),
    ("policy.on_fault_calls", "count", "lower"),
    ("policy.on_quantum_s", "s", "lower"),
    ("policy.on_quantum_calls", "count", "lower"),
    ("policy.on_lru_age_s", "s", "lower"),
    ("policy.on_lru_age_calls", "count", "lower"),
    ("workloads.table_hits", "count", "higher"),
    ("workloads.table_misses", "count", "lower"),
    ("workloads.table_mb", "MB", "lower"),
    ("vm.fault_s", "s", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.quanta", "count", "higher"),
    ("engine.steps", "count", "lower"),
    ("engine.fusion_ratio", "ratio", "higher"),
    ("arena.interned_classes", "count", "lower"),
    ("arena.interned_segments", "count", "higher"),
    ("arena.repriced_segments", "count", "lower"),
    ("arena.reprice_skipped_segments", "count", "higher"),
    *((f"profile.{b}_s", "s", "lower") for b in PROFILE_BUCKETS),
    ("profile.unattributed_s", "s", "lower"),
    ("sweep.first_result_s", "s", "lower"),
    ("sweep.cell_s.p50", "s", "lower"),
    ("sweep.cell_s.p75", "s", "lower"),
    ("sweep.cell_s.max", "s", "lower"),
    ("sweep.busy_fraction", "ratio", "higher"),
    ("sweep.cells_run", "count", "higher"),
    ("sweep.cells_cached", "count", "lower"),
    *((f"sweep.policy_s.{p}", "s", "lower") for p in TOURNAMENT_FIELD),
    ("report.summarize_s", "s", "lower"),
    ("sim.throughput", "1/s", "higher"),
    ("sim.fmar", "fraction", "higher"),
    ("sim.pgpromote", "count", "lower"),
    ("sim.pgdemote", "count", "lower"),
    ("sim.hint_faults", "count", "lower"),
    ("sim.kernel_time_fraction", "fraction", "lower"),
    ("sim.latency_p99_ns", "ns", "lower"),
    ("oracle.fmar", "fraction", "higher"),
    ("oracle.throughput", "1/s", "higher"),
    ("oracle.fmar_err", "fraction", "lower"),
    ("oracle.throughput_err", "ratio", "lower"),
    ("tournament.chrono_rank", "rank", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
