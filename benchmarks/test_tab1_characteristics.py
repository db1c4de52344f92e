"""Table 1: characteristics of recent tiered-memory systems.

The table itself is static (design facts about each system); this bench
renders it and then *verifies the frequency-scale column against the
implementations*: the effective measurement resolution each policy's
mechanism can express in this codebase.
"""

from benchmarks.conftest import run_once
from repro.core.cit import max_measurable_frequency_per_sec
from repro.policies.registry import (
    POLICY_CHARACTERISTICS,
    characteristics_table,
    policy_names,
)
from repro.sim.timeunits import SECOND


def test_tab1_characteristics(benchmark, record_figure):
    table = run_once(benchmark, characteristics_table)
    record_figure("tab1_characteristics", table)

    # The paper's seven rows appear in the paper's order, Chrono last;
    # the rows the extended field adds (Linux-NB and the later systems)
    # each name a registered policy.
    solutions = [t.solution for t in POLICY_CHARACTERISTICS]
    paper_rows = [
        "Auto-Tiering", "Multi-Clock", "Telescope", "TPP", "Memtis",
        "FlexMem", "Chrono [Ours]",
    ]
    assert [s for s in solutions if s in paper_rows] == paper_rows
    assert solutions[-1] == "Chrono [Ours]"
    registered = {
        "".join(c for c in name if c.isalnum()) for name in policy_names()
    }
    for solution in solutions:
        if solution not in paper_rows:
            key = "".join(c for c in solution.lower() if c.isalnum())
            assert key in registered, solution

    by_name = {t.solution: t for t in POLICY_CHARACTERISTICS}
    # Process-level vs system-wide split.
    assert by_name["Memtis"].type == "Process level"
    assert by_name["Chrono [Ours]"].type == "System-wide"
    # Huge-page default for the PEBS systems, base page for the rest.
    assert by_name["Memtis"].default_page_size == "Huge page"
    assert by_name["Chrono [Ours]"].default_page_size == "Base page"
    # Chrono's claimed 0~1000 access/sec matches the CIT math: 1 ms
    # timers resolve periods down to ~1 ms.
    assert max_measurable_frequency_per_sec() == 1000.0


def test_tab1_frequency_scales_match_mechanisms():
    """The frequency-scale column is backed by mechanism constants."""
    from repro.kernel.scanner import ScanConfig
    from repro.policies.tpp import TPPPolicy

    # Page-fault counter methods: one observation per scan period
    # (default 60 s) -> ~1 access/min resolution.
    assert ScanConfig().scan_period_ns == 60 * SECOND

    # TPP's kernel threshold defaults to 1 s -> ~2 access/min scale on
    # a 60 s scan cadence.
    assert TPPPolicy().hint_fault_latency_ns == SECOND
