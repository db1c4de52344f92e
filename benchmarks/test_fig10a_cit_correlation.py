"""Figure 10a: CIT tracks per-page access frequency.

The paper collects CIT values across the address space of a Gaussian
pmbench process and shows they sit around the mean access interval: low
CIT where the access PDF is high, and vice versa.  We instrument the fault
path to collect every measured CIT per page, then compare against the
workload's ground-truth access intervals.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.harness.experiments import pmbench_processes
from repro.harness.reporting import format_table
from repro.harness.runner import run_experiment
from repro.vm.fault import FleetFaultBatch


class CitRecorder:
    """Wraps a Chrono policy's fault hook to log (vpn, CIT) samples.

    The kernel hands every quantum's faults to ``on_fault_fleet``; the
    recorder logs each process's segment of the batch (the run has one
    process, so vpns index one address space).
    """

    def __init__(self, policy):
        self.policy = policy
        self.sum_cit = None
        self.count = None

    def attach(self, n_pages):
        self.sum_cit = np.zeros(n_pages)
        self.count = np.zeros(n_pages)
        original = self.policy.on_fault_fleet

        def wrapped(fleet: FleetFaultBatch):
            for j in range(fleet.n_segments):
                batch = fleet.segment(j)
                valid = batch.cit_ns >= 0
                np.add.at(self.sum_cit, batch.vpns[valid],
                          batch.cit_ns[valid])
                np.add.at(self.count, batch.vpns[valid], 1.0)
            original(fleet)

        self.policy.on_fault_fleet = wrapped


def test_fig10a_cit_correlation(benchmark, standard_setup, record_figure):
    def run():
        (process,) = pmbench_processes(
            standard_setup, n_procs=1, pages_per_proc=4_096
        )
        policy = standard_setup.build_policy("chrono")
        recorder = CitRecorder(policy)
        recorder.attach(process.n_pages)
        result = run_experiment(
            [process], policy, standard_setup.run_config()
        )
        return process, recorder, result

    process, recorder, result = run_once(benchmark, run)

    probs = process.workload.access_distribution()
    measured = recorder.count > 0
    mean_cit_ms = np.zeros(process.n_pages)
    mean_cit_ms[measured] = (
        recorder.sum_cit[measured] / recorder.count[measured] / 1e6
    )
    rate_per_sec = probs * result.per_process[0]["throughput_per_sec"]
    interval_ms = np.full(process.n_pages, np.inf)
    positive = rate_per_sec > 0
    interval_ms[positive] = 1e3 / rate_per_sec[positive]

    # Bucket by relative position in the address space for display.
    rows = []
    for lo in np.linspace(0, 0.9, 10):
        hi = lo + 0.1
        sel = measured.copy()
        sel[: int(lo * process.n_pages)] = False
        sel[int(hi * process.n_pages):] = False
        if not sel.any():
            continue
        rows.append(
            [
                f"[{lo:.1f}, {hi:.1f})",
                float(probs[sel].mean() * process.n_pages),
                float(np.median(interval_ms[sel])),
                float(np.median(mean_cit_ms[sel])),
            ]
        )
    record_figure(
        "fig10a_cit_correlation",
        format_table(
            ["address region", "access PDF (xUniform)",
             "true interval (ms)", "measured CIT (ms)"],
            rows,
            title="Figure 10a: CIT vs access probability over the "
                  "address space",
        ),
    )

    # Rank correlation between measured CIT and true access interval
    # over the pages with enough samples.
    solid = measured & (recorder.count >= 3) & np.isfinite(interval_ms)
    assert solid.sum() > 100
    from scipy import stats

    rho, _ = stats.spearmanr(mean_cit_ms[solid], interval_ms[solid])
    assert rho > 0.6, rho
    # Hot-region CIT is far below cold-region CIT.
    hot = process.workload.hot_page_mask(0.25) & solid
    cold = ~process.workload.hot_page_mask(0.4) & solid
    assert np.median(mean_cit_ms[hot]) < 0.3 * np.median(
        mean_cit_ms[cold]
    )
