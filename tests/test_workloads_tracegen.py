"""Tests for the fleet traffic generator."""

import numpy as np
import pytest

from repro.sim.timeunits import SECOND
from repro.workloads.base import TraceWorkload
from repro.workloads.compile import StationaryTableWorkload
from repro.workloads.tracegen import (
    make_traffic_processes,
    pattern_table,
    tenant_user_shares,
)


def small_fleet(**kwargs):
    defaults = dict(
        n_tenants=16,
        n_users=10_000,
        pages_per_tenant=64,
        n_patterns=4,
        duration_ns=2 * SECOND,
        seed=7,
    )
    defaults.update(kwargs)
    return make_traffic_processes(**defaults)


class TestShares:
    def test_zipf_shares_sum_to_one_and_decrease(self):
        shares = tenant_user_shares(100, zipf_s=1.1)
        assert shares.sum() == pytest.approx(1.0)
        assert np.all(np.diff(shares) < 0)

    def test_no_tenants_rejected(self):
        with pytest.raises(ValueError):
            tenant_user_shares(0, zipf_s=1.0)


class TestPatternTables:
    def test_same_pattern_shares_one_frozen_array(self):
        a = pattern_table(64, pattern=1, n_patterns=4)
        b = pattern_table(64, pattern=1, n_patterns=4)
        assert a is b
        assert not a.flags.writeable
        assert a.sum() == pytest.approx(1.0)

    def test_distinct_patterns_hit_distinct_hot_pages(self):
        a = pattern_table(64, pattern=0, n_patterns=4)
        b = pattern_table(64, pattern=2, n_patterns=4)
        assert int(np.argmax(a)) != int(np.argmax(b))


class TestFleet:
    def test_stationary_fleet_shares_pattern_tables(self):
        processes = small_fleet()
        assert len(processes) == 16
        tables = {
            id(p.workload.access_distribution()) for p in processes
        }
        # 16 tenants present at most n_patterns distinct table
        # identities.
        assert len(tables) <= 4
        assert all(
            isinstance(p.workload, StationaryTableWorkload)
            for p in processes
        )

    def test_deterministic_under_seed(self):
        a = small_fleet()
        b = small_fleet()
        assert [p.workload.delay_ns_per_access for p in a] == [
            p.workload.delay_ns_per_access for p in b
        ]
        for pa, pb in zip(a, b):
            assert pa.workload.access_distribution() is (
                pb.workload.access_distribution()
            )

    def test_delay_ladder_is_geometric_and_bucketed(self):
        processes = small_fleet(base_delay_units=100)
        base_ns = processes[0].workload.delay_ns_per_access
        ratios = {
            p.workload.delay_ns_per_access / base_ns
            for p in processes
        }
        # Every tenant pair sits a whole power-of-two apart on the
        # ladder.
        assert all(
            np.isclose(r, 2.0 ** round(np.log2(r)), rtol=1e-9)
            for r in ratios
        )

    def test_churn_split_between_exiters_and_spawners(self):
        processes = small_fleet(churn_fraction=0.5)
        exiters = [
            p for p in processes if p.target_accesses is not None
        ]
        spawners = [
            p for p in processes
            if isinstance(p.workload, TraceWorkload)
            and float(
                p.workload.access_distribution(now_ns=0).sum()
            ) == 0.0
        ]
        assert len(exiters) == 4
        assert len(spawners) == 4
        assert all(p.target_accesses >= 1.0 for p in exiters)

    def test_spawner_lead_in_then_pattern(self):
        processes = small_fleet(churn_fraction=0.5)
        spawner = next(
            p for p in processes
            if isinstance(p.workload, TraceWorkload)
            and float(
                p.workload.access_distribution(now_ns=0).sum()
            ) == 0.0
        )
        horizon = spawner.workload.stable_until_ns(0)
        # Idle until the arrival instant, busy pattern afterwards.
        assert 0 < horizon < 2 * SECOND
        after = spawner.workload.access_distribution(now_ns=horizon)
        assert float(after.sum()) == pytest.approx(1.0)

    def test_shifters_cycle_two_patterns(self):
        processes = small_fleet(phase_shift_fraction=0.25)
        shifters = [
            p for p in processes
            if isinstance(p.workload, TraceWorkload)
            and float(
                p.workload.access_distribution(now_ns=0).sum()
            ) > 0.0
        ]
        assert len(shifters) == 4
        workload = shifters[0].workload
        first = workload.access_distribution(now_ns=0)
        second = workload.access_distribution(
            now_ns=workload.stable_until_ns(0)
        )
        assert first is not second
        assert float(np.abs(first - second).sum()) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            small_fleet(churn_fraction=1.5)
        with pytest.raises(ValueError):
            small_fleet(churn_fraction=0.6, phase_shift_fraction=0.6)
        with pytest.raises(ValueError):
            small_fleet(n_users=0)
        with pytest.raises(ValueError):
            small_fleet(base_delay_units=0)

    def test_obs_emission(self):
        from repro.obs import ObsHub

        hub = ObsHub.create(trace=True, metrics=True)
        small_fleet(churn_fraction=0.25, obs=hub)
        events = [
            e for e in hub.tracer.events()
            if e["type"] == "tracegen.fleet"
        ]
        assert len(events) == 1
        assert events[0]["n_tenants"] == 16
        assert events[0]["n_churn"] == 4
        snapshot = hub.snapshot()
        assert snapshot["gauges"]["tracegen.tenants"] == 16.0


class TestFleetRuns:
    def test_churny_fleet_runs_and_exiters_finish(self):
        from repro.harness.experiments import StandardSetup
        from repro.harness.runner import run_experiment

        setup = StandardSetup(duration_ns=2 * SECOND)
        processes = small_fleet(
            churn_fraction=0.25, base_delay_units=50
        )
        policy = setup.build_policy("linux-nb")
        result = run_experiment(processes, policy, setup.run_config())
        assert result.throughput_per_sec > 0
        exiters = [
            p for p in processes if p.target_accesses is not None
        ]
        assert exiters
        assert any(
            p.stats.accesses >= p.target_accesses for p in exiters
        )

    def test_traffic_builder_registered(self):
        from repro.harness.experiments import StandardSetup, build_fleet

        setup = StandardSetup(duration_ns=SECOND)
        processes = build_fleet(
            setup, "traffic", n_tenants=8, pages_per_tenant=64
        )
        assert len(processes) == 8
