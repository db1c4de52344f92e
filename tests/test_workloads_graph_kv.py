"""Tests for the Graph500 and KV-store workloads."""

import numpy as np
import pytest

from repro.workloads.graph500 import Graph500Workload
from repro.workloads.kvstore import KVStoreWorkload
from repro.workloads.multitenant import make_multitenant_processes


@pytest.fixture(scope="module")
def graph():
    return Graph500Workload(n_pages=64, phase_len_ns=100, seed=3)


class TestGraph500:
    def test_distribution_sums_to_one(self, graph):
        assert graph.access_distribution().sum() == pytest.approx(1.0)

    def test_degree_skew(self, graph):
        """Scale-free degree distribution: top pages clearly hotter than
        the median, but with the paper's 'mild difference' (not Zipf-like
        orders of magnitude)."""
        probs = np.sort(graph.access_distribution())[::-1]
        assert probs[0] > 2 * np.median(probs)
        assert probs[0] < 200 * np.median(probs)

    def test_all_pages_have_positive_mass(self, graph):
        assert (graph.access_distribution() > 0).all()

    def test_phases_rotate_with_time(self):
        graph = Graph500Workload(n_pages=64, phase_len_ns=100, seed=3)
        first = graph.access_distribution(now_ns=0).copy()
        changed = False
        for level in range(1, graph.n_levels):
            probs = graph.access_distribution(now_ns=level * 100)
            if not np.allclose(probs, first):
                changed = True
                break
        assert graph.n_levels >= 2
        assert changed

    def test_phase_schedule_wraps(self, graph):
        cycle = graph.n_levels * 100
        a = graph.access_distribution(now_ns=50).copy()
        b = graph.access_distribution(now_ns=50 + cycle)
        np.testing.assert_allclose(a, b)

    def test_hot_mask_tracks_degree(self, graph):
        mask = graph.hot_page_mask(0.25)
        probs = graph.access_distribution(now_ns=0)
        assert probs[mask].mean() > probs[~mask].mean()

    def test_deterministic_given_seed(self):
        a = Graph500Workload(n_pages=32, seed=7).access_distribution()
        b = Graph500Workload(n_pages=32, seed=7).access_distribution()
        np.testing.assert_allclose(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph500Workload(n_pages=16, vertices_per_page=0)
        with pytest.raises(ValueError):
            Graph500Workload(n_pages=16, frontier_boost=0.5)
        with pytest.raises(ValueError):
            Graph500Workload(n_pages=16, phase_len_ns=0)


class TestKVStore:
    def test_distribution_sums_to_one(self):
        workload = KVStoreWorkload(n_pages=200)
        assert workload.access_distribution().sum() == pytest.approx(1.0)

    def test_index_pages_are_hot(self):
        workload = KVStoreWorkload(n_pages=200, index_traffic_share=0.3)
        probs = workload.access_distribution()
        index = workload.index_page_mask()
        assert probs[index].mean() > probs[~index].mean()
        assert probs[index].sum() == pytest.approx(0.3)

    def test_value_region_gaussian(self):
        workload = KVStoreWorkload(n_pages=400, index_fraction=0.05)
        probs = workload.access_distribution()
        values = probs[workload.n_index_pages:]
        center = values.argmax()
        assert 0.4 * len(values) < center < 0.6 * len(values)

    def test_set_get_ratio_sets_write_fraction(self):
        one_to_ten = KVStoreWorkload(n_pages=100, set_get_ratio=0.1)
        one_to_one = KVStoreWorkload(n_pages=100, set_get_ratio=1.0)
        assert one_to_ten.write_fraction == pytest.approx(0.1 / 1.1)
        assert one_to_one.write_fraction == pytest.approx(0.5)

    def test_redis_flavor_smears_heat(self):
        memcached = KVStoreWorkload(n_pages=400, flavor="memcached")
        redis = KVStoreWorkload(n_pages=400, flavor="redis")
        # Smearing lowers the peak value-page probability.
        m = memcached.access_distribution()[memcached.n_index_pages:]
        r = redis.access_distribution()[redis.n_index_pages:]
        assert r.max() <= m.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            KVStoreWorkload(n_pages=100, set_get_ratio=-1)
        with pytest.raises(ValueError):
            KVStoreWorkload(n_pages=100, index_fraction=0)
        with pytest.raises(ValueError):
            KVStoreWorkload(n_pages=100, index_traffic_share=1.0)
        with pytest.raises(ValueError):
            KVStoreWorkload(n_pages=100, flavor="mongodb")


class TestMultitenant:
    def test_builds_n_tenants(self):
        tenants = make_multitenant_processes(n_tenants=5, pages_per_tenant=64)
        assert len(tenants) == 5
        names = [cg for _, cg in tenants]
        assert names == [f"cgroup-{i}" for i in range(5)]

    def test_delay_increases_with_index(self):
        tenants = make_multitenant_processes(n_tenants=4, pages_per_tenant=64)
        delays = [proc.workload.delay_ns_per_access for proc, _ in tenants]
        assert delays[0] == 0
        assert delays == sorted(delays)
        assert delays[3] > delays[1]

    def test_uniform_pattern(self):
        (proc, _), = make_multitenant_processes(
            n_tenants=1, pages_per_tenant=16
        )
        np.testing.assert_allclose(
            proc.workload.access_distribution(), np.full(16, 1 / 16)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            make_multitenant_processes(n_tenants=0)
        with pytest.raises(ValueError):
            make_multitenant_processes(n_tenants=2, delay_step_units=-1)

    def test_n_distinct_cycles_compiled_tables(self):
        pairs = make_multitenant_processes(
            n_tenants=8, pages_per_tenant=64, n_distinct=3
        )
        tables = {
            id(process.workload.access_distribution())
            for process, _ in pairs
        }
        assert len(tables) == 3

    def test_default_shares_one_table(self):
        pairs = make_multitenant_processes(
            n_tenants=4, pages_per_tenant=64
        )
        tables = {
            id(process.workload.access_distribution())
            for process, _ in pairs
        }
        assert len(tables) == 1

    def test_n_distinct_must_be_positive(self):
        with pytest.raises(ValueError, match="distinct"):
            make_multitenant_processes(n_tenants=2, n_distinct=0)

    def test_base_delay_is_uniform_across_tenants(self):
        """A base think time with no stagger keeps per-access cost equal
        fleet-wide."""
        pairs = make_multitenant_processes(
            n_tenants=4,
            pages_per_tenant=64,
            delay_step_units=0,
            base_delay_units=100,
        )
        delays = {
            process.workload.delay_ns_per_access
            for process, _ in pairs
        }
        assert len(delays) == 1
        assert delays.pop() > 0.0

    def test_base_delay_must_be_non_negative(self):
        with pytest.raises(ValueError, match="base delay"):
            make_multitenant_processes(
                n_tenants=2, base_delay_units=-1
            )

    def test_registered_as_fleet_builder(self):
        from repro.harness.experiments import fleet_names

        assert "multitenant" in fleet_names()

    def test_shared_tables_feed_the_table_cache_metrics(self):
        """Eight tenants over two compiled tables: two builds (or fewer,
        if warm) and cache hits for the rest of the fleet."""
        from repro.harness.experiments import StandardSetup, build_fleet
        from repro.harness.runner import run_experiment
        from repro.obs import ObsHub
        from repro.sim.timeunits import SECOND

        setup = StandardSetup(duration_ns=SECOND)
        processes = build_fleet(
            setup, "multitenant",
            n_tenants=8, pages_per_tenant=64, n_distinct=2,
        )
        hub = ObsHub.create(metrics=True)
        run_experiment(
            processes, setup.build_policy("linux-nb"), setup.run_config(),
            obs=hub,
        )
        gauges = hub.snapshot()["gauges"]
        assert gauges["workload.table_bytes"] > 0
        assert gauges["workload.table_hits"] + gauges[
            "workload.table_misses"
        ] >= 8
