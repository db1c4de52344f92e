"""Bit-identity oracles for the tenant-scale fleet passes.

Chrono's per-tenant work runs as fleet passes over concatenated state:
the arena's aggregate hint-fault draw (``ProcessArena._batched_faults``)
and fault window, DCSC's probe tick (``DcscCollector.probe_fleet``),
LRU aging over the fleet page store (``LruLists.age_fleet``) and the
closed-form initial placement.  Each pass claims exact equivalence with
a per-segment or per-process loop that makes the same draws from the
same streams in the same order.  Twin runs differ only in that one
pass; every observable -- page state, process and global stats, policy
state, RNG streams, metrics and trace events -- must match bit for bit.

Two fleets run: a churning traffic fleet (64 Zipf tenants, a quarter
churning, a tenth phase-shifting, under placement pressure so the
Ticking scan protects slow-tier pages too) and a single process, which
takes the arena's one-segment draw on the process's own stream.
"""

import numpy as np
import pytest

from repro.core.dcsc import DcscCollector, DcscConfig
from repro.harness.arena import FaultCache, ProcessArena
from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.kernel.kernel import CapacityError, fast_prefixes
from repro.kernel.lru import LruLists
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.obs.hub import ObsHub
from repro.sim.rng import RngStreams
from repro.sim.timeunits import SECOND
from repro.vm.page_state import FleetPages, PageState
from tests.conftest import make_kernel, make_process
from tests.test_batched_oracle import (
    observable_state,
    run_observables,
    sequential_age_fleet,
    sequential_fault_window,
)

FLEETS = ("traffic", "single")


def build(fleet, seed):
    """Setup and processes of one oracle fleet."""
    if fleet == "traffic":
        # 64 tenants x 64 pages on 2048 fast pages: pressured, with
        # exits, mid-run arrivals and phase shifts.  A 1 s probe
        # timeout expires DCSC probes inside the run.
        setup = StandardSetup(
            duration_ns=4 * SECOND,
            fast_pages=2_048,
            scan_period_ns=SECOND,
            dcsc_probe_timeout_ns=SECOND,
            seed=seed,
        )
        processes = build_fleet(
            setup,
            "traffic",
            n_tenants=64,
            pages_per_tenant=64,
            churn_fraction=0.25,
            phase_shift_fraction=0.1,
        )
    else:
        setup = StandardSetup(
            duration_ns=4 * SECOND,
            fast_pages=1_024,
            scan_period_ns=SECOND,
            dcsc_probe_timeout_ns=SECOND,
            seed=seed,
        )
        processes = build_fleet(
            setup, "pmbench", n_procs=1, pages_per_proc=2_048
        )
    return setup, processes


def twin_observables(monkeypatch, fleet, policy_name, patches, seed=5):
    """Observables of one run with ``patches`` (``(owner, name,
    replacement)`` triples) applied."""
    setup, processes = build(fleet, seed)
    policy = setup.build_policy(policy_name)
    hub = ObsHub.create(trace=True, metrics=True)
    with monkeypatch.context() as patch:
        for owner, name, replacement in patches:
            patch.setattr(owner, name, replacement)
        result = run_experiment(
            processes, policy, setup.run_config(), obs=hub
        )
    observed = run_observables(processes, policy, hub)
    observed["headline"] = (result.throughput_per_sec, result.fmar)
    return observed


def assert_twins_match(monkeypatch, fleet, policy_name, patches):
    fleet_run = twin_observables(monkeypatch, fleet, policy_name, ())
    oracle_run = twin_observables(monkeypatch, fleet, policy_name, patches)
    for key in fleet_run:
        assert fleet_run[key] == oracle_run[key], key
    return fleet_run


# ----------------------------------------------------------------------
# Oracles: the per-segment / per-process loops
# ----------------------------------------------------------------------
def sequential_probe_fleet(dcsc, processes, now_ns):
    """The probe tick as the per-process ``probe_process`` loop."""
    probed = []
    for process in processes:
        count = dcsc.probe_process(process, now_ns)
        if count:
            probed.append((process, count))
    return probed


def per_segment_batched_faults(
    arena, eligible, n_vec, n_list, faults, start_ns, quantum_ns
):
    """The aggregate fault draw as per-segment loops: one cache split
    per stale segment, per-segment rate parts and touch masks, and the
    per-process fault window -- the same draws from the arena's stream
    in the same order."""
    rng = arena.rng
    entries = []
    for i in eligible:
        protected = arena.processes[i].pages.protected_pages()
        if not protected.size:
            continue
        cache = arena._fault_caches[i]
        probs = arena.probs_refs[i]
        if (
            cache.fault_probs is not probs
            or cache.fault_prot is not protected
        ):
            arena._rebuild_fault_caches(
                [(i, cache, probs, protected, n_list[i])]
            )
        entries.append((i, protected, cache))
    masks = {}

    def mask_for(i, size):
        if i not in masks:
            masks[i] = np.zeros(size, dtype=bool)
        return masks[i]

    active = [e for e in entries if e[2].active_p.size]
    if active:
        lam = np.concatenate([n_vec[i] * c.active_p for i, _, c in active])
        touched = rng.random(lam.size) < -np.expm1(-lam)
        offset = 0
        for i, protected, cache in active:
            size = cache.active_p.size
            hits = np.flatnonzero(touched[offset:offset + size])
            offset += size
            if hits.size:
                mask_for(i, protected.size)[cache.active_pos[hits]] = True
    dormant = [e for e in entries if e[2].dormant_mass > 0.0]
    if dormant:
        rates = np.array(
            [n_vec[i] * c.dormant_mass for i, _, c in dormant]
        )
        total_rate = float(rates.sum())
        if total_rate > 0.0:
            k = int(rng.poisson(total_rate))
            if k:
                cum = np.cumsum(rates)
                draws = rng.random(k) * total_rate
                pick = np.minimum(
                    np.searchsorted(cum, draws, side="right"),
                    rates.size - 1,
                )
                for j, (i, protected, cache) in enumerate(dormant):
                    chosen = draws[pick == j]
                    if not chosen.size:
                        continue
                    base = float(cum[j] - rates[j])
                    values = (chosen - base) / float(n_vec[i])
                    cdf = cache.dormant_cdf
                    hits = np.minimum(
                        np.searchsorted(cdf, values, side="right"),
                        cdf.size - 1,
                    )
                    mask_for(i, protected.size)[
                        cache.dormant_pos[hits]
                    ] = True
    touched = [(i, protected) for i, protected, _ in entries if i in masks]
    if touched:
        segs = [i for i, _ in touched]
        window = sequential_fault_window(
            arena,
            segs,
            [protected for _, protected in touched],
            np.concatenate([masks[i] for i in segs]),
            start_ns,
            quantum_ns,
        )
        faults[segs] = window.counts()


# ----------------------------------------------------------------------
# End-to-end twins
# ----------------------------------------------------------------------
class TestFleetProbeTick:
    @pytest.mark.parametrize("fleet", FLEETS)
    def test_matches_per_process_probes(self, monkeypatch, fleet):
        observed = assert_twins_match(
            monkeypatch,
            fleet,
            "chrono",
            [(DcscCollector, "probe_fleet", sequential_probe_fleet)],
        )
        counters = dict(dict(observed["metrics"])["counters"])
        # The run really probed and really expired stale probes.
        assert counters["dcsc.probes"] != 0
        assert counters["dcsc.expired"] != 0


class TestFleetFaultDraw:
    @pytest.mark.parametrize("fleet", FLEETS)
    @pytest.mark.parametrize("policy_name", ["chrono", "linux-nb"])
    def test_matches_per_segment_draw(self, monkeypatch, fleet, policy_name):
        observed = assert_twins_match(
            monkeypatch,
            fleet,
            policy_name,
            [
                (ProcessArena, "_batched_faults",
                 per_segment_batched_faults),
                (ProcessArena, "_fault_window", sequential_fault_window),
            ],
        )
        counters = dict(dict(observed["metrics"])["counters"])
        assert counters["fault.hint_faults"] != 0


class TestFleetAging:
    @pytest.mark.parametrize("fleet", FLEETS)
    @pytest.mark.parametrize("policy_name", ["chrono", "multiclock"])
    def test_matches_per_process_aging(
        self, monkeypatch, fleet, policy_name
    ):
        assert_twins_match(
            monkeypatch,
            fleet,
            policy_name,
            [(LruLists, "age_fleet", sequential_age_fleet)],
        )

    def test_traffic_fleet_pass_matches_age_process(self):
        """Direct passes over 64 churned tenants with sparse traffic, so
        pages activate, miss and deactivate (hysteresis)."""
        runs = []
        for fleet_pass in (True, False):
            setup, processes = build("traffic", seed=2)
            kernel = make_kernel(fast_pages=2_048, slow_pages=32_768)
            for process in processes:
                kernel.register_process(process)
            kernel.allocate_initial_placement()
            rng = np.random.default_rng(11)
            lru = LruLists(RngStreams(4).get("lru"))
            masks = []
            deactivated = 0
            for now_ns in (100, 200, 300, 400, 500):
                for process in processes:
                    pages = process.pages
                    pages.defer_accesses(
                        process.workload.access_distribution(),
                        float(rng.integers(0, 60)),
                    )
                    pages.accessed[:] = rng.random(pages.n_pages) < 0.05
                active_before = [p.pages.lru_active.copy() for p in processes]
                visit = [p for p in processes[::-1] if p.pid % 7]
                if fleet_pass:
                    masks.append(lru.age_fleet(visit, now_ns))
                else:
                    masks.append(
                        [lru.age_process(p, now_ns) for p in visit]
                    )
                deactivated += sum(
                    int(np.count_nonzero(before & ~p.pages.lru_active))
                    for before, p in zip(active_before, processes)
                )
            assert deactivated > 0
            runs.append((processes, lru, masks))
        (procs_f, lru_f, masks_f), (procs_s, lru_s, masks_s) = runs
        for tick_f, tick_s in zip(masks_f, masks_s):
            for mask_f, mask_s in zip(tick_f, tick_s):
                np.testing.assert_array_equal(mask_f, mask_s)
        for p_f, p_s in zip(procs_f, procs_s):
            for name in ("lru_active", "lru_gen", "accessed"):
                np.testing.assert_array_equal(
                    getattr(p_f.pages, name), getattr(p_s.pages, name)
                )
            np.testing.assert_array_equal(
                p_f.pages.last_window_count, p_s.pages.last_window_count
            )
            np.testing.assert_array_equal(
                lru_f._misses(p_f), lru_s._misses(p_s)
            )
        assert lru_f._rng.random() == lru_s._rng.random()


class TestCacheSplit:
    def test_batched_split_matches_single_segment_splits(self):
        """One batched active/dormant split over many stale segments
        equals the segments split one at a time, bit for bit, and
        leaves the arena's per-segment size and mass vectors in step
        with the caches."""
        setup, processes = build("traffic", seed=3)
        policy = setup.build_policy("chrono")
        result = run_experiment(
            processes, policy, setup.run_config(duration_ns=SECOND)
        )
        arena = ProcessArena(result.engine)
        rng = np.random.default_rng(5)
        rows = []
        for i, process in enumerate(arena.processes):
            size = int(rng.integers(0, process.n_pages))
            protected = np.sort(
                rng.choice(process.n_pages, size=size, replace=False)
            ).astype(np.int64)
            # Few accesses per quantum put most pages in the dormant tail.
            rows.append((i, protected, float(rng.uniform(0.5, 3.0))))
        splits = []
        for batched in (True, False):
            caches = [FaultCache() for _ in rows]
            rebuilds = [
                (i, cache, arena.probs_refs[i], protected, n)
                for cache, (i, protected, n) in zip(caches, rows)
            ]
            if batched:
                arena._rebuild_fault_caches(rebuilds)
            else:
                for row in rebuilds:
                    arena._rebuild_fault_caches([row])
            splits.append(caches)
        dormant = 0
        for cache_b, cache_s in zip(*splits):
            for name in ("active_pos", "active_p", "dormant_pos",
                         "dormant_cdf"):
                left = getattr(cache_b, name)
                right = getattr(cache_s, name)
                assert left.dtype == right.dtype
                assert left.tobytes() == right.tobytes(), name
            assert cache_b.dormant_mass.hex() == cache_s.dormant_mass.hex()
            dormant += cache_b.dormant_pos.size > 1
        assert dormant > len(rows) // 2
        segs = [i for i, _, _ in rows]
        np.testing.assert_array_equal(
            arena._active_sizes[segs],
            [cache.active_p.size for cache in splits[1]],
        )
        np.testing.assert_array_equal(
            arena._dormant_masses[segs],
            [cache.dormant_mass for cache in splits[1]],
        )


class TestFleetPagesWrites:
    def test_fleet_protect_matches_per_process_protect_at(self):
        """The store's multi-process protection (one merge of every
        changed protected-set cache) equals ``protect_at`` per process,
        for small sets and for sets past ``PageState.SMALL_MERGE``."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            sizes = rng.integers(1, 3_000, int(rng.integers(2, 6)))
            fleet_side = [PageState(int(n)) for n in sizes]
            oracle = [PageState(int(n)) for n in sizes]
            for left, right in zip(fleet_side, oracle):
                vpns = np.flatnonzero(rng.random(left.n_pages) < 0.5)
                left.protect(vpns, 5)
                right.protect(vpns, 5)
            store = FleetPages(fleet_side)
            chosen = np.flatnonzero(rng.random(sizes.size) < 0.7)
            if not chosen.size:
                continue
            parts = [
                np.sort(rng.choice(
                    sizes[j], int(rng.integers(1, sizes[j] + 1)),
                    replace=False,
                ))
                for j in chosen
            ]
            members = [fleet_side[j] for j in chosen]
            vpns = np.concatenate(parts)
            counts = [part.size for part in parts]
            store.protect_sorted_at(
                members,
                FleetPages.ids(members, counts, vpns),
                np.concatenate(([0], np.cumsum(counts))).tolist(),
                vpns,
                9,
            )
            for j, part in zip(chosen, parts):
                oracle[j].protect_at(part, np.full(part.size, 9))
            for left, right in zip(fleet_side, oracle):
                np.testing.assert_array_equal(
                    left.protected_pages(), right.protected_pages()
                )
                assert left.n_protected == right.n_protected
                np.testing.assert_array_equal(left.prot_none, right.prot_none)
                np.testing.assert_array_equal(
                    left.scan_ts_ns, right.scan_ts_ns
                )


# ----------------------------------------------------------------------
# Direct probe-tick cases
# ----------------------------------------------------------------------
def probe_twins(fleet_pass, n_pages, ticks, finished=(), store=True):
    """Probe a small fleet tick by tick; returns its observable state."""
    config = DcscConfig(
        victim_fraction=0.25,
        min_victims_per_process=3,
        probe_timeout_ns=150,
    )
    processes = [
        make_process(pid=pid, n_pages=size, seed=pid)
        for pid, size in enumerate(n_pages)
    ]
    if store:
        FleetPages([p.pages for p in processes])
    hub = ObsHub.create(trace=True, metrics=True)
    dcsc = DcscCollector(config, RngStreams(3).get("dcsc"))
    dcsc.obs = hub
    dcsc.reserve(processes)
    returned = []
    for tick, now_ns in enumerate(ticks):
        for pid in finished:
            processes[pid].finished = tick > 0
        live = [p for p in processes if not p.finished]
        dcsc.decay_maps()
        if fleet_pass:
            probed = dcsc.probe_fleet(live, now_ns)
        else:
            probed = sequential_probe_fleet(dcsc, live, now_ns)
        returned.append([(p.pid, n) for p, n in probed])
        # Fault some probes through both rounds in between ticks.
        for process in live[::2]:
            vpns = np.flatnonzero(process.pages.probed)[:2]
            if vpns.size:
                dcsc.on_probed_fault(
                    process,
                    vpns,
                    np.full(vpns.size, 5_000),
                    np.full(vpns.size, now_ns + 10),
                )
    events = [observable_state(e) for e in hub.tracer.events()]
    return {
        "returned": returned,
        # Page contents, not where the arrays live (a fleet pass may
        # adopt the processes into a page store).
        "pages": [
            observable_state({
                name: value for name, value in p.pages.__dict__.items()
                if name not in ("fleet", "fleet_base")
            })
            for p in processes
        ],
        "dcsc": observable_state(dcsc),
        "metrics": observable_state(hub.snapshot()),
        "events": events,
    }


class TestProbeFleetDirect:
    #: some probes reach the 150 ns timeout exactly (not yet stale)
    TICKS = (0, 100, 250, 300, 400, 550)

    @pytest.mark.parametrize("store", [True, False])
    def test_expiry_and_exited_tenants(self, store):
        """Probes expire after 150 ns; tenants 2 and 5 exit after the
        first tick and keep their outstanding probes."""
        sizes = (24, 40, 16, 64, 8, 32, 48)
        fleet = probe_twins(True, sizes, self.TICKS, (2, 5), store)
        oracle = probe_twins(False, sizes, self.TICKS, (2, 5), store)
        assert fleet == oracle
        counters = dict(dict(fleet["metrics"])["counters"])
        assert counters["dcsc.expired"] != 0

    def test_all_victims_already_probed(self):
        """Four-page tenants with three victims a tick run out of
        unprobed pages: some ticks probe nothing for some tenants."""
        sizes = (4, 4, 5, 4)
        fleet = probe_twins(True, sizes, self.TICKS)
        oracle = probe_twins(False, sizes, self.TICKS)
        assert fleet == oracle
        counts = [dict(tick) for tick in fleet["returned"]]
        assert any(len(tick) < len(sizes) for tick in counts)


# ----------------------------------------------------------------------
# Closed-form initial placement
# ----------------------------------------------------------------------
def chunked_placement(kernel, chunk_pages=64):
    """The round-robin chunk loop the closed form replaces."""
    fast, slow = kernel.machine.fast, kernel.machine.slow
    cursors = [0] * len(kernel.processes)
    remaining = sum(p.n_pages for p in kernel.processes)
    while remaining > 0:
        for index, process in enumerate(kernel.processes):
            if cursors[index] >= process.n_pages:
                continue
            take = min(chunk_pages, process.n_pages - cursors[index])
            headroom = fast.free_pages - kernel.watermarks.high_pages
            n_fast = max(0, min(take, headroom))
            fast.allocate(n_fast)
            slow.allocate(take - n_fast)
            vpns = np.arange(cursors[index], cursors[index] + take)
            process.pages.move_to_tier(vpns[:n_fast], FAST_TIER)
            process.pages.move_to_tier(vpns[n_fast:], SLOW_TIER)
            cursors[index] += take
            remaining -= take


class TestClosedFormPlacement:
    @pytest.mark.parametrize(
        "sizes, fast_pages",
        [
            ((256,) * 64, 2_048),
            ((100, 7, 300, 64, 65, 1, 129), 400),
            ((4_096,), 1_024),
            ((10, 20), 65_536),
        ],
    )
    def test_matches_chunk_loop(self, sizes, fast_pages):
        kernels = []
        for closed_form in (True, False):
            kernel = make_kernel(fast_pages=fast_pages, slow_pages=32_768)
            for pid, size in enumerate(sizes):
                kernel.register_process(make_process(pid=pid, n_pages=size))
            if closed_form:
                kernel.allocate_initial_placement()
            else:
                chunked_placement(kernel)
            kernels.append(kernel)
        closed, loop = kernels
        assert closed.machine.fast.used_pages == loop.machine.fast.used_pages
        assert closed.machine.slow.used_pages == loop.machine.slow.used_pages
        for p_c, p_l in zip(closed.processes, loop.processes):
            np.testing.assert_array_equal(p_c.pages.tier, p_l.pages.tier)

    def test_fast_prefixes_match_loop_on_random_fleets(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            sizes = rng.integers(0, 300, int(rng.integers(1, 9)))
            chunk = int(rng.integers(1, 80))
            headroom = int(rng.integers(-20, int(sizes.sum()) + 40))
            expected = [0] * sizes.size
            cursors = [0] * sizes.size
            left = headroom
            while any(c < n for c, n in zip(cursors, sizes)):
                for j, n in enumerate(sizes.tolist()):
                    if cursors[j] >= n:
                        continue
                    take = min(chunk, n - cursors[j])
                    n_fast = max(0, min(take, left))
                    left -= n_fast
                    expected[j] += n_fast
                    cursors[j] += take
            assert fast_prefixes(sizes, headroom, chunk).tolist() == expected

    def test_over_capacity_still_raises(self):
        kernel = make_kernel(fast_pages=64, slow_pages=64)
        kernel.register_process(make_process(pid=1, n_pages=200))
        with pytest.raises(CapacityError):
            kernel.allocate_initial_placement()
