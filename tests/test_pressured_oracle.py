"""The default fast path against the per-quantum oracle under pressure.

Every other equivalence suite compares one batched mode with another,
mostly with the whole working set in DRAM.  Here each registered policy
runs a 4096-page working set against a 1024-page fast tier (FMAR
well below 1) on the arena fast path and on the
``fast_path=False`` oracle, over three seeds.  The seed means must
agree: FMAR within 10%, throughput within 5%.

Three arena cases run against the oracle:

* the default (fused) arena on a 16-process x 256-page pmbench fleet;
* the unfused arena on the same fleet;
* the unfused arena on one 4096-page process, which covers the arena's
  one-segment fault draw on the process's own stream.

Fused throughput still reads 5-10% low for a few policies while the
unfused arena stays inside the tolerance, so the skew comes from
fusion.  Those cases are strict xfails, so a fix shows up as an
unexpected pass rather than as silence.
"""

from functools import lru_cache

import pytest

from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.sim.timeunits import MILLISECOND, SECOND
from tests.test_harness_arena import ALL_POLICIES

SEEDS = (0, 1, 2)
FMAR_TOLERANCE = 0.10
THROUGHPUT_TOLERANCE = 0.05

#: stepping modes: ``run_experiment`` keyword arguments and the
#: ``RunConfig`` fusion switch
MODES = {
    "fused": {"fast_path": True, "fusion": True},
    "unfused": {"fast_path": True, "fusion": False},
    "oracle": {"fast_path": False, "fusion": False},
}

#: fleet shapes ``(n_procs, pages_per_proc)``, both 4096-page working sets
FLEETS = {"16x256": (16, 256), "1x4096": (1, 4_096)}

#: oracle FMAR band that shows each fleet really is pressured: the
#: single process keeps less of its working set in DRAM (oracle FMAR
#: 0.11-0.79 across the policies, against 0.35-0.75 for the fleet)
PRESSURED_FMAR = {"16x256": (0.2, 0.8), "1x4096": (0.1, 0.8)}

#: policies whose fused arena throughput still reads low beyond the
#: tolerance (measured 7.6-9.2% low)
THROUGHPUT_SKEWED = {"tpp", "tierbpf", "arms"}


@lru_cache(maxsize=None)
def seed_means(policy_name, mode, fleet="16x256"):
    """Mean ``(fmar, throughput)`` over :data:`SEEDS` for one mode."""
    n_procs, pages_per_proc = FLEETS[fleet]
    fmars, throughputs = [], []
    for seed in SEEDS:
        setup = StandardSetup(
            duration_ns=10 * SECOND,
            fast_pages=1_024,
            slow_pages=32_768,
            quantum_ns=5 * MILLISECOND,
            seed=seed,
        )
        processes = build_fleet(
            setup, "pmbench", n_procs=n_procs, pages_per_proc=pages_per_proc
        )
        result = run_experiment(
            processes,
            setup.build_policy(policy_name),
            setup.run_config(fusion=MODES[mode]["fusion"]),
            fast_path=MODES[mode]["fast_path"],
        )
        fmars.append(result.fmar)
        throughputs.append(result.throughput_per_sec)
    return sum(fmars) / len(SEEDS), sum(throughputs) / len(SEEDS)


def assert_fmar_matches(policy_name, mode, fleet="16x256"):
    fmar, _ = seed_means(policy_name, mode, fleet)
    oracle_fmar, _ = seed_means(policy_name, "oracle", fleet)
    low, high = PRESSURED_FMAR[fleet]
    assert low < oracle_fmar < high
    assert fmar == pytest.approx(oracle_fmar, rel=FMAR_TOLERANCE)


def assert_throughput_matches(policy_name, mode, fleet="16x256"):
    _, throughput = seed_means(policy_name, mode, fleet)
    _, oracle_throughput = seed_means(policy_name, "oracle", fleet)
    assert throughput == pytest.approx(
        oracle_throughput, rel=THROUGHPUT_TOLERANCE
    )


@pytest.mark.parametrize("policy_name", ALL_POLICIES)
def test_fmar_matches_oracle(policy_name):
    assert_fmar_matches(policy_name, "fused")


@pytest.mark.parametrize(
    "policy_name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(
                strict=True,
                reason="fusion throughput skew under pressure",
            ),
        )
        if name in THROUGHPUT_SKEWED
        else name
        for name in ALL_POLICIES
    ],
)
def test_throughput_matches_oracle(policy_name):
    assert_throughput_matches(policy_name, "fused")


@pytest.mark.parametrize("fleet", sorted(FLEETS))
@pytest.mark.parametrize("policy_name", ALL_POLICIES)
def test_unfused_fmar_matches_oracle(policy_name, fleet):
    assert_fmar_matches(policy_name, "unfused", fleet)


@pytest.mark.parametrize("fleet", sorted(FLEETS))
@pytest.mark.parametrize("policy_name", ALL_POLICIES)
def test_unfused_throughput_matches_oracle(policy_name, fleet):
    assert_throughput_matches(policy_name, "unfused", fleet)
