"""The default fast path against the per-quantum oracle under pressure.

Every other equivalence suite compares one batched mode with another,
mostly with the whole working set in DRAM.  Here each registered policy
runs a 16-process pmbench fleet whose 4096-page working set faces a
1024-page fast tier (FMAR between 0.35 and 0.75), once on the default
fast path (arena stepping, fusion) and once on the ``fast_path=False``
oracle, over three seeds.  The seed means must agree: FMAR within 10%,
throughput within 5%.

Throughput on the multi-process arena still reads 5-10% low for a few
policies.  Those cases are strict xfails, so a fix shows up as an
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

#: policies whose arena throughput still reads low beyond the tolerance
#: (the multi-process arena skew, measured 7.6-9.2% low)
THROUGHPUT_SKEWED = {"tpp", "tierbpf", "arms"}


@lru_cache(maxsize=None)
def seed_means(policy_name, fast_path):
    """Mean ``(fmar, throughput)`` over :data:`SEEDS` for one mode."""
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
            setup, "pmbench", n_procs=16, pages_per_proc=256
        )
        result = run_experiment(
            processes,
            setup.build_policy(policy_name),
            setup.run_config(),
            fast_path=fast_path,
        )
        fmars.append(result.fmar)
        throughputs.append(result.throughput_per_sec)
    return sum(fmars) / len(SEEDS), sum(throughputs) / len(SEEDS)


@pytest.mark.parametrize("policy_name", ALL_POLICIES)
def test_fmar_matches_oracle(policy_name):
    fmar, _ = seed_means(policy_name, True)
    oracle_fmar, _ = seed_means(policy_name, False)
    assert 0.2 < oracle_fmar < 0.8  # the fleet really is pressured
    assert fmar == pytest.approx(oracle_fmar, rel=FMAR_TOLERANCE)


@pytest.mark.parametrize(
    "policy_name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(
                strict=True,
                reason="known multi-process arena throughput skew",
            ),
        )
        if name in THROUGHPUT_SKEWED
        else name
        for name in ALL_POLICIES
    ],
)
def test_throughput_matches_oracle(policy_name):
    _, throughput = seed_means(policy_name, True)
    _, oracle_throughput = seed_means(policy_name, False)
    assert throughput == pytest.approx(
        oracle_throughput, rel=THROUGHPUT_TOLERANCE
    )
