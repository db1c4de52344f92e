"""The shared numpy kernels in :mod:`repro.sim.kernels`.

The ledger fold and the fault-partition bisect sit on the engine's
equivalence-gated trajectory, so each kernel must reproduce its plain
numpy formulation exactly.
"""

import numpy as np

from repro.sim import kernels


def sample_run(rng, n_pages=257):
    probs = rng.random(n_pages)
    probs /= probs.sum()
    access = rng.random(n_pages) * 100.0
    window = rng.random(n_pages) * 10.0
    return probs, access, window


def test_ledger_fold_accumulates_both_counters():
    rng = np.random.default_rng(0)
    probs, access, window = sample_run(rng)
    base_access, base_window = access.copy(), window.copy()
    buf = np.empty_like(probs)
    kernels.ledger_fold(probs, 50.0, access, window, buf)
    np.testing.assert_array_equal(access, base_access + probs * 50.0)
    np.testing.assert_array_equal(window, base_window + probs * 50.0)


def test_searchsorted_right_matches_numpy_contract():
    cdf = np.array([0.1, 0.4, 0.4, 0.9, 1.0])
    values = np.array([0.0, 0.1, 0.4, 0.95, 1.0])
    np.testing.assert_array_equal(
        kernels.searchsorted_right(cdf, values),
        np.searchsorted(cdf, values, side="right"),
    )


def test_searchsorted_right_on_random_cdf():
    rng = np.random.default_rng(3)
    cdf = np.cumsum(rng.random(1_000))
    values = rng.random(10_000) * float(cdf[-1]) * 1.05
    placed = kernels.searchsorted_right(cdf, values)
    np.testing.assert_array_equal(
        placed, np.searchsorted(cdf, values, side="right")
    )
    # Values past the last edge land one past the end.
    assert placed.max() == cdf.size


def test_scan_filter_keeps_window_order():
    tier = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.int8)
    window = np.array([7, 0, 2, 5, 4, 1], dtype=np.int64)
    np.testing.assert_array_equal(
        kernels.scan_filter(tier, window, 1), [7, 2, 4, 1]
    )
    np.testing.assert_array_equal(
        kernels.scan_filter(tier, window, 0), [0, 5]
    )
    assert kernels.scan_filter(tier, window, 2).size == 0


def test_dcsc_fold_matches_per_tier_scatter_add():
    rng = np.random.default_rng(6)
    n_tiers, n_buckets = 3, 17
    tiers = rng.integers(0, n_tiers, size=5_000).astype(np.int8)
    buckets = rng.integers(0, n_buckets, size=5_000)
    expected = np.zeros((n_tiers, n_buckets))
    for tier_id in range(n_tiers):
        np.add.at(expected[tier_id], buckets[tiers == tier_id], 1.0)
    folded = kernels.dcsc_fold(tiers, buckets, n_tiers, n_buckets)
    assert folded.dtype == np.float64
    assert folded.shape == (n_tiers, n_buckets)
    np.testing.assert_array_equal(folded, expected)


def test_dcsc_fold_of_no_samples_is_zero():
    empty = np.zeros(0, dtype=np.int64)
    folded = kernels.dcsc_fold(empty, empty, 2, 4)
    np.testing.assert_array_equal(folded, np.zeros((2, 4)))
