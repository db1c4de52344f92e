"""Shared numpy kernels for the simulator's large-array passes.

This module lives in the dependency-free :mod:`repro.sim` substrate so
both the vm layer and the harness can import it without cycles.

``ledger_fold``
    Materialise one ledger run into the lifetime and window counters:
    ``access[i] += probs[i] * n``, ``window[i] += probs[i] * n``.  At the
    10M-page bench rung this is the single largest remaining O(pages)
    pass.

``searchsorted_right``
    The fault-partition binary search: place aggregate Poisson draws
    first into segments (processes) and then onto pages by inverse-CDF
    lookup.

``scan_filter``
    The Ticking-scan tier filter: gather each window page's tier and
    compress to the pages on the filtered tier.

``dcsc_fold``
    The DCSC histogram reduction: scatter-add round-2 CIT samples into
    the per-tier heat maps, one bincount over ``(tier, bucket)`` keys instead
    of one ``np.add.at`` per tier.
"""

from __future__ import annotations

import numpy as np


def ledger_fold(
    probs: np.ndarray,
    n_accesses: float,
    access: np.ndarray,
    window: np.ndarray,
    buf: np.ndarray,
) -> None:
    """Fold one ``(probs, n)`` ledger run into both counters in place:
    one multiply into ``buf``, two axpys."""
    np.multiply(probs, n_accesses, out=buf)
    access += buf
    window += buf


def searchsorted_right(
    cdf: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Right-bisect placement of ``values`` into ``cdf``."""
    return np.searchsorted(cdf, values, side="right")


def scan_filter(
    tier: np.ndarray, window: np.ndarray, tier_filter: int
) -> np.ndarray:
    """``window[tier[window] == tier_filter]``: gather tiers, compare,
    compress (order-preserving)."""
    return window[tier[window] == tier_filter]


def dcsc_fold(
    tiers: np.ndarray, buckets: np.ndarray, n_tiers: int, n_buckets: int
) -> np.ndarray:
    """Count ``(tier, bucket)`` CIT samples into a dense float64
    ``(n_tiers, n_buckets)`` table with one bincount over
    ``tier * n_buckets + bucket`` keys."""
    keys = tiers.astype(np.int64) * n_buckets + buckets
    counts = np.bincount(keys, minlength=n_tiers * n_buckets)
    return counts.astype(np.float64).reshape(n_tiers, n_buckets)
