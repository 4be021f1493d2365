"""Bounded Zipf sampling (the paper's skew generator, ref. [26]).

``P(X = k) ∝ (k+1)^-α`` over the ``K`` values ``0..K-1``.  ``α = 0`` is the
uniform distribution; the paper sweeps ``α`` from 0 (no skew) to 3 (high
skew).  Sampling is vectorised through inverse-CDF lookup on the exact
normalised mass function — no rejection loops, reproducible under a seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zipf_pmf", "zipf_sample"]


def zipf_pmf(cardinality: int, alpha: float) -> np.ndarray:
    """Probability mass over the ``cardinality`` ranked values."""
    if cardinality < 1:
        raise ValueError(f"cardinality must be >= 1, got {cardinality}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    ranks = np.arange(1, cardinality + 1, dtype=np.float64)
    weights = ranks**-alpha
    return weights / weights.sum()


def zipf_sample(
    cardinality: int,
    alpha: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` Zipf(α)-distributed codes in ``[0, cardinality)``."""
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if alpha == 0.0:
        return rng.integers(0, cardinality, size=size, dtype=np.int64)
    cdf = np.cumsum(zipf_pmf(cardinality, alpha))
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)
