"""Bounded Zipf sampling (the paper's skew generator, ref. [26]).

``P(X = k) ∝ (k+1)^-α`` over the ``K`` values ``0..K-1``.  ``α = 0`` is the
uniform distribution; the paper sweeps ``α`` from 0 (no skew) to 3 (high
skew).  Sampling is vectorised through inverse-CDF lookup on the exact
normalised mass function — no rejection loops, reproducible under a seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["skew_profile", "zipf_pmf", "zipf_sample"]


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


def skew_profile(
    d: int,
    profile: str = "mixed",
    *,
    alpha_hi: float = 1.3,
    alpha_lo: float = 0.3,
    seed: int = 0,
) -> tuple[float, ...]:
    """A per-dimension skew vector for mixed dense/sparse cubes.

    Uniform skew across all dims produces cubes that are uniformly
    dense or uniformly sparse; a profile makes views that *mix* — some
    dimensions heavy-tailed, some nearly flat — so that one cube holds
    both dense and sparse key ranges.

    Profiles (all deterministic under ``seed``):

    * ``"mixed"`` — a seeded shuffle of half ``alpha_hi`` / half
      ``alpha_lo`` dims (``ceil(d/2)`` high).
    * ``"ramp"`` — linear sweep from ``alpha_hi`` (dim 0) down to
      ``alpha_lo`` (last dim).
    * ``"head"`` — ``alpha_hi`` on dim 0, ``alpha_lo`` elsewhere (the
      shape of the paper's Figure-9 mix D).
    * ``"flat"`` — ``alpha_hi`` everywhere (control case).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if alpha_hi < alpha_lo:
        raise ValueError(
            f"alpha_hi {alpha_hi} < alpha_lo {alpha_lo}"
        )
    if profile == "flat":
        return (float(alpha_hi),) * d
    if profile == "head":
        return (float(alpha_hi),) + (float(alpha_lo),) * (d - 1)
    if profile == "ramp":
        if d == 1:
            return (float(alpha_hi),)
        return tuple(
            float(a) for a in np.linspace(alpha_hi, alpha_lo, d)
        )
    if profile == "mixed":
        n_hi = -(-d // 2)
        alphas = np.array(
            [alpha_hi] * n_hi + [alpha_lo] * (d - n_hi), dtype=np.float64
        )
        rng = np.random.default_rng(seed)
        rng.shuffle(alphas)
        return tuple(float(a) for a in alphas)
    raise ValueError(
        f"unknown skew profile {profile!r} "
        "(expected mixed | ramp | head | flat)"
    )
