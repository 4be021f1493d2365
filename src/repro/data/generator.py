"""Synthetic raw data sets with per-dimension cardinality and skew.

:func:`paper_preset` reproduces the parameter sets used throughout the
paper's Section 4 (the "P8" configuration: d = 8, cardinalities 256, 128,
64, 32, 16, 8, 6, 6, plus the Figure 9 mixes A-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.zipf import zipf_sample
from repro.storage.table import Relation

__all__ = ["DatasetSpec", "generate_dataset", "paper_preset", "PAPER_CARDINALITIES"]

#: The cardinality vector used by Figures 5-8 and 11 ("P8").
PAPER_CARDINALITIES = (256, 128, 64, 32, 16, 8, 6, 6)


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of one synthetic raw data set."""

    n: int
    cardinalities: tuple[int, ...]
    alphas: tuple[float, ...]
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        cards = tuple(int(c) for c in self.cardinalities)
        alphas = tuple(float(a) for a in self.alphas)
        if len(cards) != len(alphas):
            raise ValueError(
                f"{len(cards)} cardinalities vs {len(alphas)} alphas"
            )
        if any(c < 1 for c in cards):
            raise ValueError(f"cardinalities must be >= 1: {cards}")
        if any(a < 0 for a in alphas):
            raise ValueError(f"alphas must be >= 0: {alphas}")
        if list(cards) != sorted(cards, reverse=True):
            raise ValueError(
                "cardinalities must be non-increasing (the paper's "
                f"dimension ordering): {cards}"
            )
        object.__setattr__(self, "cardinalities", cards)
        object.__setattr__(self, "alphas", alphas)

    @property
    def d(self) -> int:
        return len(self.cardinalities)


def generate_dataset(spec: DatasetSpec) -> Relation:
    """Draw the raw data set: independent per-dimension Zipf columns plus a
    uniform measure in [0, 100)."""
    rng = np.random.default_rng(spec.seed)
    dims = np.empty((spec.n, spec.d), dtype=np.int64)
    for col, (card, alpha) in enumerate(zip(spec.cardinalities, spec.alphas)):
        dims[:, col] = zipf_sample(card, alpha, spec.n, rng)
    measure = rng.random(spec.n) * 100.0
    return Relation(dims, measure)


def paper_preset(
    n: int,
    *,
    alpha: float | Sequence[float] = 0.0,
    mix: str = "B",
    d: int | None = None,
    seed: int = 0xC0FFEE,
) -> DatasetSpec:
    """Named parameter sets from the paper's evaluation.

    Parameters
    ----------
    n:
        Row count.
    alpha:
        Uniform skew for every dimension, or one value per dimension
        (Figure 9's mix D uses ``α0 = 3`` and ``αi>0 = 0``).
    mix:
        Cardinality mix: ``"A"`` = all 256, ``"B"`` = the P8 vector
        (default), ``"C"`` = all 16, ``"D"`` = P8 with ``α0 = 3``.
    d:
        Override dimensionality (Figure 10 sweeps d with all-256 cards).
    """
    if d is not None:
        cards: tuple[int, ...] = (256,) * d
    elif mix == "A":
        cards = (256,) * 8
    elif mix == "B":
        cards = PAPER_CARDINALITIES
    elif mix == "C":
        cards = (16,) * 8
    elif mix == "D":
        cards = PAPER_CARDINALITIES
        if not isinstance(alpha, Sequence):
            alpha = (3.0,) + (0.0,) * (len(cards) - 1)
    else:
        raise ValueError(f"unknown cardinality mix {mix!r}")
    if isinstance(alpha, Sequence):
        alphas = tuple(float(a) for a in alpha)
        if len(alphas) != len(cards):
            raise ValueError(
                f"alpha vector length {len(alphas)} != d={len(cards)}"
            )
    else:
        alphas = (float(alpha),) * len(cards)
    return DatasetSpec(n=n, cardinalities=cards, alphas=alphas, seed=seed)
