"""Adaptive sort-kernel engine for packed int64 keys.

Every hot CPU path of the reproduction — the sample-sort local sorts
(Procedure 2), Pipesort sort-edge re-sorts, the merge's case-3 re-sorts
and canonical-order conversions — sorts parallel ``(key, measure)`` rows
by a packed non-negative int64 key (:class:`repro.storage.codec.KeyCodec`).
A comparison ``argsort`` is the safe default, but the mixed-radix key
structure admits much cheaper kernels:

``argsort``
    NumPy's stable comparison sort — the baseline and universal fallback
    (also the only kernel that accepts negative keys).

``radix``
    LSD radix sort over fixed-width 16-bit digit passes.  Each pass is a
    stable counting sort of the current digit (bucket histogram + prefix
    sum + stable scatter — NumPy's stable ``argsort`` on ``uint16``
    dispatches to exactly that O(n + 2^16) radix pass in C); the pass
    count is ``ceil(bits(max_key)/16)``, so a 2^33-key space sorts in 3
    linear passes instead of ``n·log2(n)`` comparisons.

``segmented``
    For re-sorts whose source and target attribute orders share a prefix
    of length ``k``: the source rows were sorted, so after the key remap
    (:meth:`repro.storage.codec.KeyCodec.remap`) the rows are already
    clustered into runs of equal prefix value, non-decreasing.  The
    kernel finds the run boundaries, compresses the (arbitrarily large)
    prefix value into a dense segment index, and radix-sorts the
    composite ``segment·W + suffix`` (``W`` = suffix capacity) — i.e. it
    sorts each equal-prefix segment independently, in total
    ``ceil(bits(nseg·W)/16)`` linear passes.  The composite order equals
    the full-key order, so the result is bit-identical to ``argsort``.

``presorted``
    Detects an already non-decreasing key array with a single-pass
    early-exit scan and skips the sort entirely (the merge phase's
    case-3 inputs are per-view pieces that phase 2 already sorted).

All kernels are *stable*, therefore produce the **identical permutation**
— outputs are bit-identical across kernels, and the call sites keep
their ``charge_sort`` / disk-block metering unchanged, so the simulated
cost model is kernel-independent by construction.  Kernels only change
*host* wall-clock.

Selection.  ``auto`` (the default) picks the cheapest applicable kernel
per call from a one-shot calibrated cost model: the first ``auto``
decision times a comparison sort and one radix digit pass on synthetic
data and derives per-row constants; thereafter selection is pure
arithmetic.  The choice is overridable globally — ``MachineSpec.
sort_kernel`` / ``--sort-kernel`` set the process default, and the
``REPRO_SORT_KERNEL`` environment variable (used by the CI kernel
matrix) outranks everything, including per-call hints.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KERNEL_NAMES",
    "calibration",
    "choose_kernel",
    "force_kernel",
    "get_default_kernel",
    "is_sorted_int64",
    "resolve_kernel",
    "segment_runs",
    "set_default_kernel",
    "sort_pairs",
]

#: Valid kernel names (``MachineSpec.sort_kernel`` / ``--sort-kernel`` /
#: ``REPRO_SORT_KERNEL``).  ``auto`` = per-call cost-model selection.
KERNEL_NAMES = ("auto", "argsort", "radix", "segmented", "presorted")

#: Environment override consulted on every resolution (the CI kernel
#: matrix forces one kernel for a whole test run through this).
ENV_KERNEL = "REPRO_SORT_KERNEL"

#: Bits per radix digit pass.  16 keeps the bucket table (2^16 counters)
#: L2-resident while halving the pass count of an 8-bit radix.
DIGIT_BITS = 16
_DIGIT_MASK = (1 << DIGIT_BITS) - 1

#: Below this row count every kernel decision collapses to ``argsort``:
#: the radix bucket table alone dwarfs the input.
SMALL_N = 256

_lock = threading.Lock()
_default_kernel = "auto"


# ---------------------------------------------------------------------------
# kernel selection plumbing
# ---------------------------------------------------------------------------


def set_default_kernel(name: str) -> None:
    """Set the process-wide default kernel (``MachineSpec.sort_kernel``)."""
    global _default_kernel
    _default_kernel = _validate(name)


def get_default_kernel() -> str:
    return _default_kernel


def _validate(name: str) -> str:
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"unknown sort kernel {name!r}; expected one of {KERNEL_NAMES}"
        )
    return name


def resolve_kernel(hint: str | None = None) -> str:
    """Effective kernel for one sort call.

    Priority: ``REPRO_SORT_KERNEL`` env var > process default when it is
    not ``auto`` (i.e. a forced ``MachineSpec.sort_kernel``) > the
    call-site ``hint`` > ``auto``.  Forced kernels outrank hints so the
    CI matrix genuinely exercises one kernel at every site.
    """
    if hint is not None:
        _validate(hint)  # a bad hint is a caller bug even when outranked
    env = os.environ.get(ENV_KERNEL)
    if env:
        return _validate(env)
    if _default_kernel != "auto":
        return _default_kernel
    if hint is not None:
        return hint
    return "auto"


class force_kernel:
    """Context manager pinning the process default kernel (tests)."""

    def __init__(self, name: str):
        self.name = _validate(name)

    def __enter__(self):
        self._saved = get_default_kernel()
        set_default_kernel(self.name)
        return self

    def __exit__(self, *exc):
        set_default_kernel(self._saved)
        return False


# ---------------------------------------------------------------------------
# presorted detection
# ---------------------------------------------------------------------------


def is_sorted_int64(keys: np.ndarray, chunk: int = 1 << 15) -> bool:
    """True iff ``keys`` is non-decreasing.

    Single pass in ``chunk``-sized windows with early exit on the first
    inversion — unlike ``np.all(keys[1:] >= keys[:-1])`` it allocates
    only one ``chunk``-sized temporary and stops scanning at the first
    violation (typically within the first window on unsorted data).
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    if n < 2:
        return True
    for start in range(0, n - 1, chunk):
        stop = min(start + chunk + 1, n)
        window = keys[start:stop]
        if not bool(np.all(window[1:] >= window[:-1])):
            return False
    return True


# ---------------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------------


def _argsort_pairs(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


def _radix_permute(
    arrays: list[np.ndarray], sort_key: np.ndarray, bits: int
) -> list[np.ndarray]:
    """Stably permute ``arrays`` into ``sort_key`` order via LSD passes.

    Each pass is a stable counting sort of one 16-bit digit: NumPy's
    stable ``argsort`` on a ``uint16`` view runs its C radix sort —
    bucket histogram (``bincount``), exclusive prefix sum, stable
    scatter — in O(n + 2^16).  The payload ``arrays`` are gathered only
    once at the end: the per-pass permutations are *composed* instead
    (one int64 gather per pass), which beats gathering every payload
    every pass.
    """
    shifts = range(0, max(bits, 1), DIGIT_BITS)
    total: np.ndarray | None = None
    for pos, shift in enumerate(shifts):
        digits = ((sort_key >> shift) & _DIGIT_MASK).astype(np.uint16)
        perm = np.argsort(digits, kind="stable")
        if pos + 1 < len(shifts):  # the last pass never reads sort_key again
            sort_key = sort_key[perm]
        total = perm if total is None else total[perm]
    return [a[total] for a in arrays]


def _radix_pairs(
    keys: np.ndarray,
    values: np.ndarray,
    key_bound: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """LSD radix sort; requires non-negative keys (falls back otherwise)."""
    if key_bound is not None:
        kmax = int(key_bound) - 1
    else:
        kmax = int(keys.max())
        if int(keys.min()) < 0:
            return _argsort_pairs(keys, values)
    if kmax <= 0:
        return keys.copy(), values.copy()  # all keys equal (all zero)
    out = _radix_permute([keys, values], keys, kmax.bit_length())
    return out[0], out[1]


def segment_runs(
    keys: np.ndarray, seg_divisor: int
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """``(prefix_value, segment_index, nseg)``, or ``None`` if there are
    no keys or their prefix values are not clustered.

    ``keys // seg_divisor`` is the shared-prefix value; the caller
    promises the source rows were sorted under an order sharing that
    prefix, which makes the prefix values non-decreasing.  That promise
    is verified (early-exit scan) because a wrong segmented sort would
    corrupt the cube.
    """
    high = keys // seg_divisor
    if not high.size or not is_sorted_int64(high):
        return None
    starts = np.empty(keys.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(high[1:], high[:-1], out=starts[1:])
    seg = np.cumsum(starts, dtype=np.int64) - 1
    return high, seg, int(seg[-1]) + 1


def _segmented_pairs(
    keys: np.ndarray,
    values: np.ndarray,
    seg_divisor: int,
    runs: tuple[np.ndarray, np.ndarray, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sort each equal-prefix segment independently (composite radix).

    Replaces the (arbitrarily large) prefix value with its dense segment
    index and radix-sorts ``segment·W + suffix``: segments are already
    in ascending prefix order, so the composite order equals the full
    key order, while the pass count shrinks from ``bits(prefix_cap·W)``
    to ``bits(nseg·W)`` — the win the shared prefix pays for.
    """
    if runs is None:
        runs = segment_runs(keys, seg_divisor)
    if runs is None:  # caller's sortedness promise does not hold
        return _radix_pairs(keys, values, None)
    high, seg, nseg = runs
    if nseg == keys.shape[0]:
        return keys.copy(), values.copy()  # one row per segment: sorted
    composite = seg * seg_divisor + (keys - high * seg_divisor)
    bits = int(nseg * seg_divisor - 1).bit_length()
    out = _radix_permute([keys, values], composite, bits)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# one-shot calibration + cost model
# ---------------------------------------------------------------------------


@dataclass
class Calibration:
    """Measured per-row constants of the host (one-shot, lazily built)."""

    #: Seconds per row per log2-level of a stable comparison argsort.
    argsort_sec_per_row_level: float
    #: Seconds per row of one radix digit pass (digit cast + counting
    #: sort + two gathers).
    radix_sec_per_row_pass: float
    #: Fixed seconds per radix pass (bucket table setup).
    radix_pass_overhead_sec: float

    def argsort_cost(self, n: int) -> float:
        return self.argsort_sec_per_row_level * n * max(np.log2(max(n, 2)), 1.0)

    def radix_cost(self, n: int, passes: int) -> float:
        return passes * (
            self.radix_sec_per_row_pass * n + self.radix_pass_overhead_sec
        )


_calibration: Calibration | None = None


def _measure(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def calibration() -> Calibration:
    """The host calibration, measuring it on first use (thread-safe)."""
    global _calibration
    if _calibration is not None:
        return _calibration
    with _lock:
        if _calibration is not None:
            return _calibration
        n = 1 << 15
        rng = np.random.default_rng(0xC0DEC)
        keys = rng.integers(0, 1 << 48, n, dtype=np.int64)
        vals = rng.random(n)
        t_arg = _measure(_argsort_pairs, keys, vals)
        t_pass = _measure(_radix_permute, [keys, vals], keys, 1)
        small = keys[: 1 << 10]
        t_small = _measure(
            _radix_permute, [small, vals[: 1 << 10]], small, 1
        )
        per_row = max(t_pass - t_small, 1e-9) / n  # constant term cancels
        overhead = max(t_small - per_row * (1 << 10), 0.0)
        _calibration = Calibration(
            argsort_sec_per_row_level=max(t_arg, 1e-9)
            / (n * float(np.log2(n))),
            radix_sec_per_row_pass=per_row,
            radix_pass_overhead_sec=overhead,
        )
        return _calibration


def _passes(bound: int) -> int:
    return max(1, -(-max(int(bound) - 1, 1).bit_length() // DIGIT_BITS))


def choose_kernel(
    n: int,
    key_bound: int | None = None,
    seg_bound: int | None = None,
) -> str:
    """Cost-model choice for ``auto`` (exposed for tests/benchmarks).

    ``key_bound`` is an exclusive upper bound on the key values;
    ``seg_bound`` the composite bound ``nseg·W`` of an applicable
    segmented sort.  Presorted detection happens in :func:`sort_pairs`
    before this is consulted.
    """
    if n < SMALL_N:
        return "argsort"
    cal = calibration()
    best_name, best_cost = "argsort", cal.argsort_cost(n)
    if key_bound is not None and key_bound > 1:
        cost = cal.radix_cost(n, _passes(key_bound))
        if cost < best_cost:
            best_name, best_cost = "radix", cost
    if seg_bound is not None and seg_bound > 1:
        cost = cal.radix_cost(n, _passes(seg_bound))
        if cost < best_cost:
            best_name, best_cost = "segmented", cost
    return best_name


# ---------------------------------------------------------------------------
# the public sort entry point
# ---------------------------------------------------------------------------


def sort_pairs(
    keys: np.ndarray,
    values: np.ndarray,
    kernel: str | None = None,
    *,
    key_bound: int | None = None,
    seg_divisor: int | None = None,
    runs: tuple[np.ndarray, np.ndarray, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stable-sort parallel ``(keys, values)`` rows by key.

    Returns new arrays; the result is bit-identical for every kernel
    (all kernels are stable).  ``kernel`` is a call-site hint — see
    :func:`resolve_kernel` for how forced kernels outrank it.  The
    structure hints are safe to omit or get wrong in the conservative
    direction: ``key_bound`` is an exclusive upper bound on (then
    necessarily non-negative) key values, e.g. ``KeyCodec.capacity``;
    ``seg_divisor`` is the suffix capacity ``W`` of a shared-prefix
    remap, promising rows are clustered into runs of equal ``key // W``
    in non-decreasing order (verified before use); a caller that has
    already run that check passes its :func:`segment_runs` result as
    ``runs`` and it is not repeated.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape or keys.ndim != 1:
        raise ValueError(
            f"keys/values must be parallel 1-D arrays, got {keys.shape} "
            f"and {values.shape}"
        )
    n = keys.shape[0]
    if n <= 1:
        return keys.copy(), values.copy()
    name = resolve_kernel(kernel)

    if name == "argsort":
        return _argsort_pairs(keys, values)
    if name == "presorted":
        if is_sorted_int64(keys):
            return keys.copy(), values.copy()
        return _argsort_pairs(keys, values)
    if name == "radix":
        return _radix_pairs(keys, values, key_bound)
    if name == "segmented":
        if seg_divisor is not None and seg_divisor >= 1:
            return _segmented_pairs(keys, values, int(seg_divisor), runs)
        return _argsort_pairs(keys, values)

    # ---- auto -----------------------------------------------------------
    if is_sorted_int64(keys):  # presorted fast path (early-exit check)
        return keys.copy(), values.copy()
    if n < SMALL_N:
        return _argsort_pairs(keys, values)
    seg_bound = None
    if seg_divisor is not None and seg_divisor >= 1:
        if runs is None:
            runs = segment_runs(keys, int(seg_divisor))
        if runs is not None:
            seg_bound = runs[2] * int(seg_divisor)
    bound = key_bound
    if bound is None:
        lo = int(keys.min())
        bound = None if lo < 0 else int(keys.max()) + 1
    name = choose_kernel(n, key_bound=bound, seg_bound=seg_bound)
    if name == "segmented":
        return _segmented_pairs(keys, values, int(seg_divisor), runs)
    if name == "radix":
        return _radix_pairs(keys, values, bound)
    return _argsort_pairs(keys, values)
