"""Deterministic, platform-independent randomness for splits and folds.

Dataset splitting and fold assignment must be reproducible bit-for-bit
across runs, platforms, and reimplementations, so they avoid library RNGs
and use a fixed, fully specified scheme: a SplitMix64 stream feeding a
Fisher-Yates shuffle with modulo-reduced draws and a descending index.
"""

import math

from .errors import integer

MASK64 = 0xFFFFFFFFFFFFFFFF


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2^64): SplitMix64 keeps 64 bits of state, so such a
    seed would give the stream of another."""
    if not 0 <= integer(seed, "seed") <= MASK64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")


class SplitMix64:
    """SplitMix64 pseudo-random stream over unsigned 64-bit integers; the seed is
    checked by check_seed."""

    def __init__(self, seed: int):
        check_seed(seed)
        self.state = seed

    def next_uint64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) & MASK64

    def next_below(self, bound: int) -> int:
        """Draw an integer in [0, bound). Modulo reduction, by definition."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_uint64() % bound


def fisher_yates(items: list, stream: SplitMix64) -> list:
    """Return a new list shuffled in place with descending-index Fisher-Yates.

    Consumes exactly ``len(items) - 1`` draws from ``stream`` (zero for
    lists shorter than two), so successive shuffles from one stream are
    well defined.
    """
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = stream.next_below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def round_half_up(x: float) -> int:
    """Round to nearest integer with ties going up (0.5 -> 1).

    Raises ValueError, naming x, when x is not finite.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot round {x} to an integer")
    return int(math.floor(x + 0.5))
