"""Fixed 64-bit splittable generator (splitmix-style).

Used wherever values must be identical across platforms and runs: synthetic
oracle tables and derived loop seeds.  The algorithm is pinned here so the
outputs are part of the package's wire-level behavior.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """One splitmix64 output for the given state value."""
    z = (value + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential splitmix64 stream seeded with a 64-bit value."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        value = mix64(self._state)
        self._state = (self._state + _GAMMA) & _MASK
        return value

    def next_unit(self) -> float:
        """A float in [0, 1) with 53 uniform bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def derive_seed(base: int, index: int) -> int:
    """Deterministic child seed for loop iteration `index` under `base`."""
    return mix64((base & _MASK) ^ mix64(index + 1))
