"""Platform-independent random number generator for synthetic data.

xorshift64* with splitmix64 seeding, so generated fixtures are
bit-identical across platforms and easy to reimplement elsewhere.
All integer arithmetic is modulo 2**64.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int):
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + _GOLDEN) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for stream ``index`` of a base seed."""
    _, mixed = splitmix64((seed ^ ((index + 1) * _GOLDEN)) & _MASK)
    return mixed


class Xorshift64Star:
    """xorshift64* generator; the zero state is avoided via splitmix seeding."""

    def __init__(self, seed: int):
        _, state = splitmix64(seed & _MASK)
        self._state = state or _GOLDEN
        self._spare = None

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & _MASK
        x ^= (x >> 27)
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n < 1:
            raise ValueError("randint needs n >= 1")
        return int(self.uniform() * n)

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def normal(self) -> float:
        """Standard normal via Box-Muller (one fresh pair per call, cached)."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        u1 = 1.0 - self.uniform()  # (0, 1] keeps log finite
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> list:
        return [self.normal() for _ in range(n)]
