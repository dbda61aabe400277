"""Bit-vector helpers shared across the package.

Circuit states are packed Python ints: bit *i* carries the value of signal
*i*.  Python ints are arbitrary precision, which also lets the parallel
fault simulator use one bit per faulty machine in a single word.
"""

from __future__ import annotations

from typing import Iterator


def bit(state: int, i: int) -> int:
    """Return bit ``i`` of ``state`` as 0 or 1."""
    return (state >> i) & 1


def set_bit(state: int, i: int, value: int) -> int:
    """Return ``state`` with bit ``i`` forced to ``value`` (0 or 1)."""
    if value:
        return state | (1 << i)
    return state & ~(1 << i)


def flip_bit(state: int, i: int) -> int:
    """Return ``state`` with bit ``i`` toggled."""
    return state ^ (1 << i)


def mask(n: int) -> int:
    """Return an ``n``-bit all-ones mask."""
    return (1 << n) - 1


if hasattr(int, "bit_count"):  # Python >= 3.10

    def popcount(x: int) -> int:
        """Number of set bits in ``x`` (x must be non-negative)."""
        return x.bit_count()

else:  # pragma: no cover - exercised on 3.8/3.9 CI

    def popcount(x: int) -> int:
        """Number of set bits in ``x`` (x must be non-negative)."""
        return bin(x).count("1")


def iter_set_bits(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``x`` in increasing order
    (``x`` must be non-negative); one step per set bit."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def bits_to_str(state: int, n: int) -> str:
    """Render the low ``n`` bits of ``state`` as a string, bit 0 first.

    Matches the paper's convention of writing states as signal-ordered
    binary strings (e.g. ``ABabcdey = 01010000``).
    """
    return "".join(str(bit(state, i)) for i in range(n))


def str_to_bits(text: str) -> int:
    """Inverse of :func:`bits_to_str`: character ``j`` becomes bit ``j``."""
    value = 0
    for i, ch in enumerate(text):
        if ch == "1":
            value |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid bit character {ch!r} in {text!r}")
    return value


def hamming(a: int, b: int) -> int:
    """Hamming distance between two bit vectors."""
    return popcount(a ^ b)
