"""Bit iteration shared by the bitset-backed structures."""

from __future__ import annotations

from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, ascending."""
    while mask:
        b = mask & (-mask)
        yield b.bit_length() - 1
        mask ^= b
