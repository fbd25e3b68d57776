"""Bit-packing substrate: fixed-width codes packed MSB-first into bytes.

This is the physical layer under every fixed-length-delta codec in the
reproduction (LeCo, FOR, Delta, Elias-Fano lower bits).  Values are
unsigned; signed deltas are stored by the codecs as ``delta - bias``
with an explicit per-partition bias, which is exactly the minimal
fixed-width layout the paper's θ0-tweak approximates (see DESIGN.md §2).

Two families of whole-array helpers share one O(1) single-value
``extract``, which reads any width:

* numpy path (widths 0..64): vectorized via ``np.unpackbits``/``packbits``.
* big-int path (arbitrary widths, for the string extension §3.4 where
  mapped integers exceed 64 bits): pure-Python over ``int``.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "bits_needed",
    "pack",
    "unpack",
    "extract",
    "pack_bigints",
    "unpack_bigints",
]


def bits_needed(max_value: int) -> int:
    """Bits required to store unsigned values in ``[0, max_value]``.

    ``bits_needed(0) == 0`` — a partition whose deltas are all equal to the
    bias stores no delta array at all.
    """
    if max_value < 0:
        raise ValueError(f"max_value must be >= 0, got {max_value}")
    return int(max_value).bit_length()


def pack(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned ``values`` at ``width`` bits each, MSB-first.

    The result is ``ceil(n * width / 8)`` bytes; trailing pad bits are 0.
    """
    if width == 0:
        return b""
    if not 0 < width <= 64:
        raise ValueError(f"width must be in [0, 64], got {width}")
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size and width < 64 and int(v.max()) >> width:
        raise ValueError(f"value out of range for width={width}")
    # Bit matrix (n, width), MSB first, then flatten and pack into bytes.
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((v[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def unpack(buf: bytes, width: int, n: int) -> np.ndarray:
    """Inverse of :func:`pack` — returns ``n`` uint64 values."""
    if width == 0:
        return np.zeros(n, dtype=np.uint64)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=n * width)
    weights = (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64))
    return bits.reshape(n, width).astype(np.uint64) @ weights


def extract(buf: bytes, width: int, idx: int) -> int:
    """Read the single value at position ``idx`` without unpacking the rest
    (any width: the result is a Python int).

    Mirrors the paper's Decoder (§3.3): fetch bits ``[b·i, b·(i+1))``.
    """
    if width == 0:
        return 0
    start = idx * width
    end = start + width
    first, last = start // 8, (end + 7) // 8
    chunk = int.from_bytes(buf[first:last], "big")
    return (chunk >> ((last * 8) - end)) & ((1 << width) - 1)


# ---------------------------------------------------------------------------
# Big-int path (string extension): arbitrary widths over Python ints.
# ---------------------------------------------------------------------------

def pack_bigints(values: list[int], width: int) -> bytes:
    """Pack arbitrary-width unsigned Python ints, MSB-first."""
    if width == 0:
        return b""
    acc = 0
    for v in values:
        if v < 0 or v >> width:
            raise ValueError(f"value {v} out of range for width={width}")
        acc = (acc << width) | v
    total_bits = len(values) * width
    pad = (-total_bits) % 8
    acc <<= pad
    return acc.to_bytes((total_bits + pad) // 8, "big")


def unpack_bigints(buf: bytes, width: int, n: int) -> list[int]:
    """Inverse of :func:`pack_bigints`."""
    if width == 0:
        return [0] * n
    acc = int.from_bytes(buf, "big")
    total_bits = n * width
    acc >>= (len(buf) * 8 - total_bits)
    mask = (1 << width) - 1
    return [(acc >> ((n - 1 - i) * width)) & mask for i in range(n)]

