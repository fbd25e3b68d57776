"""Unit tests for the bit-packing substrate (core/bitpack)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitpack import (
    bits_needed,
    extract,
    pack,
    pack_bigints,
    unpack,
    unpack_bigints,
)


@pytest.mark.parametrize(
    "x,expected",
    [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (255, 8), (256, 9),
     (2**52, 53), (2**53 - 1, 53), (2**53, 54), (2**63 - 1, 63)],
)
def test_bits_needed(x, expected):
    assert bits_needed(x) == expected


def test_bits_needed_rejects_negative():
    with pytest.raises(ValueError):
        bits_needed(-1)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 9, 13, 16, 21, 31, 32, 33, 48, 63, 64])
def test_pack_unpack_roundtrip(width):
    g = np.random.default_rng(width)
    hi = (1 << width) - 1
    v = g.integers(0, hi, 257, dtype=np.uint64) if width < 64 else g.integers(
        0, 2**63 - 1, 257, dtype=np.uint64
    )
    buf = pack(v, width)
    assert len(buf) == (257 * width + 7) // 8
    out = unpack(buf, width, 257)
    assert np.array_equal(out, v)


@pytest.mark.parametrize("width", [1, 3, 8, 12, 17, 33, 64])
def test_extract_matches_unpack(width):
    g = np.random.default_rng(width + 100)
    v = g.integers(0, (1 << min(width, 63)) - 1, 100, dtype=np.uint64)
    buf = pack(v, width)
    for i in [0, 1, 50, 98, 99]:
        assert extract(buf, width, i) == v[i]


def test_width_zero():
    assert pack(np.array([0, 0], dtype=np.uint64), 0) == b""
    assert np.array_equal(unpack(b"", 0, 5), np.zeros(5, dtype=np.uint64))
    assert extract(b"", 0, 3) == 0


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack(np.array([8], dtype=np.uint64), 3)


def test_pack_rejects_bad_width():
    with pytest.raises(ValueError):
        pack(np.array([1], dtype=np.uint64), 65)


@given(st.lists(st.integers(min_value=0, max_value=2**40 - 1), min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_pack_unpack_hypothesis(values):
    v = np.array(values, dtype=np.uint64)
    width = max(bits_needed(int(v.max())), 1)
    assert np.array_equal(unpack(pack(v, width), width, len(v)), v)


@pytest.mark.parametrize("width", [1, 7, 64, 65, 100, 200])
def test_bigint_roundtrip(width):
    import random

    r = random.Random(width)
    vals = [r.getrandbits(width) for _ in range(50)]
    buf = pack_bigints(vals, width)
    assert unpack_bigints(buf, width, 50) == vals
    for i in (0, 1, 25, 49):
        assert extract(buf, width, i) == vals[i]


def test_bigint_width_zero():
    assert pack_bigints([0, 0], 0) == b""
    assert unpack_bigints(b"", 0, 3) == [0, 0, 0]


def test_bigint_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack_bigints([4], 2)


@given(st.lists(st.integers(min_value=0, max_value=2**130), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_bigint_hypothesis(vals):
    width = max(max(v.bit_length() for v in vals), 1)
    buf = pack_bigints(vals, width)
    assert unpack_bigints(buf, width, len(vals)) == vals
