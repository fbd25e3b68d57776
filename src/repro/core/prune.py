"""Scan pruning (§5.1.1): which partitions, and which positions inside them,
can hold a value in a set of inclusive value ranges.

In FOR and LeCo the value at local position ``i`` is
``floor(θ0 + θ1·i) + bias + d`` with ``0 <= d < 2^w``.  The prediction is
monotone in ``i``, so a partition's values lie between its end predictions
(+ bias, + 2^w − 1 above); for θ1 > 0, ``floor(θ0 + θ1·i) <= hi − bias``
iff ``i < (hi − bias + 1 − θ0) / θ1``, and symmetrically for ``lo``.  Both
bounds are taken in float64 with a rounding slack and one spare position
per side; over-inclusion is safe because the decoded candidates go through
the exact value filter.  Delta headers bound no value: decoded in full.
"""
from __future__ import annotations

import numpy as np

from .format import EncodedSequence
from .leco import _decode_partition

__all__ = ["MODEL_DELTA", "partition_bounds", "candidate_ranges", "select"]

#: schemes whose partitions decode as ``floor(θ0 + θ1·i) + bias + delta``
MODEL_DELTA = frozenset({"FOR", "LeCo-fix", "LeCo-var", "LeCo-angle"})

#: float64 rounding slack, relative to the magnitudes in a bound (≫ a few ulps)
_REL_SLACK = 2.0**-40


def _headers(enc: EncodedSequence) -> tuple[np.ndarray, ...]:
    """(θ0, θ1, bias, 2^w − 1, n) per partition, as float64 columns."""
    if enc.scheme not in MODEL_DELTA:
        raise ValueError(f"{enc.scheme} partition headers bound no values")
    t0, t1, bias, width, n = np.array(
        [(p.model.theta0, p.model.theta1, p.bias, p.width, p.n) for p in enc.partitions],
        dtype=np.float64,
    ).reshape(-1, 5).T
    return t0, t1, bias, 2.0**width - 1, n


def _bounds(t0, t1, bias, span, n) -> tuple[np.ndarray, np.ndarray]:
    e0, e1 = np.floor(t0), np.floor(t0 + t1 * (n - 1))
    slack = _REL_SLACK * (np.abs(e0) + np.abs(e1) + np.abs(bias) + span)
    return np.minimum(e0, e1) + (bias - slack), np.maximum(e0, e1) + (bias + span + slack)


def partition_bounds(enc: EncodedSequence) -> tuple[np.ndarray, np.ndarray]:
    """Float64 ``(lo, hi)`` per partition holding every value it stores."""
    return _bounds(*_headers(enc))


def candidate_ranges(enc: EncodedSequence, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local positions ``[a, b)`` per partition that can hold a value in one
    of the inclusive ranges ``[lo[r], hi[r]]``; ``a >= b`` means skip."""
    t0, t1, bias, span, n = h = _headers(enc)
    plo, phi = _bounds(*h)
    slack = _REL_SLACK * (np.abs(t0) + np.abs(t1) * n + np.abs(bias) + span)
    inv = t1 > 0
    # θ1 <= 0 divides by inf: both quotients are ±0, and [a, b) becomes [0, n)
    slope = np.where(inv, t1, np.inf)[:, None]
    a = np.floor((lo - _REL_SLACK * np.abs(lo) - (t0 + bias + span + slack)[:, None]) / slope) - 1
    b = np.ceil((hi + _REL_SLACK * np.abs(hi) - (t0 + bias - 1 - slack)[:, None]) / slope)
    a, b = np.maximum(a, 0), np.minimum(b + np.where(inv, 1, n)[:, None], n[:, None])
    ok = (phi[:, None] >= lo) & (plo[:, None] <= hi) & (a < b)  # (partitions, ranges)
    a = np.where(ok, a, n[:, None]).min(axis=1)
    b = np.where(ok, b, 0).max(axis=1)
    return a.astype(np.int64), b.astype(np.int64)


def _matches(edges: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices of ``v`` inside a range: an odd number of edges at or below."""
    return np.flatnonzero((np.searchsorted(edges, v, side="right") & 1).astype(bool))


def select(enc: EncodedSequence, ranges: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Positions (ascending) and values of ``enc`` that lie in one of
    ``ranges``: inclusive integer ``(lo, hi)`` pairs, sorted and disjoint."""
    # range r covers [edges[2r], edges[2r+1])
    edges = np.array([(lo, hi + 1) for lo, hi in ranges if lo <= hi], dtype=np.int64).reshape(-1)
    if not len(edges):
        return edges, edges
    if enc.scheme not in MODEL_DELTA:
        from .codec_api import get_codec

        vals = get_codec(enc.scheme).decode(enc)
        pos = _matches(edges, vals)
        return pos, vals[pos]
    a, b = candidate_ranges(enc, edges[0::2], edges[1::2] - 1)
    starts = np.asarray(enc.starts, dtype=np.int64)
    pos, vals = [edges[:0]], [edges[:0]]
    for k in np.flatnonzero(a < b):
        v = _decode_partition(enc.partitions[k], a[k], b[k])
        m = _matches(edges, v)
        pos.append(starts[k] + a[k] + m)
        vals.append(v[m])
    return np.concatenate(pos), np.concatenate(vals)
