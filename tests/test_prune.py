"""Scan pruning (core/prune): header bounds and model inversion must never
drop a row, on any Model+Delta scheme, checked against a numpy oracle."""
import numpy as np
import pytest

from repro.baselines.delta_codec import DeltaFix
from repro.baselines.for_codec import FORCodec
from repro.core import prune
from repro.core.leco import LeCoFix, LeCoVar
from repro.core.pla import LeCoAngle
from repro.datasets import gen_ml
from repro.parquet_sim.encodings import encode_chunk, parse_chunk


def _oracle(v: np.ndarray, ranges) -> np.ndarray:
    m = np.zeros(len(v), dtype=bool)
    for lo, hi in ranges:
        m |= (v >= lo) & (v <= hi)
    return np.flatnonzero(m)


def _check(enc, v, ranges):
    pos, vals = prune.select(enc, ranges)
    assert np.array_equal(pos, _oracle(v, ranges))
    assert np.array_equal(vals, v[pos])


def test_range_on_ml_seconds_keeps_plateau_rows():
    """ml timestamps in seconds repeat (θ1 < 1); the upper inversion bound
    must keep the positions whose prediction floors to ``hi``."""
    v = gen_ml(400_000, seed=101)[0] // 1000
    lo, hi = int(np.quantile(v, 0.40)), int(np.quantile(v, 0.41))
    got = []
    for s in range(0, len(v), 20_000):
        chunk = v[s : s + 20_000]
        pos, vals = prune.select(LeCoFix().encode(chunk), [(lo, hi)])
        assert np.array_equal(vals, chunk[pos])
        got.append(s + pos)
    assert np.array_equal(np.concatenate(got), np.flatnonzero((v >= lo) & (v <= hi)))


def test_daily_windows_keep_plateau_of_width0_tail():
    """The Fig 14 predicate as day ranges over a plateau chunk whose tail
    partition has no delta bits."""
    v = 606774 + np.floor(0.1 * np.arange(8866)).astype(np.int64)
    _, enc = parse_chunk(encode_chunk(v, "leco", 2872))
    assert enc.partitions[-1].width == 0
    t1, t2, mod = 2417, 3303, 86400
    _check(enc, v, [(d * mod + t1 + 1, d * mod + t2 - 1) for d in range(5, 9)])


@pytest.mark.parametrize(
    "codec",
    [LeCoFix(), LeCoFix(97), LeCoVar(), LeCoAngle(), FORCodec(), FORCodec(300), DeltaFix()],
    ids=lambda c: f"{c.name}-{getattr(c, 'partition_len', None)}",
)
def test_select_matches_oracle(codec):
    g = np.random.default_rng(7)
    for trial in range(12):
        n = int(g.integers(50, 4000))
        slope = float(g.uniform(0.05, 3.0))
        v = int(g.integers(-(10**12), 10**12)) + np.floor(slope * np.arange(n)).astype(np.int64)
        v += g.integers(0, int(g.integers(1, 40)), n)
        if trial % 3 == 1:
            v = v[::-1].copy()  # θ1 < 0: no inversion, header bounds only
        enc = codec.encode(v)
        cuts = np.sort(g.choice(v, 6))
        ranges = [(int(cuts[0]), int(cuts[1])), (int(cuts[2]) + 1, int(cuts[3])), (int(cuts[4]) + 1, int(cuts[5]))]
        _check(enc, v, [r for r in ranges if r[0] <= r[1]])


def test_partition_bounds_hold_every_value():
    v = np.cumsum(np.random.default_rng(3).integers(0, 5, 6000)).astype(np.int64) * 3
    for codec in (LeCoFix(500), LeCoVar(), FORCodec(500)):
        enc = codec.encode(v)
        lo, hi = prune.partition_bounds(enc)
        for k, p in enumerate(enc.partitions):
            part = v[int(enc.starts[k]) : int(enc.starts[k]) + p.n]
            assert lo[k] <= part.min() and part.max() <= hi[k]


def test_inversion_prunes_positions_inside_a_partition():
    v = np.arange(0, 30_000, 3, dtype=np.int64)
    enc = LeCoFix(10_000).encode(v)
    a, b = prune.candidate_ranges(enc, np.array([9000]), np.array([9300]))
    assert b[0] - a[0] < 200  # ~100 matching positions, not the whole partition
    _check(enc, v, [(9000, 9300)])


def test_disjoint_and_empty_ranges():
    v = np.arange(1000, dtype=np.int64) // 4
    enc = LeCoFix(128).encode(v)
    _check(enc, v, [(3, 10), (11, 11), (40, 39), (200, 260)])
    _check(enc, v, [(-50, -1), (1000, 2000)])
    _check(enc, v, [])
    with pytest.raises(ValueError):
        prune.partition_bounds(DeltaFix().encode(v))
