"""Spark-executed scans over the Parquet-like store (§5.1.1–§5.1.3).

Row groups fan out across Spark executors via ``mapInPandas``; each task
reads its chunk files, applies the query with encoding-appropriate pruning
and returns per-task timing stats:

* ``io_s`` — modeled I/O time: bytes read / ``io_gbps`` (the paper runs on
  a local NVMe; the OS page cache would hide real I/O here, so we charge a
  constant-bandwidth model and report bytes — DESIGN.md §2);
* ``decompress_s`` — zlib (≈zstd) block decompression, measured;
* ``scan_s`` — decode + predicate evaluation, measured.

The Fig 14 query is ``SELECT id FROM t WHERE t1 < ts % day < t2`` over an
almost-sorted ``ts``, pruned by ``core/prune.py`` with one value range per
day: Default decodes everything; FOR skips partitions whose header range
meets no window but decodes an overlapping one fully; LeCo also inverts its
model to decode only the candidate positions inside a partition (§5.1.1).
"""
from __future__ import annotations

import os
import time
import zlib
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from ..core import prune
from .encodings import gather_positions, parse_chunk
from .format import ChunkMeta, read_footer

_STATS_SCHEMA = StructType(
    [
        StructField("rows_out", LongType()),
        StructField("bytes_read", LongType()),
        StructField("io_s", DoubleType()),
        StructField("decompress_s", DoubleType()),
        StructField("scan_s", DoubleType()),
        StructField("checksum", LongType()),
    ]
)


def _timed(path: str, meta: ChunkMeta, io_gbps: float, stats: np.ndarray, work: Callable):
    """Read one chunk and run ``work(blob)`` on it; adds its bytes read,
    modeled I/O, decompression and ``work`` seconds to ``stats``."""
    with open(os.path.join(path, meta.file), "rb") as f:
        raw = f.read()
    t_read = time.perf_counter()
    blob = zlib.decompress(raw) if meta.compressed else raw
    t_work = time.perf_counter()
    out = work(blob)
    stats += (len(raw), len(raw) / (io_gbps * 1e9), t_work - t_read, time.perf_counter() - t_work)
    return out


def _mod_positions(blob: bytes, t1: int, t2: int, mod: int) -> np.ndarray:
    """Chunk-local positions where ``t1 < v % mod < t2``, pruned for FOR/LeCo."""
    kind, obj = parse_chunk(blob)
    if kind in ("plain", "dict"):
        v = np.asarray(obj)
        return np.flatnonzero((v % mod > t1) & (v % mod < t2))
    lo, hi = prune.partition_bounds(obj)
    days = range(int(np.floor(lo.min())) // mod, int(np.ceil(hi.max())) // mod + 1)
    return prune.select(obj, [(d * mod + t1 + 1, d * mod + t2 - 1) for d in days])[0]


def _run(spark: SparkSession, metas: list[ChunkMeta], column: str, work: Callable) -> dict[str, float]:
    """Fan the row groups of ``column``'s chunks out over executors; each
    task calls ``work(rg_id, stats)`` for the values its row group yields."""

    def task(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        stats = np.zeros(4)
        rows_out = checksum = 0
        for b in batches:
            for r in b.itertuples(index=False):
                vals = work(int(r.rg_id), stats)
                rows_out += len(vals)
                checksum += int(vals.sum())
        yield pd.DataFrame(
            [[rows_out, int(stats[0]), stats[1], stats[2], stats[3], checksum % (1 << 62)]],
            columns=[f.name for f in _STATS_SCHEMA.fields],
        )

    rg_ids = pd.DataFrame({"rg_id": [m.rg_id for m in metas if m.column == column]})
    agg = (
        spark.createDataFrame(rg_ids)
        .repartition(16, "rg_id")
        .mapInPandas(task, schema=_STATS_SCHEMA)
        .toPandas()
    )
    out = {c: int(agg[c].sum()) for c in ("rows_out", "bytes_read", "checksum")}
    out.update({c: float(agg[c].sum()) for c in ("io_s", "decompress_s", "scan_s")})
    return out | {"total_s": out["io_s"] + out["decompress_s"] + out["scan_s"]}


def filter_scan_mod(
    spark: SparkSession,
    path: str,
    *,
    ts_col: str,
    id_col: str,
    t1: int,
    t2: int,
    mod: int = 24 * 60 * 60,
    io_gbps: float = 2.0,
) -> dict[str, float]:
    """Fig 14 query; returns rows_out, io/decompress/scan seconds, bytes."""
    metas = read_footer(path)
    by_rg: dict[int, dict[str, ChunkMeta]] = {}
    for m in metas:
        by_rg.setdefault(m.rg_id, {})[m.column] = m

    def work(rg_id: int, stats: np.ndarray) -> np.ndarray:
        cols = by_rg[rg_id]
        pos = _timed(path, cols[ts_col], io_gbps, stats, lambda blob: _mod_positions(blob, t1, t2, mod))
        if len(pos) == 0:
            return pos
        return _timed(path, cols[id_col], io_gbps, stats, lambda blob: gather_positions(blob, pos))

    return _run(spark, metas, ts_col, work)


def bitmap_select(
    spark: SparkSession,
    path: str,
    *,
    column: str,
    positions: np.ndarray,
    io_gbps: float = 2.0,
) -> dict[str, float]:
    """Fig 17: decode ``column`` at global ``positions`` (a filter bitmap).

    Row groups containing no set bit are skipped entirely (zone/bitmap
    skipping); FOR/LeCo chunks decode only touched partitions."""
    metas = [m for m in read_footer(path) if m.column == column]
    metas.sort(key=lambda m: m.rg_id)
    bounds = np.cumsum([0] + [m.n for m in metas])
    positions = np.sort(np.asarray(positions, dtype=np.int64))
    per_rg = {
        m.rg_id: positions[(positions >= bounds[i]) & (positions < bounds[i + 1])] - bounds[i]
        for i, m in enumerate(metas)
    }
    keep = {m.rg_id: m for m in metas if len(per_rg[m.rg_id])}

    def work(rg_id: int, stats: np.ndarray) -> np.ndarray:
        return _timed(path, keep[rg_id], io_gbps, stats, lambda blob: gather_positions(blob, per_rg[rg_id]))

    return _run(spark, list(keep.values()), column, work)
