"""The four measured components of the benchmark and their oracles.

Each component builds its inputs from the seed (``build``) and then runs one
round of fixed work (``run``), timing every operation through the round
recorder and verifying every output against an oracle made from the inputs:

* :class:`CodecRoundtrip` — ``encode → to_bytes → from_bytes → decode`` for
  FOR, LeCo-fix and LeCo-var over several data-set shapes;
* :class:`RandomAccess` — batched ``codec.access(enc, i)`` on columns
  encoded during the build;
* :class:`Seek` — batched ``DB.seek(key)`` over one SSTable with the LeCo
  index, at one block-cache size below the hot set and one above it;
* :class:`ScanQueries` — Fig 14/17 queries over Parquet-sim files, as Spark
  actions (plus a ``spark_codec`` decode) or in-process.

A workload runs every component, each at its own size: one at full size
(the stack the workload is about) and the others as small fixed probes, so
every end-to-end metric is measured on every workload.
"""
from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.baselines.for_codec import FORCodec
from repro.core.format import EncodedSequence
from repro.core.leco import LeCoFix, LeCoVar
from repro.datasets import INTEGER_DATASETS, gen_fb, gen_ml
from repro.experiments.parquet_bench import DAY, ENCODINGS, IO_GBPS, write_fig14_files, zipf_bitmap
from repro.experiments.rocksdb_bench import make_workload
from repro.rocksdb_sim.db import DB
from repro.rocksdb_sim.sstable import build_sstable

SCHEMES = {"FOR": FORCodec(), "LeCo-fix": LeCoFix(), "LeCo-var": LeCoVar()}


def host_reference() -> int:
    """A fixed slice of interpreter and numpy work, timed between components.

    It shares no code with the program, so its fast decile measures only how
    fast the host ran during the run.  The gated timings are scaled by it,
    which cuts the run-to-run drift of a shared host's speed (whole runs
    slower by up to ~1.5x) that a per-run fast decile cannot remove.
    """
    a = np.arange(20_000, dtype=np.int64)
    acc = int(np.sort((a * 3 + 7) % 1000).sum())
    for i in range(5_000):
        acc ^= i * i
    return acc


def rotate(items: list, r: int) -> list:
    """Round ``r`` starts at item ``r mod len``, so no item is always first."""
    k = r % len(items)
    return items[k:] + items[:k]


def dataset(name: str, n: int, seed: int) -> tuple[np.ndarray, int]:
    """One seeded integer data set; each name gets its own stream."""
    k = sorted(INTEGER_DATASETS).index(name)
    return INTEGER_DATASETS[name](n, seed=seed * 100 + k)


@dataclass(frozen=True)
class CodecSize:
    datasets: tuple[str, ...]
    n: int
    reps: int  # round trips of each (data set × scheme) pair per round


class CodecRoundtrip:
    """Every (data set × scheme) pair through a full serialized round trip."""

    def __init__(self, size: CodecSize):
        self.size = size

    def build(self, seed: int, tmp: str, spark) -> None:
        self.inputs = [(ds, *dataset(ds, self.size.n, seed)) for ds in self.size.datasets]
        self.raw = len(SCHEMES) * sum(len(v) * bits // 8 for _, v, bits in self.inputs)
        self._sizes: dict[tuple[str, str], int] = {}

    @property
    def stored(self) -> int:
        """Serialized bytes of every (data set × scheme) column, as of the last round."""
        return sum(self._sizes.values())

    def run(self, r: int, rec) -> None:
        pairs = [(ds, v, bits, s) for ds, v, bits in self.inputs for s in SCHEMES]
        for ds, v, bits, scheme in rotate(pairs * self.size.reps, r):
            codec = SCHEMES[scheme]
            metric = "var_encode" if scheme == "LeCo-var" else "fix_encode"
            kind = f"{scheme}/{ds}"
            with rec.op(f"{scheme} roundtrip on {ds}", 1):
                with rec.timed(metric, kind, len(v), f"codec.{scheme}.encode"):
                    enc = codec.encode(v, dtype_bits=bits)
                    blob = enc.to_bytes()
                with rec.timed("decode", kind, len(v), f"codec.{scheme}.decode"):
                    out = codec.decode(EncodedSequence.from_bytes(blob))
                self._sizes[ds, scheme] = len(blob)
                rec.codec_bytes(scheme, len(blob), enc.model_bytes())
                rec.check(np.array_equal(out, v))

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class AccessSize:
    datasets: tuple[str, ...]
    n: int
    batch: int  # accesses per timed sample
    batches: int  # batches per column per round


class RandomAccess:
    """Uniform random ``access`` on columns encoded during the build."""

    def __init__(self, size: AccessSize):
        self.size = size

    def build(self, seed: int, tmp: str, spark) -> None:
        self.seed = seed
        self.columns = []
        self.stored = self.raw = 0
        for ds in self.size.datasets:
            v, bits = dataset(ds, self.size.n, seed)
            for scheme, codec in SCHEMES.items():
                enc = codec.encode(v, dtype_bits=bits)
                self.columns.append((ds, scheme, codec, enc, v))
                self.stored += len(enc.to_bytes())
                self.raw += enc.raw_bytes()

    def run(self, r: int, rec) -> None:
        s = self.size
        jobs = [(c, b) for c in range(len(self.columns)) for b in range(s.batches)]
        for c, b in rotate(jobs, r):
            ds, scheme, codec, enc, v = self.columns[c]
            pos = np.random.default_rng([self.seed, r, c, b]).integers(0, s.n, s.batch).tolist()
            with rec.op(f"{scheme} access on {ds}", len(pos)):
                with rec.timed("access", f"{scheme}/{ds}", len(pos), f"codec.{scheme}.access"):
                    out = [codec.access(enc, i) for i in pos]
                rec.check(sum(a == b for a, b in zip(out, v[pos].tolist())), len(pos))

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class SeekSize:
    records: int
    caches: tuple[tuple[str, int], ...]  # (label, block-cache bytes)
    batch: int  # seeks per timed sample
    batches: int  # batches per cache size per round


_VALUE_BYTES = 400


class Seek:
    """YCSB-skewed ``DB.seek`` over one SSTable with the LeCo index."""

    def __init__(self, size: SeekSize):
        self.size = size
        self.dbs: dict[str, DB] = {}

    def build(self, seed: int, tmp: str, spark) -> None:
        s = self.size
        n_queries = s.batch * s.batches
        keys, filler, queries = make_workload(s.records, n_queries, seed=seed)
        # Each record stores its own key in front of the filler, so a seek
        # that lands on the wrong record is caught.
        self.filler = filler[: _VALUE_BYTES - len(keys[0])]
        self.path = os.path.join(tmp, f"table-{seed}.sst")
        entries = build_sstable(self.path, [(k, k + self.filler) for k in keys])
        self.dbs = {
            label: DB(self.path, entries, index_kind="leco", cache_bytes=cb) for label, cb in s.caches
        }
        self.batches = [queries[i : i + s.batch] for i in range(0, n_queries, s.batch)]

    def run(self, r: int, rec) -> None:
        jobs = [(label, b) for label in self.dbs for b in range(len(self.batches))]
        for label, b in rotate(jobs, r):
            db, batch = self.dbs[label], self.batches[b]
            misses, queries = db.stats.misses, db.stats.queries
            with rec.op(f"seek with {label} cache", len(batch)):
                with rec.timed("seek", label, len(batch), f"rocksdb.seek.{label}"):
                    out = [db.seek(k) for k in batch]
                rec.check(sum(o == k + self.filler for o, k in zip(out, batch)), len(batch))
            rec.cache(label, db, db.stats.misses - misses, db.stats.queries - queries)

    def close(self) -> None:
        for db in self.dbs.values():
            db.close()
        self.dbs = {}


@dataclass(frozen=True)
class ScanSize:
    rows: int
    row_group_rows: int
    spark: bool  # run the queries as Spark actions; else in-process
    reps: int = 1  # runs of each query per round


ENCODED_CHUNK_ROWS = 20_000


class ScanQueries:
    """Fig 14 ``filter_scan_mod`` per encoding and a Fig 17 ``bitmap_select``
    over Parquet-sim files, plus (under Spark) a ``spark_codec.decode_column``
    aggregate; each checked against a numpy oracle's row count and sum.

    Without Spark the file queries run in-process through the executors'
    own chunk functions (``read_chunk`` → ``_mod_positions`` /
    ``gather_positions``), which is also how a traced Spark run replays them.
    """

    def __init__(self, size: ScanSize):
        self.size = size
        self.enc_df = None
        self.base = None

    def build(self, seed: int, tmp: str, spark) -> None:
        from repro.parquet_sim.format import file_bytes

        s = self.size
        self.spark = spark
        ts, _ = gen_ml(s.rows, seed=seed * 100 + 1)
        ts = ts // 1000  # ms → s
        ids, _ = gen_fb(s.rows, seed=seed * 100 + 2)
        np.random.default_rng(seed).shuffle(ids)
        self.base = os.path.join(tmp, f"parquet-{seed}")
        self.paths = write_fig14_files(
            pd.DataFrame({"ts": ts, "id": ids}), row_group_rows=s.row_group_rows, base_dir=self.base
        )
        self.stored = sum(file_bytes(p) for p in self.paths.values())
        self.raw = len(ENCODINGS) * s.rows * 2 * 8
        t1, t2 = 3600, 3600 + 600  # the Fig 14 window at sel ≈ 0.7%
        m = (ts % DAY > t1) & (ts % DAY < t2)
        self.queries = [
            (f"filter_scan_mod.{enc}", ("fsm", enc, t1, t2), (int(m.sum()), _mod62(ids[m])))
            for enc in ENCODINGS
        ]
        pos = zipf_bitmap(s.rows, 0.01, seed=seed)
        self.queries.append(("bitmap_select", ("bitmap", pos), (len(pos), _mod62(ts[pos]))))
        if s.spark:
            from repro import spark_codec

            df = spark.createDataFrame(pd.DataFrame({"ts": ts}))
            self.enc_df = spark_codec.encode_column(
                df, "ts", scheme="LeCo-fix", chunk_rows=ENCODED_CHUNK_ROWS
            ).cache()
            self.enc_df.count()
            self.queries.append(("decode_column", ("decode",), (len(ts), _mod62(ts))))

    def _action(self, q) -> tuple[int, int, dict | None]:
        from repro import spark_codec
        from repro.parquet_sim.scan import bitmap_select, filter_scan_mod

        if q[0] == "fsm":
            _, enc, t1, t2 = q
            st = filter_scan_mod(
                self.spark, self.paths[enc], ts_col="ts", id_col="id", t1=t1, t2=t2, mod=DAY,
                io_gbps=IO_GBPS,
            )
            return st["rows_out"], st["checksum"], st
        if q[0] == "bitmap":
            st = bitmap_select(self.spark, self.paths["leco"], column="ts", positions=q[1], io_gbps=IO_GBPS)
            return st["rows_out"], st["checksum"], st
        row = spark_codec.decode_column(self.enc_df, "ts").selectExpr("count(*) AS n", "sum(ts) AS s").first()
        return row.n, row.s, None

    def _local(self, q) -> tuple[int, int]:
        """One file query in-process; returns (rows out, checksum)."""
        from repro.parquet_sim import scan
        from repro.parquet_sim.format import read_chunk, read_footer

        out = []
        if q[0] == "fsm":
            _, enc, t1, t2 = q
            by_rg: dict[int, dict] = {}
            for m in read_footer(self.paths[enc]):
                by_rg.setdefault(m.rg_id, {})[m.column] = m
            for cols in by_rg.values():
                blob, _ = read_chunk(self.paths[enc], cols["ts"])
                pos = scan._mod_positions(blob, t1, t2, DAY)
                if len(pos):
                    blob, _ = read_chunk(self.paths[enc], cols["id"])
                    out.append(scan.gather_positions(blob, pos))
        else:
            metas = sorted(
                (m for m in read_footer(self.paths["leco"]) if m.column == "ts"), key=lambda m: m.rg_id
            )
            start = 0
            for m in metas:
                local = q[1][(q[1] >= start) & (q[1] < start + m.n)] - start
                start += m.n
                if len(local):
                    blob, _ = read_chunk(self.paths["leco"], m)
                    out.append(scan.gather_positions(blob, local))
        v = np.concatenate(out) if out else np.empty(0, np.int64)
        return len(v), _mod62(v)

    def run(self, r: int, rec, between=None) -> None:
        """One round of queries; ``between(k)`` runs after the k-th."""
        for k, (kind, q, (rows, chk)) in enumerate(rotate(self.queries * self.size.reps, r)):
            with rec.op(f"query {kind}", 1):
                if self.size.spark:
                    group = f"r{r}-{kind}"
                    self.spark.sparkContext.setJobGroup(group, group)
                    with rec.timed("query", kind, 1, f"spark.{kind}"):
                        got_rows, got_chk, stats = self._action(q)
                    rec.spark_job(group, stats)
                else:
                    with rec.timed("query", kind, 1, f"scan.{kind}"):
                        got_rows, got_chk = self._local(q)
                rec.check(got_rows == rows and got_chk % (1 << 62) == chk)
            if between is not None:
                between(k)

    def replay(self) -> int:
        """Rows out of the file queries run in-process: under Spark this is
        the traced replay, since wrappers cannot reach the executors."""
        return sum(self._local(q)[0] for _, q, _ in self.queries if q[0] != "decode")

    def close(self) -> None:
        if self.enc_df is not None:
            self.enc_df.unpersist()
            self.enc_df = None
        if self.base:
            shutil.rmtree(self.base, ignore_errors=True)
            self.base = None


def _mod62(v: np.ndarray) -> int:
    """Sum modulo 2^62, the scans' checksum (uint64 wrap-around is mod 2^64)."""
    return int(np.asarray(v, dtype=np.int64).astype(np.uint64).sum()) % (1 << 62)
