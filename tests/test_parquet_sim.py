"""Parquet-like store tests (§5.1), incl. DuckDB-oracle query equivalence."""
import os
import tempfile

import numpy as np
import pandas as pd
import pytest

from repro.datasets import gen_ml
from repro.parquet_sim.encodings import decode_chunk, encode_chunk, gather_positions
from repro.parquet_sim.format import file_bytes, read_column, read_footer, write_file
from repro.parquet_sim.scan import _mod_positions, bitmap_select, filter_scan_mod

DAY = 86400


@pytest.fixture(scope="module")
def table():
    g = np.random.default_rng(0)
    ts, _ = gen_ml(60_000)
    ids = g.integers(0, 1 << 40, 60_000)
    return pd.DataFrame({"ts": ts // 1000, "id": ids})


@pytest.fixture(scope="module", params=["default", "for", "leco"])
def written(request, table, tmp_path_factory):
    path = str(tmp_path_factory.mktemp(f"pq-{request.param}"))
    write_file(table, path, {"ts": request.param, "id": request.param}, row_group_rows=20_000)
    return request.param, path


@pytest.mark.parametrize("encoding", ["default", "for", "leco"])
@pytest.mark.parametrize("shape", ["sorted", "random", "lowcard"])
def test_chunk_roundtrip(encoding, shape):
    g = np.random.default_rng(1)
    v = {
        "sorted": np.sort(g.integers(0, 10**9, 5000)),
        "random": g.integers(-(10**6), 10**6, 5000),
        "lowcard": g.choice([10, 20, 30], 5000).astype(np.int64),
    }[shape]
    blob = encode_chunk(v, encoding, partition_len=512)
    assert np.array_equal(decode_chunk(blob), v)


@pytest.mark.parametrize("encoding", ["default", "for", "leco"])
def test_gather_positions(encoding):
    g = np.random.default_rng(2)
    v = np.sort(g.integers(0, 10**8, 8000))
    blob = encode_chunk(v, encoding, partition_len=1000)
    pos = np.sort(g.choice(8000, 200, replace=False))
    assert np.array_equal(gather_positions(blob, pos), v[pos])
    dense = np.arange(3000, 7000)
    assert np.array_equal(gather_positions(blob, dense), v[dense])


@pytest.mark.parametrize("encoding", ["default", "for", "leco"])
@pytest.mark.parametrize("slope", [0.1, 0.25, 0.4, 0.7])
def test_mod_positions_on_plateaus(encoding, slope):
    """Chunk pruning for ``t1 < v % mod < t2`` keeps every row of value
    plateaus (θ1 < 1), including width-0 tail partitions."""
    g = np.random.default_rng(int(slope * 10))
    v = 606774 + np.floor(slope * np.arange(8866)).astype(np.int64)
    blob = encode_chunk(v, encoding, partition_len=2872)
    windows = [(2417, 3303)] + [tuple(np.sort(g.choice(v % DAY, 2))) for _ in range(40)]
    for t1, t2 in windows:
        expect = np.flatnonzero((v % DAY > t1) & (v % DAY < t2))
        assert np.array_equal(_mod_positions(blob, int(t1), int(t2), DAY), expect)


def test_dictionary_fallback_to_plain():
    g = np.random.default_rng(3)
    unique_heavy = g.integers(0, 2**50, 5000)  # ~all distinct → plain
    assert encode_chunk(unique_heavy, "default")[0] == 0  # TAG_PLAIN
    low = g.choice(100, 5000).astype(np.int64)
    assert encode_chunk(low, "default")[0] == 1  # TAG_DICT


def test_unknown_encoding_rejected():
    with pytest.raises(ValueError):
        encode_chunk(np.arange(10), "zigzag")


def test_write_read_column(written, table):
    enc, path = written
    assert np.array_equal(read_column(path, "ts"), table.ts.to_numpy(dtype=np.int64))
    assert np.array_equal(read_column(path, "id"), table.id.to_numpy(dtype=np.int64))


def test_footer_zone_maps(written, table):
    _, path = written
    metas = [m for m in read_footer(path) if m.column == "ts"]
    ts = table.ts.to_numpy()
    for m in metas:
        seg = ts[m.rg_id * 20_000 : (m.rg_id + 1) * 20_000]
        assert m.vmin == seg.min() and m.vmax == seg.max()


def test_filter_scan_mod_matches_duckdb(spark, written, table):
    """The Fig 14 query must return exactly DuckDB's answer regardless of
    encoding (count + id-sum checksum)."""
    import duckdb

    _, path = written
    r = filter_scan_mod(spark, path, ts_col="ts", id_col="id", t1=3600, t2=10800)
    con = duckdb.connect()
    con.register("t", table)
    cnt, sm = con.execute(
        f"SELECT count(*), COALESCE(sum(id),0) FROM t WHERE ts % {DAY} > 3600 AND ts % {DAY} < 10800"
    ).fetchone()
    con.close()
    assert r["rows_out"] == cnt
    assert r["checksum"] == int(sm) % (1 << 62)


def test_bitmap_select_matches_reference(spark, written, table):
    _, path = written
    g = np.random.default_rng(4)
    pos = np.sort(g.choice(len(table), 1500, replace=False))
    r = bitmap_select(spark, path, column="id", positions=pos)
    ids = table.id.to_numpy(dtype=np.int64)
    assert r["rows_out"] == len(pos)
    assert r["checksum"] == int(ids[pos].sum()) % (1 << 62)


def test_zlib_block_compression_roundtrip(spark, table, tmp_path):
    path = str(tmp_path / "z")
    write_file(table, path, {"ts": "leco"}, row_group_rows=20_000, block_compression="zlib")
    assert np.array_equal(read_column(path, "ts"), table.ts.to_numpy(dtype=np.int64))
    r = bitmap_select(spark, path, column="ts", positions=np.arange(100))
    assert r["rows_out"] == 100 and r["decompress_s"] > 0


def test_zlib_reduces_file_size(table, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_file(table, a, {"ts": "default"}, row_group_rows=20_000)
    write_file(table, b, {"ts": "default"}, row_group_rows=20_000, block_compression="zlib")
    assert file_bytes(b) < file_bytes(a)


def test_leco_file_smaller_than_default(table, tmp_path):
    a, b = str(tmp_path / "d"), str(tmp_path / "l")
    write_file(table, a, {"ts": "default", "id": "default"}, row_group_rows=20_000)
    write_file(table, b, {"ts": "leco", "id": "leco"}, row_group_rows=20_000)
    assert file_bytes(b) < file_bytes(a)


def test_invalid_block_compression():
    with pytest.raises(ValueError):
        write_file(pd.DataFrame({"x": [1]}), tempfile.mkdtemp(), {"x": "leco"}, block_compression="lz77")
